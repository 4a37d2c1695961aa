"""The library's document routes against :mod:`reference`: schedule
parsing, the decimal walk behind ``solve``, ``opt`` and ``eval``, the
total, instance I/O, the random draws and the experiment CSV.  Each must
give the same schedule, instance and bytes, or the same exception type
and text, on every document.  No command calls :func:`parse_schedule`
(``eval``'s fallback route) or :func:`write_schedule`, so they live here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import decimal
import hashlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    ExperimentConfig,
    Family,
    FamilySpec,
    Instance,
    Job,
    Objective,
    Schedule,
    SchedulerChoice,
    evaluate,
    generate,
    optimum,
    parse_instance,
    run,
    run_experiment,
    write_csv,
    write_instance,
)
from detsched.cli import main
from detsched.model import DuplicateId, InfeasibleSchedule, NegativeParameter, SchedulingError
from detsched.serialization import (
    ParseError,
    _canonical_eval,
    _canonical_schedule,
    _check_writable,
    _columns,
    _dumps,
    _eval_report,
    _loads,
    _schedule_from_doc,
    format_rational,
    format_rationals,
)

import reference
from conftest import delayed_starts, digit_limit, doc_text, instance_docs, instances, make_instance, small_rationals

F = Fraction


def parse_schedule(text: str, instance: Instance) -> Schedule:
    """The schedule of a document, through ``eval``'s fallback route: a
    document without ``starts`` yields the canonical schedule of its
    order, and explicit starts are checked for feasibility."""
    return _schedule_from_doc(_loads(text, "schedule"), instance)[0]


def write_schedule(schedule: Schedule) -> str:
    """The schedule document of any schedule, its starts written by
    :func:`format_rationals`.  Raises :class:`SchedulingError` naming
    ``order[i]`` or ``starts[i]`` for the first value past the digit limit,
    before any value is converted."""
    _check_writable(schedule.order, lambda i: f"order[{i}]")
    return _dumps({"order": list(schedule.order), "starts": format_rationals(schedule.starts, "starts")})


def eval_document(text: str, instance: Instance) -> str:
    """``eval``'s output for a schedule document."""
    return _dumps(_eval_report(text, instance))


def solve_document(record) -> str:
    """``solve``'s document for a policy run."""
    return _dumps(_canonical_schedule(record.instance, record.order))


def opt_document(instance: Instance, objective: Objective) -> tuple[int, str, str]:
    """``opt``'s exit status, output and error output for ``instance``,
    run in process through the command line."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        with digit_limit(0):
            path.write_text(write_instance(instance), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["opt", "--instance", str(path), "--objective", objective.value])
    return code, out.getvalue(), err.getvalue()


def outcome(route, *args):
    """What ``route`` gives: its result, or its exception's type and text."""
    try:
        return route(*args)
    except SchedulingError as exc:
        return type(exc), str(exc)


def assert_same_routes(text: str, instance: Instance) -> None:
    assert outcome(parse_schedule, text, instance) == outcome(reference.parse_schedule, text, instance)
    assert outcome(eval_document, text, instance) == outcome(reference.eval_document, text, instance)


def source_schedule(instance: Instance, source: str) -> Schedule:
    if source == "opt-makespan":
        return optimum(instance, Objective.MAKESPAN).best_schedule
    if source == "opt-total-completion":
        return optimum(instance, Objective.TOTAL_COMPLETION).best_schedule
    return run(instance, SchedulerChoice(source)).schedule


SOURCES = [c.value for c in SchedulerChoice] + ["opt-makespan", "opt-total-completion"]


def document(order, starts) -> str:
    return json.dumps({"order": list(order), "starts": list(starts)})


def respelled(value: Fraction, how: str) -> str:
    """A non-canonical text of ``value``: a leading zero, a denominator of
    1 for an integer, a signed zero, or else its terms scaled by 3."""
    p, q = value.numerator, value.denominator
    if how == "leading-zero":
        return f"0{format_rational(value)}"
    if how == "over-one" and q == 1:
        return f"{p}/1"
    if how == "signed" and p == 0:
        return "-0"
    return f"{3 * p}/{3 * q}"


instance_betas = st.sampled_from([F(1, 2), F(1, 3), F(1), F(2), F(1, 10)])


class TestScheduleRoutes:
    @settings(max_examples=120, deadline=None)
    @given(inst=instances(max_n=7, beta_strategy=instance_betas), source=st.sampled_from(SOURCES))
    def test_written_schedules(self, inst, source):
        schedule = source_schedule(inst, source)
        assert_same_routes(document(schedule.order, map(format_rational, schedule.starts)), inst)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        inst=instances(min_n=2, max_n=7, beta_strategy=instance_betas),
        source=st.sampled_from(SOURCES),
        keep=st.booleans(),
    )
    def test_delayed_starts(self, data, inst, source, keep):
        schedule = source_schedule(inst, source)
        positions = data.draw(
            st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=3, unique=True)
        )
        delays = {k: data.draw(small_rationals.filter(bool)) for k in positions}
        starts = delayed_starts(inst, schedule.order, delays, list(schedule.starts) if keep else None)
        assert_same_routes(document(schedule.order, map(format_rational, starts)), inst)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), inst=instances(max_n=7, beta_strategy=instance_betas), source=st.sampled_from(SOURCES))
    def test_early_starts(self, data, inst, source):
        # each chosen start moved earlier: before its release, or before
        # its predecessor's completion, or both
        schedule = source_schedule(inst, source)
        starts = list(schedule.starts)
        for k in data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, max_size=3, unique=True)):
            starts[k] -= data.draw(small_rationals.filter(bool))
        assert_same_routes(document(schedule.order, map(format_rational, starts)), inst)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        inst=instances(max_n=7, beta_strategy=instance_betas),
        source=st.sampled_from(SOURCES),
    )
    def test_non_canonical_spellings(self, data, inst, source):
        schedule = source_schedule(inst, source)
        texts = [format_rational(s) for s in schedule.starts]
        for k in data.draw(st.lists(st.integers(0, inst.n - 1), min_size=1, unique=True)):
            how = data.draw(st.sampled_from(["scaled", "leading-zero", "over-one", "signed"]))
            texts[k] = respelled(schedule.starts[k], how)
        assert_same_routes(document(schedule.order, texts), inst)

    def test_fixed_spellings(self):
        # j1 starts at its release 3/2 and ends at 3, j2's release; j3 starts
        # when j2 ends, at 15/2
        inst = make_instance(1, [(1, 0, F(3, 2)), (2, F(3, 2), 3), (3, 0, 0)])
        assert reference.schedule(inst, (1, 2, 3)).starts == (F(3, 2), F(3), F(15, 2))
        for starts in (
            ["6/4", "3", "15/2"],
            ["3/2", "03", "15/2"],
            ["3/2", "3/1", "15/2"],
            ["3/2", "3", "30/4"],
        ):
            assert_same_routes(document((1, 2, 3), starts), inst)
        zero = make_instance(1, [(1, 1, 0), (2, 1, 1)])
        assert parse_schedule(document((1, 2), ["-0", "1"]), zero).starts == (F(0), F(1))
        assert_same_routes(document((1, 2), ["-0", "1"]), zero)

    def test_first_start_before_its_release(self):
        # j1 is released at 3/2 (see test_fixed_spellings): a start at 1 is
        # refused for the release, though nothing runs before it
        inst = make_instance(1, [(1, 0, F(3, 2)), (2, F(3, 2), 3), (3, 0, 0)])
        text = document((1, 2, 3), ["1", "3", "15/2"])
        assert_same_routes(text, inst)
        assert outcome(parse_schedule, text, inst) == (InfeasibleSchedule, "job 1 starts at 1, before its release 3/2")

    @pytest.mark.parametrize(
        "position, text",
        # the starts are 3/2, 3 and 15/2 (see test_fixed_spellings)
        [(1, "+3"), (0, "03/2"), (0, "3/02"), (1, "\u0663"), (1, " 3"), (1, "3 "), (2, "15/2/1")],
    )
    def test_spellings_the_integer_compare_refuses(self, position, text):
        inst = make_instance(1, [(1, 0, F(3, 2)), (2, F(3, 2), 3), (3, 0, 0)])
        texts = ["3/2", "3", "15/2"]
        texts[position] = text
        assert_same_routes(document((1, 2, 3), texts), inst)

    def test_zero_spelled_with_a_denominator(self):
        zero = make_instance(1, [(1, 1, 0), (2, 1, 1)])
        assert parse_schedule(document((1, 2), ["0/5", "1"]), zero).starts == (F(0), F(1))
        assert_same_routes(document((1, 2), ["0/5", "1"]), zero)

    @pytest.mark.parametrize("release", [F(10**700), F(1, 10**700), F(10**700 + 1, 10**700)])
    def test_start_past_a_lowered_digit_limit(self, release):
        # the first start is the release itself; past the limit, its
        # numerator, its denominator or both cannot be read as ints
        inst = make_instance(1, [(1, 1, release), (2, 1, 0)])
        text = document((1, 2), [format_rational(release), format_rational(2 * release + 1)])
        with digit_limit(640):
            assert_same_routes(text, inst)
            with pytest.raises(ParseError, match=r"^starts\[0\]: 701 digits"):
                parse_schedule(text, inst)
        assert parse_schedule(text, inst).starts == (release, 2 * release + 1)

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        inst=instances(min_n=2, max_n=6, beta_strategy=instance_betas),
        bad=st.sampled_from(["1.5", "x", "5\n", "٣", "", "1/0"]),
    )
    def test_bad_start_next_to_non_permutation(self, data, inst, bad):
        schedule = source_schedule(inst, "ectf")
        order = list(schedule.order)
        order[-1] = order[0]
        texts = [format_rational(s) for s in schedule.starts]
        texts[data.draw(st.integers(0, inst.n - 1))] = bad
        text = document(order, texts)
        assert_same_routes(text, inst)
        assert outcome(parse_schedule, text, inst)[0] is ParseError

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(3, 6), change=st.booleans())
    def test_past_a_lowered_digit_limit(self, data, n, change):
        # each start is about 10**200 times the one before, so the fifth
        # start and the fourth completion pass 640 digits
        inst = make_instance(10**200, [(i, 1, 0) for i in range(1, n + 1)])
        earliest = reference.schedule(inst, range(1, n + 1)).starts
        texts = [format_rational(s) for s in earliest]
        k = data.draw(st.integers(0, n - 1))
        if change:  # a delayed start, or a start before its predecessor ends
            texts[k] = format_rational(earliest[k] + 1) if k < 4 else "7"
        with digit_limit(640):
            assert_same_routes(document(range(1, n + 1), texts), inst)
            assert_same_routes(json.dumps({"order": list(range(1, n + 1))}), inst)


# Betas with q of 1, 2, 3, 7 and 1600, one whose q is near 2**64 and one
# whose q is past it.
walk_betas = st.sampled_from([F(3, 2), F(2, 7), F(1, 1600), F(1), F(5, 3), F(7, 10**19), F(3, 10**25)])


@st.composite
def walk_instances(draw):
    """Alphas and releases with denominators 1..4, so d > 1 on most; on a
    third of them the releases are scaled by 10**636, so that some starts
    pass a digit limit of 640 and some do not."""
    n = draw(st.integers(1, 7))
    beta = draw(walk_betas)
    scale = draw(st.sampled_from([1, 1, 10**636]))
    return Instance(
        beta, tuple(Job(i, draw(small_rationals), draw(small_rationals) * scale) for i in range(1, n + 1))
    )


@st.composite
def opt_cases(draw):
    """An instance and an objective: a :func:`walk_instances` instance, or
    one of every family's at k of 2 to 5; ``ectf-adv`` has 2k jobs, so its
    total-completion optimum, on brute force, stops at k = 3."""
    objective = draw(st.sampled_from(list(Objective)))
    if draw(st.booleans()):
        return draw(walk_instances()), objective
    family = draw(st.sampled_from(list(Family)))
    top = 3 if family is Family.ECTF_ADV and objective is Objective.TOTAL_COMPLETION else 5
    spec = FamilySpec(
        family=family,
        n=draw(st.integers(2, top)),
        beta=draw(st.sampled_from([F(1, 2), F(1), F(2), F(3, 7), F(5, 2), F(1, 5)])),
        seed=draw(st.integers(0, 99)),
    )
    return generate(spec), objective


class TestWalkRoutes:
    """``solve``, ``opt`` and ``eval`` write canonical schedules from the
    decimal walk; the Fraction routes are the references."""

    @settings(max_examples=150, deadline=None)
    @given(inst=walk_instances(), choice=st.sampled_from(list(SchedulerChoice)), limit=st.sampled_from([640, 0]))
    def test_solve_document(self, inst, choice, limit):
        record = run(inst, choice)
        with digit_limit(limit):
            assert outcome(solve_document, record) == outcome(reference.solve_document, inst, record.order)

    @settings(max_examples=150, deadline=None)
    @given(inst=walk_instances(), choice=st.sampled_from(list(SchedulerChoice)), limit=st.sampled_from([640, 0]))
    def test_eval_document(self, inst, choice, limit):
        with digit_limit(0):
            text = write_schedule(run(inst, choice).schedule)
        with digit_limit(limit):
            report = outcome(eval_document, text, inst)
            assert report == outcome(reference.eval_document, text, inst)
            fast = outcome(_canonical_eval, json.loads(text), inst)
        if not limit:
            # the canonical texts of a canonical schedule take the fast route
            assert _dumps(fast) == report

    @settings(max_examples=100, deadline=None)
    @given(case=opt_cases(), limit=st.sampled_from([640, 0]))
    def test_opt_document(self, case, limit):
        inst, objective = case
        with digit_limit(limit):
            order = optimum(inst, objective).best_schedule.order
            assert opt_document(inst, objective) == reference.opt_document(inst, objective, order)

    @pytest.mark.parametrize(
        "inst",
        [
            # beta 1/2: the first completion, 2/2 before reduction, is 1
            make_instance(F(1, 2), [(1, 1, 0), (2, 1, 0), (3, 3, 20)]),
            # d = 12 and q = 7: reductions by primes of d and of q
            make_instance(F(2, 7), [(1, F(1, 2), F(1, 3)), (2, F(3, 4), 0), (3, 2, F(49, 6)), (4, F(1, 4), 12)]),
        ],
        ids=["q-2", "d-12-q-7"],
    )
    def test_fixed_walks(self, inst):
        for choice in SchedulerChoice:
            record = run(inst, choice)
            text = solve_document(record)
            assert text == reference.solve_document(inst, record.order)
            report = eval_document(text, inst)
            assert report == reference.eval_document(text, inst)
            assert _canonical_eval(json.loads(text), inst) is not None
            # the walk never uses the thread's decimal context
            with decimal.localcontext() as hostile:
                hostile.prec = 1
                hostile.Emax = 1
                hostile.traps[decimal.Inexact] = True
                hostile.traps[decimal.Rounded] = True
                assert solve_document(record) == text
                assert _dumps(_canonical_eval(json.loads(text), inst)) == report

    @pytest.mark.parametrize("release", [10**640 - 1, 10**640])
    def test_start_at_the_digit_bound(self, release):
        # a start of 640 digits is written, and one of 641 refused
        inst = make_instance(1, [(1, 1, release), (2, 1, 0)])
        record = run(inst, SchedulerChoice.NON_IDLING)
        with digit_limit(640):
            assert outcome(solve_document, record) == outcome(reference.solve_document, inst, record.order)
            assert isinstance(outcome(solve_document, record), str) == (release < 10**640)

    @pytest.mark.parametrize("q, limit", [(2**64, 640), (10**700, 0)], ids=["2**64", "10**700"])
    def test_walk_at_any_scale(self, q, limit):
        # d = 6 and q past a machine word, or with more digits than the
        # lowest limit the interpreter allows: the walk still writes and
        # checks every policy schedule
        inst = make_instance(
            F(1, q), [(1, 1, 0), (2, F(1, 2), 1), (3, F(1, 3), F(5, 2)), (4, 2, 0)]
        )
        with digit_limit(limit):
            for choice in SchedulerChoice:
                record = run(inst, choice)
                text = solve_document(record)
                assert text == reference.solve_document(inst, record.order)
                fast = _canonical_eval(json.loads(text), inst)
                assert fast is not None
                assert _dumps(fast) == reference.eval_document(text, inst)


class TestTotalRoutes:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        inst=instances(max_n=8, beta_strategy=st.sampled_from([F(1, 2), F(1, 3)])),
    )
    def test_denominators_that_form_no_chain(self, data, inst):
        # rational alphas and releases, delays of k/7 and k/5: the
        # completions' denominators do not each divide the next
        order = data.draw(st.permutations([job.id for job in inst.jobs]))
        delays = {k: F(k + 1, 7 if k % 2 else 5) for k in range(inst.n)}
        for given_starts in (None, delayed_starts(inst, order, delays)):
            starts, completions, _ = reference.timeline(inst, order, given_starts)
            assert evaluate(inst, Schedule(order, starts)).total_completion == reference.total(completions)

    def test_long_horizon_regime(self):
        inst = generate(
            FamilySpec(family=Family.RANDOM, n=200, beta=F(1, 1600), seed=5, r_max=800)
        )
        for choice in SchedulerChoice:
            order = run(inst, choice).order
            starts, completions, _ = reference.timeline(inst, order)
            assert evaluate(inst, Schedule(order, starts)).total_completion == reference.total(completions)


def assert_same_instance_routes(text: str) -> None:
    assert outcome(parse_instance, text) == outcome(reference.parse_instance, text)


# values of up to 640 digits, the limit the writer tests lower the
# interpreter's to
_near_limit = st.integers(10**639, 10**640 - 1)
_written_values = small_rationals | st.builds(F, _near_limit, st.sampled_from([1, 7, 10**639 + 1]))


@st.composite
def written_instances(draw):
    ids = draw(st.lists(st.integers(1, 9) | _near_limit, min_size=1, max_size=5, unique=True))
    beta = draw(instance_betas | st.builds(F, _near_limit, st.just(3)))
    return Instance(beta, tuple(Job(i, draw(_written_values), draw(_written_values)) for i in ids))


# How a job document of a written instance is changed; a text mutation
# replaces the value of the drawn key.
_TEXTS = {"zero": "0", "leading-zero": "07", "non-ascii": "\u0663", "past-limit": "7" * 4301}


def mutated(job: dict, how: str, key: str) -> object:
    if how == "bool-id":
        return {**job, "id": True}
    if how == "float-id":
        return {**job, "id": float(job.get("id", 1))}
    if how == "missing":
        return {k: v for k, v in job.items() if k != key}
    if how == "extra":
        return {**job, "note": key}
    if how == "not-a-dict":
        return list(job.values())
    return {**job, key: _TEXTS[how]}


@st.composite
def integer_instances(draw):
    """Instances of integers, ids and values up to 640 digits, one job or
    up to 40, whose alphas and releases come from a pool of at most five
    values, so most of them repeat."""
    ids = draw(st.lists(st.integers(1, 10**6) | _near_limit, min_size=1, max_size=40, unique=True))
    pool = st.sampled_from(draw(st.lists(st.integers(0, 30) | _near_limit, min_size=1, max_size=5)))
    return Instance(draw(instance_betas), tuple(Job(i, draw(pool), draw(pool)) for i in ids))


# Edits of a well-formed job list, (position, key, value) with None for a
# removed field, that the column pass must leave to the field-by-field loop.
_COLUMN_EXITS = {
    "plus-sign": [(2, "release", "+1")],
    "space": [(2, "alpha", " 1")],
    "underscore": [(2, "release", "1_0")],
    "arabic-indic-digit": [(2, "alpha", "\u0661")],
    "empty": [(2, "release", "")],
    "leading-zero": [(2, "alpha", "007")],
    "bool-id": [(2, "id", True)],
    "float-id": [(2, "id", 3.0)],
    "past-the-digit-limit": [(2, "release", "7" * 4301)],
    "bad-text-before-missing-field": [(2, "alpha", "x"), (6, "release", None)],
}


class TestInstanceRoutes:
    @settings(max_examples=150, deadline=None)
    @given(inst=written_instances())
    def test_written_bytes(self, inst):
        with digit_limit(640):
            text = write_instance(inst)
            assert text == reference.write_instance(inst)
            assert parse_instance(text) == inst

    @settings(max_examples=150, deadline=None)
    @given(inst=integer_instances())
    def test_integer_instances_take_the_column_pass(self, inst):
        with digit_limit(640):
            text = write_instance(inst)
            assert text == reference.write_instance(inst)
            assert _columns(json.loads(text)["jobs"]) == reference.keys(inst)
            assert parse_instance(text) == reference.parse_instance(text) == inst

    @pytest.mark.parametrize("edits", _COLUMN_EXITS.values(), ids=_COLUMN_EXITS.keys())
    def test_column_pass_exits(self, edits):
        jobs = [{"id": i, "alpha": str(i % 3 + 1), "release": str(5 * i)} for i in range(1, 8)]
        assert _columns(jobs) is not None
        for k, key, value in edits:
            if value is None:
                del jobs[k][key]
            else:
                jobs[k][key] = value
        text = json.dumps({"beta": "1/2", "jobs": jobs})
        with digit_limit(4300):
            assert _columns(json.loads(text)["jobs"]) is None
            assert_same_instance_routes(text)

    @settings(max_examples=100, deadline=None)
    @given(inst=instances(max_n=1, beta_strategy=instance_betas))
    def test_one_job(self, inst):
        assert write_instance(inst) == reference.write_instance(inst)

    # a value of 640 digits is written, one of 641 (at the bound 10**640
    # or above it) refused, naming the first such field in document order:
    # the field below, alone or before the same value as the last release
    @pytest.mark.parametrize("later", [False, True], ids=["alone", "before-a-later-release"])
    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("field", ["beta", "beta-denominator", "jobs[1].id", "jobs[1].alpha", "jobs[1].release"])
    def test_integer_values_at_the_digit_bound(self, field, offset, later):
        value = 10**640 + offset
        beta = {"beta": F(value), "beta-denominator": F(1, value)}.get(field, F(1, 2))
        job = {"id": 4, "alpha": 1, "release": 0}
        if field.startswith("jobs[1]."):
            job[field.removeprefix("jobs[1].")] = value
        inst = Instance(beta, (Job(7, 3, 5), Job(**job), Job(2, 3, value if later else 6)))
        assert reference.time_scale(inst) == 1
        with digit_limit(640):
            if offset < 0:
                assert write_instance(inst) == reference.write_instance(inst)
                return
            with pytest.raises(SchedulingError) as caught:
                write_instance(inst)
        assert type(caught.value) is SchedulingError
        assert str(caught.value) == (
            f"{field.removesuffix('-denominator')}: cannot write a {value.bit_length()}-bit value: "
            "it passes the limit of 640 digits for integer string conversion"
        )

    def test_long_horizon_instance(self):
        inst = generate(
            FamilySpec(family=Family.RANDOM, n=1600, beta=F(1, 1600), seed=5, r_max=6400)
        )
        text = write_instance(inst)
        assert text == reference.write_instance(inst)
        assert _columns(json.loads(text)["jobs"]) == reference.keys(inst)
        assert parse_instance(text) == reference.parse_instance(text) == inst

    @settings(max_examples=300, deadline=None)
    @given(text=instance_docs.map(doc_text))
    def test_fuzzed_documents(self, text):
        assert_same_instance_routes(text)

    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        inst=instances(max_n=5, beta_strategy=instance_betas),
        how=st.lists(
            st.sampled_from(["bool-id", "float-id", "missing", "extra", "not-a-dict", *_TEXTS]),
            min_size=1,
            max_size=3,
        ),
    )
    def test_mutated_documents(self, data, inst, how):
        doc = json.loads(write_instance(inst))
        for change in how:
            k = data.draw(st.integers(0, inst.n - 1))
            key = data.draw(st.sampled_from(["id", "alpha", "release"]))
            if isinstance(doc["jobs"][k], dict):
                doc["jobs"][k] = mutated(doc["jobs"][k], change, key)
        assert_same_instance_routes(json.dumps(doc))

    @pytest.mark.parametrize("digits", [639, 640, 641])
    @pytest.mark.parametrize("key", ["alpha", "release"])
    def test_texts_at_a_lowered_digit_limit(self, digits, key):
        job = {"id": 2, "alpha": "1", "release": "0", key: "7" * digits}
        text = json.dumps({"beta": "1", "jobs": [{"id": 1, "alpha": "1", "release": "0"}, job]})
        with digit_limit(640):
            assert_same_instance_routes(text)
            if digits > 640:
                with pytest.raises(ParseError, match=rf"^jobs\[1\]\.{key}: 641 digits exceed"):
                    parse_instance(text)


# Instance documents the record route must read as the job route does:
# digit texts, p/q texts (so d > 1, some not in lowest terms, some with
# leading zeros), drawn from a small pool so that texts repeat and
# releases tie, on unsorted ids.
_record_texts = st.one_of(
    st.integers(0, 40).map(str),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 40), st.integers(1, 12)),
    st.sampled_from(["007", "12/08", "0/5"]),
)


@st.composite
def record_docs(draw):
    ids = draw(st.lists(st.integers(1, 10**6), min_size=1, max_size=8, unique=True))
    pool = draw(st.lists(_record_texts, min_size=1, max_size=4))
    jobs = [
        {"id": jid, "alpha": draw(st.sampled_from(pool)), "release": draw(st.sampled_from(pool))}
        for jid in ids
    ]
    beta = draw(st.sampled_from(["1", "1/2", "3/2", "2/4", "1/1600", "7"]))
    return json.dumps({"beta": beta, "jobs": jobs})


class TestRecordRoute:
    """``parse_instance`` builds the instance from its integer record, and
    the random generators from their draws; the references build it from
    per-text or per-draw Fractions and Jobs."""

    @settings(max_examples=300, deadline=None)
    @given(text=record_docs())
    def test_parsed_record_matches_the_job_route(self, text):
        inst, ref = parse_instance(text), reference.parse_instance(text)
        assert inst.jobs == ref.jobs
        assert inst == ref
        assert hash(inst) == hash(ref)
        assert repr(inst) == repr(ref)
        assert write_instance(inst) == write_instance(ref) == reference.write_instance(ref)

    # each document's outcome at the parent of the record route
    @pytest.mark.parametrize(
        "jobs, error, message",
        [
            (
                [{"id": -1, "alpha": "1", "release": "0"}, {"id": 2, "alpha": "x", "release": "0"}],
                ParseError,
                "jobs[1].alpha: 'x' is not 'p' or 'p/q' in decimal digits",
            ),
            (
                [{"id": 3, "alpha": "1", "release": "0"}, {"id": 3, "alpha": "2", "release": "1"}],
                DuplicateId,
                "job id 3 occurs more than once",
            ),
            (
                [{"id": 1, "alpha": "1", "release": "0"}, {"id": 1, "alpha": "1", "release": "0"},
                 {"id": 2, "alpha": "-1", "release": "0"}],
                DuplicateId,
                "job id 1 occurs more than once",
            ),
            (
                [{"id": 1, "alpha": "-1", "release": "0"}],
                NegativeParameter,
                "job 1: alpha must be >= 0, got -1",
            ),
            (
                [{"id": 1, "alpha": "1/3", "release": "-3/6"}],
                NegativeParameter,
                "job 1: release must be >= 0, got -1/2",
            ),
            (
                [{"id": -1, "alpha": "1", "release": "0"}],
                NegativeParameter,
                "job id must be a positive integer, got -1",
            ),
            (
                [{"id": 1, "alpha": "1", "release": "1.5"}],
                ParseError,
                "jobs[0].release: '1.5' is not 'p' or 'p/q' in decimal digits",
            ),
            (
                [{"id": 1, "alpha": "1", "release": "0"}, {"id": True, "alpha": "1", "release": "0"}],
                ParseError,
                "jobs[1].id: expected an integer",
            ),
        ],
        ids=[
            "negative-id-then-bad-text",
            "duplicate-id",
            "duplicate-before-negative",
            "minus-one",
            "negative-p-over-q",
            "negative-id",
            "decimal-point",
            "bool-id",
        ],
    )
    def test_refusals(self, jobs, error, message):
        text = json.dumps({"beta": "1/2", "jobs": jobs})
        assert outcome(parse_instance, text) == outcome(reference.parse_instance, text) == (error, message)

    @pytest.mark.parametrize("family", [Family.RANDOM, Family.TWO_RELEASE])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_drawn_record_matches_the_job_route(self, family, seed):
        spec = FamilySpec(family=family, n=40, beta=F(1, 40), seed=seed, alpha_max=6, r_max=9)
        inst, ref = generate(spec), reference.generate(spec)
        assert inst == ref
        assert inst.jobs == ref.jobs
        assert write_instance(inst) == reference.write_instance(ref)


# The random families' bounds: widths at and next to powers of two, up
# to past a machine word, and small ints; 0 still draws one bit a value.
_draw_bounds = st.sampled_from([0, 1, 2, 3, 7, 8, 2**31 - 1, 2**31, 2**70]) | st.integers(0, 20)


@st.composite
def random_family_specs(draw):
    family = draw(st.sampled_from([Family.RANDOM, Family.TWO_RELEASE]))
    low = 2 if family is Family.TWO_RELEASE else 1
    return FamilySpec(
        family=family,
        n=draw(st.integers(low, 60)),
        beta=F(1, 3),
        seed=draw(st.integers(0, 2**64)),
        alpha_max=draw(_draw_bounds),
        r_max=draw(_draw_bounds.filter(lambda r: r >= low - 1)),
    )


class TestDrawStream:
    """The generators draw with ``getrandbits``; the reference draws with
    ``randint`` and ``randrange``.  Both must give the same record."""

    @settings(max_examples=300, deadline=None)
    @given(spec=random_family_specs())
    def test_same_record_as_randint(self, spec):
        assert generate(spec) == reference.generate(spec)

    # at n = 2 a quarter of the seeds draw two late flags and a quarter
    # none, so both flips of the two-release family are drawn
    @pytest.mark.parametrize("n", [2, 3])
    def test_two_release_flips(self, n):
        for seed in range(40):
            spec = FamilySpec(family=Family.TWO_RELEASE, n=n, beta=F(1), seed=seed, alpha_max=7, r_max=3)
            assert generate(spec) == reference.generate(spec)

    # the long-horizon benchmark's instance and the sha256 of its document
    @pytest.mark.parametrize(
        "seed, digest",
        [
            (5, "01e0ef43503246f32544517dd8afbc3b8b4a2f91d763252eb070aa063564a58d"),
            (11, "c51a33c613364e13de903ea4eca97cb22c4396796e8a93b7fe75c0fbac9d420d"),
        ],
        ids=["seed-5", "seed-11"],
    )
    def test_long_horizon_draws(self, seed, digest):
        spec = FamilySpec(family=Family.RANDOM, n=1600, beta=F(1, 1600), seed=seed, r_max=6400)
        inst = generate(spec)
        assert inst == reference.generate(spec)
        text = write_instance(inst)
        assert text == reference.write_instance(inst)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


@st.composite
def experiment_rows(draw):
    """The rows of a small sweep over any family and objective, with an
    oracle cap that may blank some trials' ratios and with timings drawn
    too; then some rows' ratios replaced while their value objects are
    kept, and some rows copied with another algorithm name."""
    family = draw(st.sampled_from(list(Family)))
    objective = draw(st.sampled_from(list(Objective)))
    n_min = draw(st.integers(2 if family is Family.TWO_RELEASE else 1, 3))
    rows = run_experiment(
        ExperimentConfig(
            family=family,
            trials=draw(st.integers(0, 4)),
            n_min=n_min,
            n_max=n_min + draw(st.integers(0, 2)),
            betas=tuple(draw(st.lists(st.sampled_from([F(1, 3), F(1, 2), F(1), F(2)]), min_size=1, max_size=3))),
            seed=draw(st.integers(0, 50)),
            algorithms=tuple(draw(st.permutations(list(SchedulerChoice)))[: draw(st.integers(1, 4))]),
            objective=objective,
            max_bruteforce_n=draw(st.integers(0, 6)),
            timings=draw(st.booleans()),
        )
    )
    if rows:
        index = st.integers(0, len(rows) - 1)
        for i in draw(st.lists(index, max_size=4)):
            ratio = draw(st.one_of(st.none(), small_rationals, st.just(rows[i].ratio)))
            rows[i] = dataclasses.replace(rows[i], ratio=ratio)
        for i in draw(st.lists(index, max_size=2)):
            rows.insert(i, dataclasses.replace(rows[i], algorithm="copy"))
    return rows


class TestCsvRoutes:
    @settings(max_examples=150, deadline=None)
    @given(rows=experiment_rows())
    def test_same_bytes(self, rows):
        assert write_csv(rows) == reference.write_csv(rows)

    def test_quoted_cells(self):
        # the csv module quotes a cell that needs it, on both routes
        rows = run_experiment(
            ExperimentConfig(
                family=Family.RANDOM, trials=2, n_min=3, n_max=3, betas=(F(1),), seed=1,
                algorithms=(SchedulerChoice.ECTF, SchedulerChoice.NON_IDLING),
            )
        )
        rows[1] = dataclasses.replace(rows[1], algorithm='a "quoted", name', family="x\ny")
        text = write_csv(rows)
        assert text == reference.write_csv(rows)
        assert '"a ""quoted"", name"' in text and '"x\ny"' in text
