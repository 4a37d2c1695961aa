"""The schedule parse route, the decimal walk behind ``solve`` and
``eval``, the per-denominator total and the instance reader and writer
against the routes they replaced, which are kept here as references.

``reference_parse_schedule`` parses every start, then checks the schedule
with :func:`evaluate`; ``reference_eval_document`` writes every value of
the report with :func:`format_rationals`; ``reference_solve_document``
writes a policy run's Fraction schedule with :func:`write_schedule`;
``reference_total`` sums the completions over the common denominator of
them all.  ``reference_write_instance`` writes through
``json.dumps(indent=2)``, and ``reference_parse_instance`` checks and
parses every job document field by field into Fraction jobs;
``reference_generate`` draws the random families' jobs as Fractions.  The
library's route, which builds the instance from its integer record, must
give the same schedule, instance and output bytes, or the same exception
type and text, on every document.
"""

from __future__ import annotations

import decimal
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    Family,
    FamilySpec,
    Instance,
    Job,
    Objective,
    Schedule,
    SchedulerChoice,
    canonical_starts,
    evaluate,
    generate,
    optimum,
    parse_instance,
    parse_schedule,
    run,
    write_instance,
    write_schedule,
)
from detsched.model import DuplicateId, NegativeParameter, SchedulingError
from detsched.serialization import (
    ParseError,
    _canonical_eval,
    _dumps,
    _eval_report,
    _loads,
    _write_run,
    format_rational,
    format_rationals,
    parse_rational,
)

from conftest import delayed_starts, digit_limit, doc_text, instance_docs, instances, make_instance, small_rationals

F = Fraction


def reference_parse_schedule(text: str, instance: Instance) -> Schedule:
    """Every start parsed, then the whole schedule checked by evaluate."""
    doc = _loads(text, "schedule")
    if not isinstance(doc, dict):
        raise ParseError("schedule: top level must be an object")
    if "order" not in doc:
        raise ParseError("schedule: missing field 'order'")
    order_doc = doc["order"]
    if not isinstance(order_doc, list) or not all(
        isinstance(x, int) and not isinstance(x, bool) for x in order_doc
    ):
        raise ParseError("order: expected an array of integers")
    order = tuple(order_doc)
    if "starts" not in doc or doc["starts"] is None:
        return canonical_starts(instance, order)
    starts_doc = doc["starts"]
    if not isinstance(starts_doc, list):
        raise ParseError("starts: expected an array")
    if len(starts_doc) != len(order):
        raise ParseError(
            f"starts: {len(starts_doc)} entries for {len(order)} order positions"
        )
    starts = tuple(
        parse_rational(s, f"starts[{i}]") for i, s in enumerate(starts_doc)
    )
    schedule = Schedule(order, starts)
    evaluate(instance, schedule)
    return schedule


def reference_total(completions) -> Fraction:
    common = math.lcm(*(c.denominator for c in completions))
    return Fraction(sum(c.numerator * (common // c.denominator) for c in completions), common)


def reference_eval_document(text: str, instance: Instance) -> dict:
    schedule = reference_parse_schedule(text, instance)
    report = evaluate(instance, schedule)
    return {
        "order": list(schedule.order),
        "starts": format_rationals(report.starts, "starts"),
        "completions": format_rationals(report.completions, "completions"),
        "gaps": format_rationals(report.gaps, "gaps"),
        "makespan": format_rational(report.makespan, "makespan"),
        "total_completion": format_rational(reference_total(report.completions), "total_completion"),
    }


def eval_document(text: str, instance: Instance) -> dict:
    return _eval_report(text, instance)


def reference_solve_document(record) -> str:
    return write_schedule(record.schedule)


def outcome(route, *args):
    """What ``route`` gives: its result, or its exception's type and text."""
    try:
        return route(*args)
    except SchedulingError as exc:
        return type(exc), str(exc)


def assert_same_routes(text: str, instance: Instance) -> None:
    assert outcome(parse_schedule, text, instance) == outcome(reference_parse_schedule, text, instance)
    assert outcome(eval_document, text, instance) == outcome(reference_eval_document, text, instance)


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
        assert canonical_starts(inst, (1, 2, 3)).starts == (F(3, 2), F(3), F(15, 2))
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
        earliest = canonical_starts(inst, tuple(range(1, n + 1))).starts
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


class TestWalkRoutes:
    """``solve`` and ``eval`` write policy schedules from the decimal walk;
    the Fraction routes are the references."""

    @settings(max_examples=150, deadline=None)
    @given(inst=walk_instances(), choice=st.sampled_from(list(SchedulerChoice)), limit=st.sampled_from([640, 0]))
    def test_solve_document(self, inst, choice, limit):
        record = run(inst, choice)
        with digit_limit(limit):
            assert outcome(_write_run, record) == outcome(reference_solve_document, record)

    @settings(max_examples=150, deadline=None)
    @given(inst=walk_instances(), choice=st.sampled_from(list(SchedulerChoice)), limit=st.sampled_from([640, 0]))
    def test_eval_document(self, inst, choice, limit):
        with digit_limit(0):
            text = write_schedule(run(inst, choice).schedule)
        with digit_limit(limit):
            report = outcome(lambda: _dumps(_eval_report(text, inst)))
            assert report == outcome(lambda: _dumps(reference_eval_document(text, inst)))
            fast = outcome(_canonical_eval, json.loads(text), inst)
        if not limit:
            # the canonical texts of a canonical schedule take the fast route
            assert _dumps(fast) == report

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
            text = _write_run(record)
            assert text == reference_solve_document(record)
            report = _dumps(_eval_report(text, inst))
            assert report == _dumps(reference_eval_document(text, inst))
            assert _canonical_eval(json.loads(text), inst) is not None
            # the walk never uses the thread's decimal context
            with decimal.localcontext() as hostile:
                hostile.prec = 1
                hostile.Emax = 1
                hostile.traps[decimal.Inexact] = True
                hostile.traps[decimal.Rounded] = True
                assert _write_run(record) == text
                assert _dumps(_canonical_eval(json.loads(text), inst)) == report

    @pytest.mark.parametrize("release", [10**640 - 1, 10**640])
    def test_start_at_the_digit_bound(self, release):
        # a start of 640 digits is written, and one of 641 refused
        inst = make_instance(1, [(1, 1, release), (2, 1, 0)])
        record = run(inst, SchedulerChoice.NON_IDLING)
        with digit_limit(640):
            assert outcome(_write_run, record) == outcome(reference_solve_document, record)
            assert isinstance(outcome(_write_run, record), str) == (release < 10**640)

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
                text = _write_run(record)
                assert text == reference_solve_document(record)
                fast = _canonical_eval(json.loads(text), inst)
                assert fast is not None
                assert _dumps(fast) == _dumps(reference_eval_document(text, inst))


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
        for schedule in (
            canonical_starts(inst, order),
            Schedule(order, delayed_starts(inst, order, delays)),
        ):
            report = evaluate(inst, schedule)
            assert report.total_completion == reference_total(report.completions)

    def test_long_horizon_regime(self):
        inst = generate(
            FamilySpec(family=Family.RANDOM, n=200, beta=F(1, 1600), seed=5, r_max=800)
        )
        for choice in SchedulerChoice:
            report = evaluate(inst, run(inst, choice).schedule)
            assert report.total_completion == reference_total(report.completions)


def reference_write_instance(instance: Instance) -> str:
    doc = {
        "beta": format_rational(instance.beta),
        "jobs": [
            {
                "id": job.id,
                "alpha": format_rational(job.alpha),
                "release": format_rational(job.release),
            }
            for job in instance.jobs
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_parse_instance(text: str) -> Instance:
    """Every job document checked, then parsed, field by field."""
    doc = _loads(text, "instance")
    if not isinstance(doc, dict):
        raise ParseError("instance: top level must be an object")
    if "beta" not in doc:
        raise ParseError("instance: missing field 'beta'")
    if "jobs" not in doc:
        raise ParseError("instance: missing field 'jobs'")
    beta = parse_rational(doc["beta"], "beta")
    jobs_doc = doc["jobs"]
    if not isinstance(jobs_doc, list):
        raise ParseError("jobs: expected an array")
    jobs = []
    for idx, job_doc in enumerate(jobs_doc):
        if not isinstance(job_doc, dict):
            raise ParseError(f"jobs[{idx}]: expected an object")
        for key in ("id", "alpha", "release"):
            if key not in job_doc:
                raise ParseError(f"jobs[{idx}]: missing field '{key}'")
        jid = job_doc["id"]
        if not isinstance(jid, int) or isinstance(jid, bool):
            raise ParseError(f"jobs[{idx}].id: expected an integer")
        alpha = reference_job_value(job_doc, idx, "alpha")
        release = reference_job_value(job_doc, idx, "release")
        jobs.append(Job(jid, alpha, release))
    return Instance(beta, tuple(jobs))


def reference_job_value(job_doc: dict, idx: int, key: str) -> Fraction:
    """A text of ASCII digits only goes straight to an int; any other
    text, or one past the digit limit, goes through parse_rational."""
    text = job_doc[key]
    if isinstance(text, str) and text.isascii() and text.isdigit():
        try:
            return Fraction(int(text))
        except ValueError:  # the interpreter's limit on digits per conversion
            pass
    return parse_rational(text, f"jobs[{idx}].{key}")


def assert_same_instance_routes(text: str) -> None:
    assert outcome(parse_instance, text) == outcome(reference_parse_instance, text)


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


class TestInstanceRoutes:
    @settings(max_examples=150, deadline=None)
    @given(inst=written_instances())
    def test_written_bytes(self, inst):
        with digit_limit(640):
            text = write_instance(inst)
            assert text == reference_write_instance(inst)
            assert parse_instance(text) == inst

    @settings(max_examples=100, deadline=None)
    @given(inst=instances(max_n=1, beta_strategy=instance_betas))
    def test_one_job(self, inst):
        assert write_instance(inst) == reference_write_instance(inst)

    def test_long_horizon_instance(self):
        inst = generate(
            FamilySpec(family=Family.RANDOM, n=1600, beta=F(1, 1600), seed=5, r_max=6400)
        )
        text = write_instance(inst)
        assert text == reference_write_instance(inst)
        assert parse_instance(text) == reference_parse_instance(text) == inst

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
        inst, ref = parse_instance(text), reference_parse_instance(text)
        assert inst._prepared == ref._prepared
        assert inst.jobs == ref.jobs
        assert inst == ref
        assert hash(inst) == hash(ref)
        assert repr(inst) == repr(ref)
        assert write_instance(inst) == write_instance(ref) == reference_write_instance(ref)

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
        assert outcome(parse_instance, text) == outcome(reference_parse_instance, text) == (error, message)

    @pytest.mark.parametrize("family", [Family.RANDOM, Family.TWO_RELEASE])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_drawn_record_matches_the_job_route(self, family, seed):
        spec = FamilySpec(family=family, n=40, beta=F(1, 40), seed=seed, alpha_max=6, r_max=9)
        inst, ref = generate(spec), reference_generate(spec)
        assert inst._prepared == ref._prepared
        assert inst.jobs == ref.jobs
        assert write_instance(inst) == reference_write_instance(ref)


def reference_generate(spec: FamilySpec) -> Instance:
    """The random families' jobs as Fractions, drawn as the generators
    draw them: per job its fixed part, then its release; or every fixed
    part, then every late flag, and one flag flipped if all agree."""
    rng = random.Random(spec.seed)
    if spec.family is Family.RANDOM:
        jobs = []
        for i in range(1, spec.n + 1):
            alpha = F(rng.randint(0, spec.alpha_max))
            jobs.append(Job(i, alpha, F(rng.randint(0, spec.r_max))))
        return Instance(spec.beta, jobs)
    alphas = [rng.randint(0, spec.alpha_max) for _ in range(spec.n)]
    late = [rng.randint(0, 1) for _ in range(spec.n)]
    if not any(late):
        late[rng.randrange(spec.n)] = 1
    elif all(late):
        late[rng.randrange(spec.n)] = 0
    return Instance(
        spec.beta,
        [Job(i + 1, F(alphas[i]), F(spec.r_max if late[i] else 0)) for i in range(spec.n)],
    )
