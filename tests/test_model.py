"""Core model: validation, canonical schedules, exact evaluation, and
the two makespan formulas.

Expected numbers in the fixed cases were worked out by hand simulation
of the completion law C = alpha + (1+beta)s before the implementation
existed; they are frozen here on purpose.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    BoundingSets,
    EvalReport,
    ExperimentConfig,
    Family,
    FamilySpec,
    Instance,
    InvalidArgument,
    Job,
    Pseudomatching,
    Schedule,
    SchedulerChoice,
    SchedulingError,
    canonical_starts,
    ectf,
    evaluate,
    fixed_cost_identity,
    generate,
    makespan_closed_form,
    non_idling,
    non_interfering,
    sorted_subset_cost,
    validate_instance,
    verify_rho_pm,
)
from detsched.model import (
    BetaNonPositive,
    DuplicateId,
    EmptyInstance,
    InfeasibleSchedule,
    NegativeParameter,
    NotAPermutation,
    UnknownJobId,
    ZERO,
    rational,
)

from conftest import instances, make_instance

F = Fraction

# every entry point that takes a schedule's start times and must check them
CHECKED_ENTRY_POINTS = (evaluate, makespan_closed_form, fixed_cost_identity)


class TestValidation:
    def test_minimal_instance_passes(self):
        inst = make_instance(1, [(1, 2, 0)])
        assert validate_instance(inst) is inst

    def test_beta_zero_rejected(self):
        with pytest.raises(BetaNonPositive):
            make_instance(0, [(1, 2, 0)])

    def test_beta_negative_rejected(self):
        with pytest.raises(BetaNonPositive):
            make_instance(-1, [(1, 2, 0)])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DuplicateId):
            make_instance(1, [(1, 2, 0), (1, 3, 0)])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInstance):
            validate_instance(Instance(F(1), ()))

    def test_negative_alpha_rejected(self):
        with pytest.raises(NegativeParameter):
            make_instance(1, [(1, -1, 0)])

    def test_negative_release_rejected(self):
        with pytest.raises(NegativeParameter):
            make_instance(1, [(1, 1, -2)])

    def test_nonpositive_id_rejected(self):
        with pytest.raises(NegativeParameter):
            make_instance(1, [(0, 1, 0)])

    @pytest.mark.parametrize("bad_id", [True, False, F(1), "1", 1.0])
    def test_non_int_id_rejected(self, bad_id):
        # True == 1 and F(1) == 1, but neither is an integer id
        with pytest.raises(NegativeParameter):
            validate_instance(Instance(F(1), (Job(bad_id, F(1), F(0)),)))

    @pytest.mark.parametrize(
        ("beta", "jobs", "error"),
        [
            (F(1), (), EmptyInstance),
            (F(0), ((1, 1, 0),), BetaNonPositive),
            (F(1), ((1, -1, 0),), NegativeParameter),
            (F(1), ((1, 1, -1),), NegativeParameter),
            (F(1), ((0, 1, 0),), NegativeParameter),
            (F(1), ((1, 1, 0), (1, 2, 0)), DuplicateId),
        ],
    )
    def test_invalid_instance_raises_when_built(self, beta, jobs, error):
        # no validate_instance call: construction alone must refuse it
        with pytest.raises(error):
            Instance(beta, tuple(Job(i, F(a), F(r)) for i, a, r in jobs))

    @pytest.mark.parametrize(
        ("beta", "job", "message"),
        [
            (F(-1), (1, 1, 0), "beta must be > 0, got -1"),
            (F(1), (1, F(-1, 2), 0), "job 1: alpha must be >= 0, got -1/2"),
            (F(1), (1, 1, -2), "job 1: release must be >= 0, got -2"),
            (F(-(10**5000)), (1, 1, 0), "beta must be > 0, got a 16610-bit value"),
            (F(1), (1, -(10**5000), 0), "job 1: alpha must be >= 0, got a 16610-bit value"),
            (F(1), (1, 1, F(-1, 10**5000)), "job 1: release must be >= 0, got a 16610-bit value"),
        ],
    )
    def test_validation_messages(self, beta, job, message):
        # a value whose digits pass the interpreter's limit is named by size
        with pytest.raises((BetaNonPositive, NegativeParameter)) as caught:
            Instance(beta, (Job(*job),))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("jobs", "error", "message"),
        [
            (
                (Job(-(10**5000), 1, 0),),
                NegativeParameter,
                "job id must be a positive integer, got a 16610-bit value",
            ),
            (
                (Job(10**5000, 1, 0), Job(10**5000, 2, 0)),
                DuplicateId,
                "job id a 16610-bit value occurs more than once",
            ),
        ],
        ids=["negative", "duplicate"],
    )
    def test_ids_past_the_digit_limit(self, jobs, error, message):
        # the typed error, not the interpreter's ValueError for str(id)
        with pytest.raises(error) as caught:
            Instance(F(1), jobs)
        assert str(caught.value) == message

    def test_unknown_id_past_the_digit_limit(self):
        with pytest.raises(UnknownJobId, match="^no job with id a 16610-bit value$"):
            make_instance(1, [(1, 1, 0)]).job(10**5000)

    def test_zero_alpha_allowed(self):
        # the estimate-first adversarial family needs alpha = 0 jobs
        make_instance(1, [(1, 0, 0)])

    def test_floats_rejected_at_construction(self):
        with pytest.raises(TypeError) as caught:
            Job(1, 0.5, F(0))
        assert isinstance(caught.value, SchedulingError)
        with pytest.raises(TypeError) as caught:
            rational(0.5)
        assert isinstance(caught.value, SchedulingError)

    def test_bools_rejected(self):
        with pytest.raises(TypeError) as caught:
            rational(True)
        assert isinstance(caught.value, SchedulingError)


class TestCanonicalStarts:
    def test_gap_after_first_job(self):
        # j1 runs [0,1); j2 released at 3 > 1, starts 3, completes 1+2*3=7
        inst = make_instance(1, [(1, 1, 0), (2, 1, 3)])
        sched = canonical_starts(inst, (1, 2))
        assert sched.starts == (F(0), F(3))
        report = evaluate(inst, sched)
        assert report.completions == (F(1), F(7))

    def test_back_to_back(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        sched = canonical_starts(inst, (1, 2))
        assert sched.starts == (F(0), F(1))
        assert evaluate(inst, sched).completions == (F(1), F(4))

    @given(
        alpha=st.integers(min_value=0, max_value=9),
        release=st.integers(min_value=0, max_value=9),
        beta=st.sampled_from([F(1, 2), F(1), F(2)]),
    )
    def test_single_job(self, alpha, release, beta):
        inst = make_instance(beta, [(1, alpha, release)])
        sched = canonical_starts(inst, (1,))
        assert sched.starts == (F(release),)
        assert evaluate(inst, sched).makespan == (1 + beta) * release + alpha

    def test_not_a_permutation(self):
        inst = make_instance(1, [(1, 1, 0), (2, 1, 0)])
        for bad in [(1,), (1, 1), (1, 2, 2), (1, 3)]:
            with pytest.raises(NotAPermutation):
                canonical_starts(inst, bad)


class TestEvaluate:
    def test_gap_example(self):
        inst = make_instance(1, [(1, 1, 0), (2, 1, 3)])
        report = evaluate(inst, canonical_starts(inst, (1, 2)))
        assert report.gaps == (F(0), F(2))
        assert report.makespan == F(7)
        assert report.total_completion == F(8)

    def test_reversed_order(self):
        # C1 = 2, C2 = 2*2 + 1 = 5
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        assert evaluate(inst, canonical_starts(inst, (2, 1))).makespan == F(5)

    def test_zero_job(self):
        inst = make_instance(3, [(1, 0, 0)])
        report = evaluate(inst, canonical_starts(inst, (1,)))
        assert report.makespan == F(0)
        assert report.total_completion == F(0)

    @pytest.mark.parametrize("entry", CHECKED_ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_start_before_release_infeasible(self, entry):
        inst = make_instance(1, [(1, 1, 2)])
        with pytest.raises(InfeasibleSchedule, match="before its release 2"):
            entry(inst, Schedule((1,), (F(1),)))

    @pytest.mark.parametrize("entry", CHECKED_ENTRY_POINTS, ids=lambda f: f.__name__)
    def test_start_before_predecessor_completion_infeasible(self, entry):
        inst = make_instance(1, [(1, 5, 0), (2, 1, 0)])
        # C1 = 5; starting j2 at 4 overlaps
        with pytest.raises(InfeasibleSchedule, match="before its predecessor completes at 5"):
            entry(inst, Schedule((1, 2), (F(0), F(4))))

    @pytest.mark.parametrize(
        ("jobs", "starts", "message"),
        [
            (
                [(10**5000, 1, 2)],
                (F(1),),
                "job a 16610-bit value starts at 1, before its release 2",
            ),
            (
                [(1, 5, 0), (10**5000, 1, 0)],
                (F(0), F(4)),
                "job a 16610-bit value starts at 4, before its predecessor completes at 5",
            ),
        ],
        ids=["release", "predecessor"],
    )
    def test_infeasible_id_past_the_digit_limit(self, jobs, starts, message):
        inst = make_instance(1, jobs)
        with pytest.raises(InfeasibleSchedule) as caught:
            evaluate(inst, Schedule(tuple(j[0] for j in jobs), starts))
        assert str(caught.value) == message

    def test_padded_feasible_starts_accepted(self):
        inst = make_instance(1, [(1, 1, 0), (2, 1, 0)])
        report = evaluate(inst, Schedule((1, 2), (F(0), F(10))))
        assert report.gaps == (F(0), F(9))
        assert report.makespan == F(21)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Schedule((1, 2), (F(0),))


class TestEvaluateSum:
    """``evaluate`` sums completions over their common denominator and
    takes an equal start and predecessor completion as a zero gap."""

    @settings(max_examples=200)
    @given(data=st.data(), inst=instances(max_n=8))
    def test_delayed_starts(self, data, inst):
        # Delaying position k by k/7 gives denominators unrelated to the
        # instance's, so the completions share no obvious common one.
        order = tuple(data.draw(st.permutations([job.id for job in inst.jobs])))
        jobs = inst.job_map()
        starts: list[Fraction] = []
        completions: list[Fraction] = []
        completion = ZERO
        for k, jid in enumerate(order):
            s = max(jobs[jid].release, completion) + F(k, 7)
            completion = jobs[jid].alpha + inst.growth * s
            starts.append(s)
            completions.append(completion)
        report = evaluate(inst, Schedule(order, tuple(starts)))
        assert report.completions == tuple(completions)
        assert report.total_completion == sum(completions, ZERO)
        previous = [ZERO] + completions[:-1]
        assert report.gaps == tuple(s - c for s, c in zip(starts, previous))
        values = (*report.completions, *report.gaps, report.makespan, report.total_completion)
        for value in values:
            assert type(value) is Fraction
            assert math.gcd(value.numerator, value.denominator) == 1

    def test_long_horizon_policies(self):
        inst = generate(
            FamilySpec(family=Family.RANDOM, n=1600, beta=F(1, 1600), seed=5, r_max=6400)
        )
        for policy in (non_idling, non_interfering, ectf):
            report = evaluate(inst, policy(inst))
            assert report.total_completion == sum(report.completions, ZERO)


class TestMakespanClosedForm:
    def test_gap_example(self):
        # 2^2*0 + 2^1*2 + (2*1 + 1) = 7
        inst = make_instance(1, [(1, 1, 0), (2, 1, 3)])
        assert makespan_closed_form(inst, canonical_starts(inst, (1, 2))) == F(7)

    def test_no_gaps(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        assert makespan_closed_form(inst, canonical_starts(inst, (1, 2))) == F(4)

    def test_all_zero(self):
        inst = make_instance(2, [(1, 0, 0), (2, 0, 0)])
        assert makespan_closed_form(inst, canonical_starts(inst, (1, 2))) == F(0)

    @settings(max_examples=200)
    @given(data=st.data(), inst=instances(max_n=6))
    def test_matches_simulation(self, data, inst):
        ids = [job.id for job in inst.jobs]
        order = tuple(data.draw(st.permutations(ids)))
        sched = canonical_starts(inst, order)
        assert makespan_closed_form(inst, sched) == evaluate(inst, sched).makespan

    @settings(max_examples=100)
    @given(data=st.data(), inst=instances(max_n=5), pad=st.integers(0, 5))
    def test_matches_simulation_with_padding(self, data, inst, pad):
        # also exact on schedules that idle beyond the canonical starts
        ids = [job.id for job in inst.jobs]
        order = tuple(data.draw(st.permutations(ids)))
        position = data.draw(st.integers(0, len(ids) - 1))
        sched = _pad_position(inst, order, position, F(pad))
        assert makespan_closed_form(inst, sched) == evaluate(inst, sched).makespan


def _pad_position(inst, order, position, delta):
    """Canonical schedule except position ``position`` starts ``delta`` late;
    later starts re-propagate."""
    jobs = inst.job_map()
    starts = []
    completion = F(0)
    for k, jid in enumerate(order):
        s = max(jobs[jid].release, completion)
        if k == position:
            s += delta
        starts.append(s)
        completion = jobs[jid].alpha + inst.growth * s
    return Schedule(tuple(order), tuple(starts))


class TestFixedCostIdentity:
    def test_two_jobs(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        lhs, rhs = fixed_cost_identity(inst, canonical_starts(inst, (1, 2)))
        assert lhs == rhs == F(4)

    def test_single_job(self):
        inst = make_instance(2, [(1, 7, 0)])
        lhs, rhs = fixed_cost_identity(inst, canonical_starts(inst, (1,)))
        assert lhs == rhs == F(7)

    def test_three_ones(self):
        # lhs = 4+2+1, rhs = 3 + 1*2^1*1 + 1*2^0*2
        inst = make_instance(1, [(1, 1, 0), (2, 1, 0), (3, 1, 0)])
        lhs, rhs = fixed_cost_identity(inst, canonical_starts(inst, (1, 2, 3)))
        assert lhs == rhs == F(7)

    @settings(max_examples=200)
    @given(data=st.data(), inst=instances(max_n=6))
    def test_sides_equal_everywhere(self, data, inst):
        ids = [job.id for job in inst.jobs]
        order = tuple(data.draw(st.permutations(ids)))
        lhs, rhs = fixed_cost_identity(inst, canonical_starts(inst, order))
        assert lhs == rhs


class TestTotalCompletion:
    def test_gap_example(self):
        inst = make_instance(1, [(1, 1, 0), (2, 1, 3)])
        assert evaluate(inst, canonical_starts(inst, (1, 2))).total_completion == F(8)

    def test_single_job(self):
        inst = make_instance(1, [(1, 6, 0)])
        assert evaluate(inst, canonical_starts(inst, (1,))).total_completion == F(6)

    def test_two_jobs_no_release(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        assert evaluate(inst, canonical_starts(inst, (1, 2))).total_completion == F(5)


class TestCanonicalMinimality:
    @settings(max_examples=200)
    @given(data=st.data(), inst=instances(max_n=5), pad=st.integers(1, 7))
    def test_padding_never_helps(self, data, inst, pad):
        ids = [job.id for job in inst.jobs]
        order = tuple(data.draw(st.permutations(ids)))
        position = data.draw(st.integers(0, len(ids) - 1))
        canonical = evaluate(inst, canonical_starts(inst, order))
        padded = evaluate(inst, _pad_position(inst, order, position, F(pad)))
        assert padded.makespan >= canonical.makespan
        assert padded.total_completion >= canonical.total_completion


class TestDeterminism:
    def test_evaluate_repeatable(self, two_job_instance):
        sched = canonical_starts(two_job_instance, (1, 2))
        a = evaluate(two_job_instance, sched)
        b = evaluate(two_job_instance, sched)
        assert a == b == EvalReport(
            starts=(F(0), F(5)),
            completions=(F(5), F(11)),
            gaps=(F(0), F(0)),
            makespan=F(11),
            total_completion=F(16),
        )


def _config(**overrides) -> ExperimentConfig:
    base = dict(
        family=Family.RANDOM, trials=1, n_min=1, n_max=1, betas=(F(1),), seed=0,
        algorithms=(SchedulerChoice.ECTF,),
    )
    return ExperimentConfig(**{**base, **overrides})


class TestInvalidArgumentIsTyped:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: Schedule((1, 2), (F(0),)),
            lambda: sorted_subset_cost(F(0), [F(1)], F(0)),
            lambda: sorted_subset_cost(F(1), [F(1)], F(-1)),
            lambda: sorted_subset_cost(F(1), [F(-1)], F(0)),
            lambda: _config(trials=-1),
            lambda: _config(n_min=0),
            lambda: _config(n_min=2, n_max=1),
            lambda: _config(betas=()),
            lambda: _config(algorithms=()),
            lambda: BoundingSets([F(1)], [F(1), F(2)], n=2, beta=F(1)),
            lambda: BoundingSets([F(1)], [F(1)], n=1, beta=F(0)),
            lambda: BoundingSets({2: F(1)}, {1: F(1)}, n=1, beta=F(1)),
            lambda: BoundingSets([F(0)], [F(1)], n=1, beta=F(1)),
            lambda: verify_rho_pm(
                BoundingSets([F(1)], [F(1)], n=1, beta=F(1)),
                Pseudomatching(((1, 1),)),
                F(1, 2),
            ),
        ],
    )
    def test_is_a_scheduling_error(self, call):
        with pytest.raises(InvalidArgument) as caught:
            call()
        assert isinstance(caught.value, SchedulingError)
        assert isinstance(caught.value, ValueError)
