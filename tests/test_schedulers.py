"""The four list schedulers and their pinned tie-breaking.

Fixed expected schedules were derived by hand-running each policy's
loop; the adversarial-family cases double as regression anchors for the
ratio experiments.
"""

from __future__ import annotations

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
    brute_force,
    canonical_starts,
    earliest_release_order,
    evaluate,
    generate,
    run,
    validate_instance,
)
from detsched import schedulers
from detsched.model import ZERO
from detsched.schedulers import SCHEDULERS, _loop

from conftest import betas, count_calls, instances, make_instance, small_rationals
from lemmas import is_interfering

F = Fraction

# the choices that run the policy loop, by value
LOOP_CHOICES = ["ectf", "non-idling", "non-interfering"]


# The O(n^2) loops the heap-based policies replaced, kept as the reference
# the event loops must match schedule for schedule, tie-breaks included.

def _greedy_key(job: Job) -> tuple[Fraction, Fraction, int]:
    return (job.alpha, job.release, job.id)


def _reference_non_idling(instance: Instance) -> Schedule:
    validate_instance(instance)
    g = instance.growth
    remaining = list(instance.jobs)
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while remaining:
        pending = [j for j in remaining if j.release <= t]
        if not pending:
            t = min(j.release for j in remaining)
            continue
        job = min(pending, key=_greedy_key)
        remaining.remove(job)
        order.append(job.id)
        starts.append(t)
        t = job.alpha + g * t
    return Schedule(tuple(order), tuple(starts))


def _reference_non_interfering(instance: Instance) -> Schedule:
    validate_instance(instance)
    g = instance.growth
    remaining = list(instance.jobs)
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while remaining:
        pending = [j for j in remaining if j.release <= t]
        if not pending:
            t = min(j.release for j in remaining)
            continue
        candidate = min(pending, key=_greedy_key)
        blocking = is_interfering(instance, candidate.id, t)
        if blocking is not None:
            # Jobs already started can never block: their releases are <= t.
            t = blocking
            continue
        remaining.remove(candidate)
        order.append(candidate.id)
        starts.append(t)
        t = candidate.alpha + g * t
    return Schedule(tuple(order), tuple(starts))


def _reference_ectf(instance: Instance) -> Schedule:
    validate_instance(instance)
    g = instance.growth
    remaining = list(instance.jobs)
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while remaining:
        def estimate_key(job: Job) -> tuple[Fraction, Fraction, int]:
            s = t if t > job.release else job.release
            return (g * s + job.alpha, job.alpha, job.id)

        job = min(remaining, key=estimate_key)
        remaining.remove(job)
        s = t if t > job.release else job.release
        order.append(job.id)
        starts.append(s)
        t = job.alpha + g * s
    return Schedule(tuple(order), tuple(starts))


REFERENCES = [
    (SchedulerChoice.NON_IDLING, _reference_non_idling),
    (SchedulerChoice.NON_INTERFERING, _reference_non_interfering),
    (SchedulerChoice.ECTF, _reference_ectf),
]


# Best-of-two as it was before the greedy loop returned its makespan: both
# loops, then an evaluation of each result, non-idling on a tie.

def _reference_best_of_two(instance: Instance) -> Schedule:
    a = run(instance, SchedulerChoice.NON_IDLING).schedule
    b = run(instance, SchedulerChoice.NON_INTERFERING).schedule
    if evaluate(instance, a).makespan <= evaluate(instance, b).makespan:
        return a
    return b


def _size_betas(n: int) -> st.SearchStrategy[Fraction]:
    return st.sampled_from([F(1, n), F(n)]) | betas


@st.composite
def tie_heavy_instances(draw):
    """Alphas and releases in {0..3} with shuffled ids, so every tie-break
    of both keys comes into play."""
    n = draw(st.integers(1, 12))
    beta = draw(_size_betas(n))
    ids = draw(st.permutations(range(1, n + 1)))
    jobs = tuple(Job(i, F(draw(st.integers(0, 3))), F(draw(st.integers(0, 3)))) for i in ids)
    return validate_instance(Instance(beta, jobs))


RATIONAL_GRID = [F(0), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2)]


@st.composite
def rational_tie_heavy_instances(draw):
    """Alphas and releases on a grid with denominators 1, 2 and 3 and ids
    shuffled: the policies' integer keys order these correctly only when
    scaled by the common denominator, and many of them tie."""
    n = draw(st.integers(1, 12))
    beta = draw(st.sampled_from([F(1, 2), F(1), F(2), F(3, 7), F(1, n), F(n + 1)]))
    ids = draw(st.permutations(range(1, n + 1)))
    grid = st.sampled_from(RATIONAL_GRID)
    jobs = tuple(Job(i, draw(grid), draw(grid)) for i in ids)
    return validate_instance(Instance(beta, jobs))


@st.composite
def family_instances(draw):
    family = draw(st.sampled_from(list(Family)))
    n = draw(st.integers(2, 30 if family in (Family.RANDOM, Family.TWO_RELEASE) else 10))
    beta = draw(_size_betas(n))
    seed = draw(st.integers(0, 2**16))
    return generate(FamilySpec(family=family, n=n, beta=beta, seed=seed))


class TestNonIdling:
    def test_two_job_example(self, two_job_instance):
        sched = run(two_job_instance, SchedulerChoice.NON_IDLING).schedule
        assert sched.order == (1, 2)
        assert sched.starts == (F(0), F(5))
        assert evaluate(two_job_instance, sched).makespan == F(11)

    def test_big_job_blocks(self):
        # one alpha=8 job at release 0, two zero jobs at release 1: the big
        # job is the only pending job at t=0, so it runs first and the zeros
        # ride the doubling: 8 -> 16 -> 32
        inst = make_instance(1, [(1, 8, 0), (2, 0, 1), (3, 0, 1)])
        sched = run(inst, SchedulerChoice.NON_IDLING).schedule
        assert sched.order == (1, 2, 3)
        assert evaluate(inst, sched).makespan == F(32)

    def test_single_release_is_spt(self):
        inst = make_instance(1, [(1, 3, 0), (2, 1, 0), (3, 2, 0)])
        assert run(inst, SchedulerChoice.NON_IDLING).order == (2, 3, 1)

    def test_tie_break_alpha_then_release_then_id(self):
        inst = make_instance(1, [(3, 1, 0), (2, 1, 0), (1, 2, 0)])
        assert run(inst, SchedulerChoice.NON_IDLING).order == (2, 3, 1)

    @settings(max_examples=150)
    @given(inst=instances())
    def test_never_idles_while_pending(self, inst):
        sched = run(inst, SchedulerChoice.NON_IDLING).schedule
        report = evaluate(inst, sched)
        jobs = inst.job_map()
        for k, jid in enumerate(sched.order):
            if report.gaps[k] > 0:
                remaining = sched.order[k:]
                earliest = min(jobs[j].release for j in remaining)
                # the machine reopened exactly at the next release
                assert sched.starts[k] == earliest == jobs[jid].release

    def test_canonical_starts_match(self, two_job_instance):
        sched = run(two_job_instance, SchedulerChoice.NON_IDLING).schedule
        assert sched == canonical_starts(two_job_instance, sched.order)


class TestIsInterfering:
    def test_short_future_job_blocks(self, two_job_instance):
        # candidate alpha=5 at t=0; job 2 has alpha=1 < 5 and 0 < 2 < 5
        assert is_interfering(two_job_instance, 1, F(0)) == F(2)

    def test_equal_alpha_does_not_block(self):
        inst = make_instance(1, [(1, 5, 0), (2, 5, 2)])
        assert is_interfering(inst, 1, F(0)) is None

    def test_boundary_release_does_not_block(self):
        # r = (1+beta)t + alpha exactly: the strict inequality excludes it
        inst = make_instance(1, [(1, 5, 0), (2, 1, 5)])
        assert is_interfering(inst, 1, F(0)) is None

    def test_release_at_t_does_not_block(self):
        inst = make_instance(1, [(1, 5, 0), (2, 1, 0)])
        assert is_interfering(inst, 1, F(0)) is None

    def test_minimal_blocking_release_wins(self):
        inst = make_instance(1, [(1, 9, 0), (2, 1, 4), (3, 2, 2)])
        assert is_interfering(inst, 1, F(0)) == F(2)


class TestNonInterfering:
    def test_two_job_example(self, two_job_instance):
        # idle [0,2) to let the short job go first
        sched = run(two_job_instance, SchedulerChoice.NON_INTERFERING).schedule
        assert sched.order == (2, 1)
        assert sched.starts == (F(2), F(5))
        assert evaluate(two_job_instance, sched).makespan == F(15)

    def test_adversarial_pair(self):
        # alpha (11, 10), releases (10, 30): waiting for the shorter job
        # costs a full doubling: C = 10+2*30 = 70, then 11+2*70 = 151
        inst = make_instance(1, [(1, 11, 10), (2, 10, 30)])
        sched = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        assert sched.order == (2, 1)
        assert evaluate(inst, sched).makespan == F(151)

    def test_single_release_matches_non_idling(self):
        inst = make_instance(1, [(1, 3, 0), (2, 1, 0), (3, 2, 0)])
        non_interfering = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        assert non_interfering == run(inst, SchedulerChoice.NON_IDLING).schedule

    @settings(max_examples=150)
    @given(inst=instances())
    def test_chosen_job_never_interfered(self, inst):
        sched = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        for jid, start in zip(sched.order, sched.starts):
            assert is_interfering(inst, jid, start) is None


class TestEctf:
    def test_estimate_tie_goes_to_smaller_alpha(self):
        # long (alpha=2, r=0) and short (alpha=0, r=1) both estimate 2 at
        # t=0; the short job wins the tie and the machine idles [0,1)
        inst = make_instance(1, [(1, 2, 0), (2, 0, 1)])
        sched = run(inst, SchedulerChoice.ECTF).schedule
        assert sched.order == (2, 1)
        assert evaluate(inst, sched).makespan == F(6)

    def test_two_job_example(self, two_job_instance):
        # estimates tie at 5; job 2 has the smaller fixed part
        sched = run(two_job_instance, SchedulerChoice.ECTF).schedule
        assert sched.order == (2, 1)
        assert evaluate(two_job_instance, sched).makespan == F(15)

    def test_single_release_is_spt(self):
        inst = make_instance(1, [(1, 3, 0), (2, 1, 0), (3, 2, 0)])
        assert run(inst, SchedulerChoice.ECTF).order == (2, 3, 1)

    def test_jumps_twice_before_the_first_start(self):
        # nothing is pending at t=0, so the loop jumps to release 1; job 1
        # would complete at 2*1+10 = 12, job 2 estimates 2*2+1 = 5, so it
        # jumps again, to release 2: job 2 runs [2,5), job 1 [5,20)
        inst = make_instance(1, [(1, 10, 1), (2, 1, 2)])
        sched = run(inst, SchedulerChoice.ECTF).schedule
        assert sched == _reference_ectf(inst)
        assert sched == Schedule((2, 1), (F(2), F(5)))
        assert evaluate(inst, sched).makespan == F(20)

    def test_released_fixed_part_tie_goes_to_id_not_release(self):
        # job 3 runs [0,4) (estimates 8 and 10 wait); then jobs 1 and 2 are
        # both pending with alpha 6: job 1 wins on its id although job 2 was
        # released first, which the greedy policies prefer
        inst = make_instance(1, [(3, 4, 0), (1, 6, 2), (2, 6, 1)])
        sched = run(inst, SchedulerChoice.ECTF).schedule
        assert sched == _reference_ectf(inst)
        assert sched == Schedule((3, 1, 2), (F(0), F(4), F(14)))
        assert run(inst, SchedulerChoice.NON_IDLING).order == (3, 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(inst=instances(max_n=5, beta_strategy=st.sampled_from([F(1, 2), F(1), F(2)])))
    def test_within_three_plus_inverse_beta(self, inst):
        value = evaluate(inst, run(inst, SchedulerChoice.ECTF).schedule).makespan
        optimum = brute_force(inst, Objective.MAKESPAN).best_value
        assert value <= (3 + F(1) / inst.beta) * optimum


class TestBestOfTwo:
    def test_picks_non_idling(self):
        # non-idling: 3 then 1+2*3=7; non-interfering idles to 2: 5, 3+2*5=13
        inst = make_instance(1, [(1, 3, 0), (2, 1, 2)])
        sched = run(inst, SchedulerChoice.BEST_OF_TWO).schedule
        assert sched == run(inst, SchedulerChoice.NON_IDLING).schedule
        assert evaluate(inst, sched).makespan == F(7)

    def test_picks_non_interfering(self):
        # the alpha=8 job first costs 32; idling to run the zeros costs 16
        inst = make_instance(1, [(1, 8, 0), (2, 0, 1), (3, 0, 1)])
        sched = run(inst, SchedulerChoice.BEST_OF_TWO).schedule
        assert sched == run(inst, SchedulerChoice.NON_INTERFERING).schedule
        assert evaluate(inst, sched).makespan == F(16)

    def test_tie_returns_non_idling(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        best = run(inst, SchedulerChoice.BEST_OF_TWO).schedule
        assert best == run(inst, SchedulerChoice.NON_IDLING).schedule
        assert best == run(inst, SchedulerChoice.NON_INTERFERING).schedule

    @settings(max_examples=150)
    @given(inst=instances())
    def test_never_worse_than_either(self, inst):
        t = evaluate(inst, run(inst, SchedulerChoice.BEST_OF_TWO).schedule).makespan
        assert t <= evaluate(inst, run(inst, SchedulerChoice.NON_IDLING).schedule).makespan
        assert t <= evaluate(inst, run(inst, SchedulerChoice.NON_INTERFERING).schedule).makespan

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        beta=st.sampled_from([F(1, 2), F(1), F(2)]),
        n=st.integers(2, 5),
        high=st.integers(1, 9),
    )
    def test_two_release_ratio_at_most_two(self, data, beta, n, high):
        jobs = []
        late = data.draw(
            st.lists(st.booleans(), min_size=n, max_size=n).filter(
                lambda bits: any(bits) and not all(bits)
            )
        )
        for i in range(n):
            alpha = data.draw(st.integers(0, 9))
            jobs.append((i + 1, alpha, high if late[i] else 0))
        inst = make_instance(beta, jobs)
        value = evaluate(inst, run(inst, SchedulerChoice.BEST_OF_TWO).schedule).makespan
        optimum = brute_force(inst, Objective.MAKESPAN).best_value
        assert value <= 2 * optimum


class TestEarliestReleaseOrder:
    def test_sorts_by_release_then_id(self):
        inst = make_instance(1, [(1, 1, 5), (2, 2, 0), (3, 3, 5)])
        assert earliest_release_order(inst).order == (2, 1, 3)


# (jobs at beta 1, non-idling and non-interfering makespans, winner): on
# the second, one release, the tie goes to non-idling.
BEST_OF_TWO_CASES = [
    ([(1, 8, 0), (2, 0, 1), (3, 0, 1)], (32, 16), SchedulerChoice.NON_INTERFERING),
    ([(1, 3, 0), (2, 1, 0), (3, 2, 0)], (11, 11), SchedulerChoice.NON_IDLING),
]


class TestRunEntryPoint:
    """:func:`run` is the one policy entry point: ``SCHEDULERS`` maps each
    choice to its run's schedule, and one dict of runs runs each loop once."""

    @settings(max_examples=100, deadline=None)
    @given(inst=instances())
    def test_every_choice_maps_to_run(self, inst):
        assert set(SCHEDULERS) == set(SchedulerChoice)
        for choice, policy in SCHEDULERS.items():
            assert policy(inst) == run(inst, choice).schedule

    @pytest.mark.parametrize(
        "jobs, makespans, winner", BEST_OF_TWO_CASES, ids=["interfering", "tie"]
    )
    @pytest.mark.parametrize("greedy_first", [False, True], ids=["alone", "after-greedy"])
    def test_best_of_two_returns_the_winning_pair(self, jobs, makespans, winner, greedy_first):
        inst = make_instance(1, jobs)
        runs = {}
        if greedy_first:
            run(inst, SchedulerChoice.NON_IDLING, runs)
            run(inst, SchedulerChoice.NON_INTERFERING, runs)
        record = run(inst, SchedulerChoice.BEST_OF_TWO, runs)
        greedy = (SchedulerChoice.NON_IDLING, SchedulerChoice.NON_INTERFERING)
        assert tuple(runs[choice].makespan for choice in greedy) == makespans
        assert record is runs[winner]
        assert runs[SchedulerChoice.BEST_OF_TWO] is record

    def test_schedule_built_on_first_access_and_kept(self):
        inst = make_instance(1, [(1, 8, 0), (2, 0, 1), (3, 0, 1)])
        record = run(inst, SchedulerChoice.NON_INTERFERING)
        assert "schedule" not in vars(record)
        schedule = record.schedule
        assert schedule == Schedule((2, 3, 1), (F(1), F(2), F(4)))
        assert record.schedule is schedule

    def test_repeated_run_runs_no_loop(self, monkeypatch):
        loops = count_calls(monkeypatch, schedulers._loop)
        inst = generate(FamilySpec(family=Family.RANDOM, n=6, beta=F(1), seed=3))
        runs = {}
        first = {choice: run(inst, choice, runs) for choice in SchedulerChoice}
        assert sorted(choice.value for _, choice in loops) == LOOP_CHOICES
        for choice in SchedulerChoice:
            assert run(inst, choice, runs) is first[choice]
        assert sorted(choice.value for _, choice in loops) == LOOP_CHOICES


class TestSchedulerContracts:
    # PolicyRun.schedule, solve and eval build a policy's schedule as the
    # canonical schedule of its order, which is exact only because every
    # policy schedule is one.
    @settings(max_examples=300, deadline=None)
    @given(
        inst=st.one_of(
            instances(),
            tie_heavy_instances(),
            rational_tie_heavy_instances(),
            family_instances(),
        )
    )
    def test_all_feasible_and_canonical(self, inst):
        for choice in SchedulerChoice:
            sched = run(inst, choice).schedule
            evaluate(inst, sched)  # raises if infeasible
            assert sched == canonical_starts(inst, sched.order)

    @settings(max_examples=100)
    @given(inst=instances())
    def test_deterministic(self, inst):
        for choice in SchedulerChoice:
            assert run(inst, choice).schedule == run(inst, choice).schedule

    @settings(max_examples=100, deadline=None)
    @given(
        data=st.data(),
        beta=st.sampled_from([F(1, 2), F(1), F(2)]),
        n=st.integers(1, 5),
    )
    def test_single_release_all_spt_and_optimal(self, data, beta, n):
        jobs = [(i + 1, data.draw(st.integers(0, 9)), 0) for i in range(n)]
        inst = make_instance(beta, jobs)
        optimum = brute_force(inst, Objective.MAKESPAN).best_value
        spt = run(inst, SchedulerChoice.NON_IDLING).order
        for choice in LOOP_CHOICES:
            sched = run(inst, SchedulerChoice(choice)).schedule
            assert sched.order == spt
            assert evaluate(inst, sched).makespan == optimum


class TestMatchesReferenceLoops:
    @settings(max_examples=400, deadline=None)
    @given(
        inst=st.one_of(
            instances(),
            tie_heavy_instances(),
            rational_tie_heavy_instances(),
            family_instances(),
        )
    )
    def test_same_schedules(self, inst):
        for choice, reference in REFERENCES:
            assert run(inst, choice).schedule == reference(inst)

    def test_long_horizon_instance(self):
        inst = generate(
            FamilySpec(family=Family.RANDOM, n=400, beta=F(1, 400), seed=7, r_max=1600)
        )
        for choice, reference in REFERENCES:
            assert run(inst, choice).schedule == reference(inst)

    @settings(max_examples=400, deadline=None)
    @given(
        inst=st.one_of(
            instances(),
            tie_heavy_instances(),
            rational_tie_heavy_instances(),
            family_instances(),
        )
    )
    def test_best_of_two_matches_reference(self, inst):
        assert run(inst, SchedulerChoice.BEST_OF_TWO).schedule == _reference_best_of_two(inst)


class TestLoopMakespans:
    """The loops' own makespans, which a makespan sweep reports without
    building any schedule, against :func:`evaluate` on their schedules."""

    @settings(max_examples=400, deadline=None)
    @given(
        inst=st.one_of(
            instances(),
            tie_heavy_instances(),
            rational_tie_heavy_instances(),
            family_instances(),
        )
    )
    def test_equal_evaluate(self, inst):
        for choice in LOOP_CHOICES:
            record = _loop(inst, SchedulerChoice(choice))
            assert "schedule" not in vars(record)
            makespan = record.makespan
            assert makespan == evaluate(inst, record.schedule).makespan
