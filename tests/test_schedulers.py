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
    Objective,
    Schedule,
    SchedulerChoice,
    brute_force,
    canonical_starts,
    earliest_release_order,
    evaluate,
    generate,
    run,
)
from detsched import schedulers
from detsched.schedulers import SCHEDULERS

import reference
from conftest import (
    RATIONAL_GRID, count_calls, family_instances, instances, make_instance, rational_tie_heavy_instances,
    regime_betas, tie_heavy_instances,
)
from reference import is_interfering

F = Fraction

# the choices that run the policy loop, by value
LOOP_CHOICES = ["ectf", "non-idling", "non-interfering"]

# random instances, and ones where many keys tie or where only integer
# keys scaled by the common denominator order correctly, and every family
LOOP_INSTANCES = st.one_of(
    instances(),
    tie_heavy_instances(max_n=12, beta_strategy=regime_betas),
    rational_tie_heavy_instances(grid=RATIONAL_GRID),
    family_instances(max_jobs=30, min_k=2, adversarial_k=10, beta_strategy=regime_betas),
)


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
        assert sched.order == reference.policy_order(inst, SchedulerChoice.ECTF)
        assert sched == Schedule((2, 1), (F(2), F(5)))
        assert evaluate(inst, sched).makespan == F(20)

    def test_released_fixed_part_tie_goes_to_id_not_release(self):
        # job 3 runs [0,4) (estimates 8 and 10 wait); then jobs 1 and 2 are
        # both pending with alpha 6: job 1 wins on its id although job 2 was
        # released first, which the greedy policies prefer
        inst = make_instance(1, [(3, 4, 0), (1, 6, 2), (2, 6, 1)])
        sched = run(inst, SchedulerChoice.ECTF).schedule
        assert sched.order == reference.policy_order(inst, SchedulerChoice.ECTF)
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


def assert_matches_reference(inst: Instance) -> None:
    """Each policy's run against the reference: its order, the makespan
    that the loop reports without building any schedule, as a makespan
    sweep reads it, and its schedule.  ``PolicyRun.schedule``, ``solve``
    and ``eval`` build a policy's schedule as the canonical schedule of its
    order, which is exact only because every policy schedule is one."""
    for choice in SchedulerChoice:
        record = run(inst, choice)
        assert "schedule" not in vars(record)
        order = reference.policy_order(inst, choice)
        starts, completions, _ = reference.timeline(inst, order)
        assert (record.order, record.makespan) == (order, completions[-1])
        assert record.schedule == Schedule(order, tuple(starts))


class TestMatchesReferenceLoops:
    @settings(max_examples=400, deadline=None)
    @given(inst=LOOP_INSTANCES)
    def test_same_schedules(self, inst):
        assert_matches_reference(inst)

    def test_long_horizon_instance(self):
        assert_matches_reference(
            generate(FamilySpec(family=Family.RANDOM, n=400, beta=F(1, 400), seed=7, r_max=1600))
        )
