"""Instance families and the release-clamping reduction.

The adversarial families are checked against hand-computed parameter
tables; the reduction is checked against its defining property (all gaps
zero, order preserved up to an id re-sort of a leading zero-alpha block).
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    Family,
    FamilySpec,
    Objective,
    SchedulerChoice,
    brute_force,
    canonical_starts,
    dp_min_makespan,
    evaluate,
    generate,
    reduce_instance,
    run,
    validate_instance,
)
from detsched import generators
from detsched.generators import ADVERSARIAL_MAX_K, MAX_N, RANDOM_MAX_N, BadSpec
from detsched.model import Schedule, SchedulingError

from conftest import count_calls, digit_limit, instances, make_instance

F = Fraction


ADVERSARIAL = [Family.NONINTERFERING_ADV, Family.NONIDLING_ADV, Family.ECTF_ADV]


def spec_for(family, n, beta=F(1), **kw):
    return FamilySpec(family=family, n=n, beta=F(beta), **kw)


class TestRandomFamily:
    def test_deterministic(self):
        a = generate(spec_for(Family.RANDOM, 5, seed=42))
        b = generate(spec_for(Family.RANDOM, 5, seed=42))
        assert a == b

    def test_seed_changes_instance(self):
        a = generate(spec_for(Family.RANDOM, 8, seed=1))
        b = generate(spec_for(Family.RANDOM, 8, seed=2))
        assert a != b

    def test_bounds_respected(self):
        inst = generate(spec_for(Family.RANDOM, 30, alpha_max=3, r_max=5, seed=9))
        assert all(0 <= j.alpha <= 3 and j.alpha.denominator == 1 for j in inst.jobs)
        assert all(0 <= j.release <= 5 for j in inst.jobs)
        assert [j.id for j in inst.jobs] == list(range(1, 31))

    def test_alpha_max_zero(self):
        inst = generate(spec_for(Family.RANDOM, 4, alpha_max=0, seed=3))
        assert all(j.alpha == 0 for j in inst.jobs)

    def test_r_max_zero_single_release(self):
        inst = generate(spec_for(Family.RANDOM, 4, r_max=0, seed=3))
        assert all(j.release == 0 for j in inst.jobs)

    def test_validates(self):
        validate_instance(generate(spec_for(Family.RANDOM, 6, seed=11)))


class TestTwoReleaseFamily:
    def test_two_jobs_forced_split(self):
        inst = generate(spec_for(Family.TWO_RELEASE, 2, r_max=4, seed=0))
        assert sorted(j.release for j in inst.jobs) == [F(0), F(4)]

    def test_exactly_two_release_values(self):
        for seed in range(20):
            inst = generate(spec_for(Family.TWO_RELEASE, 6, r_max=4, seed=seed))
            releases = {j.release for j in inst.jobs}
            assert releases == {F(0), F(4)}

    def test_deterministic(self):
        a = generate(spec_for(Family.TWO_RELEASE, 5, seed=13))
        b = generate(spec_for(Family.TWO_RELEASE, 5, seed=13))
        assert a == b

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            generate(spec_for(Family.TWO_RELEASE, 1))
        with pytest.raises(BadSpec):
            generate(spec_for(Family.TWO_RELEASE, 3, r_max=0))


class TestNonInterferingFamily:
    def test_two_job_table(self):
        # alpha_j = B + n - j, releases are B-scaled geometric partial sums
        inst = generate(spec_for(Family.NONINTERFERING_ADV, 2, b=F(10)))
        assert [(j.alpha, j.release) for j in inst.jobs] == [
            (F(11), F(10)),
            (F(10), F(30)),
        ]

    def test_single_job(self):
        inst = generate(spec_for(Family.NONINTERFERING_ADV, 1, b=F(1)))
        assert [(j.alpha, j.release) for j in inst.jobs] == [(F(1), F(1))]

    def test_three_job_releases(self):
        inst = generate(spec_for(Family.NONINTERFERING_ADV, 3, b=F(10)))
        assert [j.release for j in inst.jobs] == [F(10), F(30), F(70)]

    def test_default_b_is_n_squared(self):
        inst = generate(spec_for(Family.NONINTERFERING_ADV, 3))
        assert inst.jobs[0].alpha == 9 + 3 - 1

    def test_b_below_n_rejected(self):
        with pytest.raises(BadSpec):
            generate(spec_for(Family.NONINTERFERING_ADV, 4, b=F(3)))

    def test_policy_idles_until_last_release(self):
        # interference chains across all releases: nothing starts before r_n
        for n in (2, 3, 4):
            inst = generate(spec_for(Family.NONINTERFERING_ADV, n))
            sched = run(inst, SchedulerChoice.NON_INTERFERING).schedule
            assert sched.starts[0] == inst.jobs[-1].release


class TestNonIdlingFamily:
    def test_k2_table(self):
        inst = generate(spec_for(Family.NONIDLING_ADV, 2))
        assert [(j.alpha, j.release) for j in inst.jobs] == [
            (F(8), F(0)),
            (F(0), F(1)),
            (F(0), F(1)),
        ]

    def test_default_b(self):
        inst = generate(spec_for(Family.NONIDLING_ADV, 1))
        assert inst.jobs[0].alpha == F(4)  # (1+beta)^(k+1) at beta=1

    def test_ratio_closed_form_matches_oracle(self):
        # ratio = (1+beta)^k B / ((1+beta)^(k+1) + B), equal to (1+beta)^k/2
        # at the default B
        for k in range(1, 6):
            inst = generate(spec_for(Family.NONIDLING_ADV, k))
            value = evaluate(inst, run(inst, SchedulerChoice.NON_IDLING).schedule).makespan
            optimum = dp_min_makespan(inst)
            g = 1 + inst.beta
            b = inst.jobs[0].alpha
            assert value / optimum == g**k * b / (g ** (k + 1) + b)
            assert value / optimum == g**k / 2

    def test_beta_half(self):
        inst = generate(spec_for(Family.NONIDLING_ADV, 2, beta=F(1, 2)))
        assert inst.jobs[0].alpha == F(27, 8)


class TestEctfFamily:
    def test_k2_table(self):
        inst = generate(spec_for(Family.ECTF_ADV, 2, b=F(1)))
        assert [(j.alpha, j.release) for j in inst.jobs] == [
            (F(2), F(0)),
            (F(2), F(0)),
            (F(0), F(1)),
            (F(0), F(3)),
        ]

    def test_policy_runs_all_shorts_first(self):
        for k in (1, 2, 3):
            inst = generate(spec_for(Family.ECTF_ADV, k, b=F(1)))
            order = run(inst, SchedulerChoice.ECTF).order
            shorts = set(range(k + 1, 2 * k + 1))
            assert set(order[:k]) == shorts

    def test_k2_makespans(self):
        # the policy's makespan is the full geometric sum 2+4+8+16 = 30;
        # running the longs first costs 24; the true optimum interleaves
        # (long, short, short, long) for 18 and beats the longs-first
        # schedule, so 24 is only an upper bound on T*, not T* itself
        inst = generate(spec_for(Family.ECTF_ADV, 2, b=F(1)))
        assert evaluate(inst, run(inst, SchedulerChoice.ECTF).schedule).makespan == F(30)
        longs_first = evaluate(inst, canonical_starts(inst, (1, 2, 3, 4))).makespan
        assert longs_first == F(24)
        result = brute_force(inst, Objective.MAKESPAN)
        assert result.best_value == F(18)
        assert result.best_schedule.order == (1, 3, 4, 2)

    def test_ratio_exceeds_claimed_growth(self):
        # T/T* >= 1 + 1/(1+beta)^k; the true optimum makes the ratio larger
        # than the longs-first analysis suggests, never smaller
        for k, claimed in [(1, F(3, 2)), (2, F(5, 4)), (3, F(9, 8))]:
            inst = generate(spec_for(Family.ECTF_ADV, k, b=F(1)))
            value = evaluate(inst, run(inst, SchedulerChoice.ECTF).schedule).makespan
            optimum = dp_min_makespan(inst)
            assert value / optimum >= claimed

    def test_bad_b(self):
        with pytest.raises(BadSpec):
            generate(spec_for(Family.ECTF_ADV, 2, b=F(0)))


class TestFamilySpecValidation:
    def test_n_below_one(self):
        with pytest.raises(BadSpec):
            generate(spec_for(Family.RANDOM, 0))

    def test_beta_validated(self):
        with pytest.raises(Exception):
            spec_for(Family.RANDOM, 3, beta=F(0))
        with pytest.raises(TypeError):
            FamilySpec(family=Family.RANDOM, n=3, beta=0.5)

    # Each of these leaked a bare ValueError or TypeError from the
    # generator, or (seed=None) seeded it from OS entropy.
    def test_float_alpha_max(self):
        with pytest.raises(BadSpec, match="alpha_max must be an int, got float"):
            spec_for(Family.RANDOM, 3, alpha_max=2.5)

    def test_none_r_max(self):
        with pytest.raises(BadSpec, match="r_max must be an int, got NoneType"):
            spec_for(Family.TWO_RELEASE, 3, r_max=None)

    def test_float_n(self):
        with pytest.raises(BadSpec, match="n must be an int, got float"):
            spec_for(Family.RANDOM, 2.0)

    def test_none_seed(self):
        with pytest.raises(BadSpec, match="seed must be an int, got NoneType"):
            spec_for(Family.RANDOM, 3, seed=None)

    @pytest.mark.parametrize("name", ["n", "seed", "alpha_max", "r_max"])
    def test_bool_refused(self, name):
        with pytest.raises(BadSpec, match=f"{name} must be an int, got bool"):
            spec_for(Family.RANDOM, **{"n": 3, name: True})

    @pytest.mark.parametrize("family", [Family.RANDOM, Family.TWO_RELEASE])
    def test_n_past_the_cap(self, monkeypatch, family):
        # refused before any draw: nothing runs unbounded, no job is built
        jobs = count_calls(monkeypatch, generators.Job)
        with pytest.raises(BadSpec, match=f"n must be <= {RANDOM_MAX_N} for the {family.value}"):
            generate(spec_for(family, RANDOM_MAX_N + 1))
        assert jobs == []
        assert spec_for(family, RANDOM_MAX_N).n == RANDOM_MAX_N

    def test_cap_is_for_the_random_families_only(self):
        # the adversarial families read n as their size k; their values
        # grow like (1+beta)**k, so they have a cap of their own, far lower
        assert MAX_N[Family.RANDOM] == MAX_N[Family.TWO_RELEASE] == RANDOM_MAX_N
        for family in ADVERSARIAL:
            assert MAX_N[family] == ADVERSARIAL_MAX_K < RANDOM_MAX_N
            assert spec_for(family, ADVERSARIAL_MAX_K).n == ADVERSARIAL_MAX_K

    @pytest.mark.parametrize("family", ADVERSARIAL)
    def test_k_past_the_cap(self, monkeypatch, family):
        # refused as the spec is built: no value is computed, no job built
        jobs = count_calls(monkeypatch, generators.Job)
        message = (
            f"^n must be <= {ADVERSARIAL_MAX_K} for the {family.value} family, "
            f"got {ADVERSARIAL_MAX_K + 1}$"
        )
        with pytest.raises(BadSpec, match=message):
            generate(spec_for(family, ADVERSARIAL_MAX_K + 1))
        assert jobs == []

    def test_family_must_be_a_family(self):
        with pytest.raises(BadSpec, match="^family must be of type Family, got str$"):
            FamilySpec(family="random", n=3, beta=F(1))

    # One digit past the limit, each value leaked a bare ValueError from
    # the message that names it.
    @pytest.mark.parametrize(
        "family, n, beta, b, message",
        [
            (Family.RANDOM, -(10**4300), F(1), None, "n must be >= 1, got"),
            (Family.RANDOM, 3, F(-(10**4300)), None, "beta must be > 0, got"),
            (Family.NONINTERFERING_ADV, 3, F(1), F(-(10**4300)), "B must be >= n (3), got"),
            (Family.NONIDLING_ADV, 3, F(1), F(-(10**4300)), "B must be > 0, got"),
            (Family.ECTF_ADV, 3, F(1), F(-(10**4300)), "B must be > 0, got"),
        ],
        ids=["n", "beta", "noninterfering-b", "nonidling-b", "ectf-b"],
    )
    def test_values_past_the_digit_limit(self, family, n, beta, b, message):
        with digit_limit(4300), pytest.raises(BadSpec) as raised:
            generate(FamilySpec(family=family, n=n, beta=beta, b=b))
        assert str(raised.value) == f"{message} a 14285-bit value"


class TestReduceInstance:
    def test_two_job_example(self, two_job_instance):
        # policy order (2,1): job 2 clamps to min(2, 0) = 0, then job 1 to
        # min(0, gap-free prefix 1) = 0
        ni = run(two_job_instance, SchedulerChoice.NON_INTERFERING).schedule
        assert ni.order == (2, 1)
        reduced = reduce_instance(two_job_instance, ni)
        assert [j.release for j in reduced.jobs] == [F(0), F(0)]
        again = run(reduced, SchedulerChoice.NON_INTERFERING).schedule
        assert again.order == (2, 1)
        assert evaluate(reduced, again).gaps == (F(0), F(0))

    def test_gap_free_instance_keeps_order(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0), (3, 3, 0)])
        ni = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        reduced = reduce_instance(inst, ni)
        assert run(reduced, SchedulerChoice.NON_INTERFERING).order == ni.order
        for old, new in zip(inst.jobs, reduced.jobs):
            assert new.release <= old.release

    def test_single_job(self):
        inst = make_instance(1, [(1, 5, 7)])
        reduced = reduce_instance(inst, run(inst, SchedulerChoice.NON_INTERFERING).schedule)
        assert reduced.jobs[0].release == F(0)

    @settings(max_examples=200, deadline=None)
    @given(inst=instances(max_n=6))
    def test_zero_gaps_and_order_up_to_zero_head(self, inst):
        # Clamping removes every gap: both the fresh policy order and a
        # replay of the original order run back to back on the reduced
        # instance.  Order is preserved exactly except for one documented
        # tie effect: jobs in a leading all-zero-alpha block finish at time
        # 0 regardless of sequence, their clamped releases collapse to 0,
        # and the deterministic tie-break re-sorts that block by id.
        ni = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        reduced = reduce_instance(inst, ni)
        again = run(reduced, SchedulerChoice.NON_INTERFERING).schedule
        assert all(q == 0 for q in evaluate(reduced, again).gaps)
        replay = canonical_starts(reduced, ni.order)
        assert all(q == 0 for q in evaluate(reduced, replay).gaps)

        alpha = {j.id: j.alpha for j in inst.jobs}
        head = 0
        while head < len(ni.order) and alpha[ni.order[head]] == 0:
            head += 1
        expected = tuple(sorted(ni.order[:head])) + ni.order[head:]
        assert again.order == expected

    def test_equal_alpha_tie_reorders_zero_head(self):
        # Regression: order preservation is only up to the zero-alpha head.
        # Job 2 runs first originally (job 1 unreleased until t=1); after
        # clamping both sit at release 0 with alpha 0 and the id tie-break
        # flips them.  Gaps still vanish and the makespan is unchanged.
        inst = make_instance(F(1, 10), [(1, 0, 1), (2, 0, 0)])
        ni = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        assert ni.order == (2, 1)
        assert evaluate(inst, ni).gaps == (F(0), F(1))
        reduced = reduce_instance(inst, ni)
        assert [j.release for j in reduced.jobs] == [F(0), F(0)]
        again = run(reduced, SchedulerChoice.NON_INTERFERING).schedule
        assert again.order == (1, 2)
        assert evaluate(reduced, again).gaps == (F(0), F(0))
        assert evaluate(reduced, again).makespan == F(0)

    @pytest.mark.parametrize(
        "order", [(2, 1, 1), (1, 3), (1,)], ids=["duplicate", "unknown", "short"]
    )
    def test_order_must_be_a_permutation(self, two_job_instance, order):
        # the typed error, checked before any position is walked
        schedule = Schedule(order, (F(0),) * len(order))
        with pytest.raises(SchedulingError, match="exactly once"):
            reduce_instance(two_job_instance, schedule)

    @settings(max_examples=100)
    @given(inst=instances(max_n=6))
    def test_preserves_ids_and_alphas(self, inst):
        reduced = reduce_instance(inst, run(inst, SchedulerChoice.NON_INTERFERING).schedule)
        assert [(j.id, j.alpha) for j in reduced.jobs] == [
            (j.id, j.alpha) for j in inst.jobs
        ]
