"""Exact optima by enumeration and subset DP, plus the lower bounds."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    Instance,
    Job,
    Objective,
    SchedulerChoice,
    best_of_two,
    brute_force,
    canonical_starts,
    dp_min_makespan,
    ectf,
    evaluate,
    lb_release,
    non_idling,
    non_interfering,
    run,
    sorted_subset_cost,
    validate_instance,
)
from detsched.generators import Family, FamilySpec, generate
from detsched.experiment import cross_objective_check
from detsched.model import ZERO, InvalidArgument, NotRational, rational
from detsched.oracle import (
    BRUTE_FORCE_MAX_N,
    DP_MAX_N,
    DegenerateOptimum,
    InstanceTooLarge,
    OptResult,
    _finish,
    _lattice,
    _lb_fixed,
    _scaled,
    optimum,
    value_ratio,
)

from conftest import betas, digit_limit, instances, make_instance, small_rationals
from lemmas import lb_combined

F = Fraction

# betas whose denominators 3, 7 and 10 make the DP's time scale q**n large
odd_denominator_betas = st.sampled_from(
    [F(1, 3), F(5, 3), F(2, 7), F(9, 7), F(3, 10), F(21, 10)]
)
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@st.composite
def coprime_instances(draw, max_n=6):
    """Alphas and releases over pairwise coprime (distinct prime)
    denominators, so their lcm is as large as the values allow."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    beta = draw(st.one_of(odd_denominator_betas, betas))
    dens = draw(st.permutations(PRIMES))
    nums = draw(st.lists(st.integers(0, 60), min_size=2 * n, max_size=2 * n))
    jobs = tuple(
        Job(i + 1, F(nums[2 * i], dens[2 * i]), F(nums[2 * i + 1], dens[2 * i + 1]))
        for i in range(n)
    )
    return validate_instance(Instance(beta, jobs))


@st.composite
def adversarial_instances(draw, max_jobs=7):
    """The adversarial families up to max_jobs jobs: staggered releases
    weighted by (1+beta)**j, and nonidling-adv's alpha = (1+beta)**(k+1)."""
    # the size parameter k gives k, k+1 and 2k jobs respectively
    family, k_max = draw(
        st.sampled_from(
            [
                (Family.NONINTERFERING_ADV, max_jobs),
                (Family.NONIDLING_ADV, max_jobs - 1),
                (Family.ECTF_ADV, max_jobs // 2),
            ]
        )
    )
    k = draw(st.integers(min_value=1, max_value=k_max))
    beta = draw(st.one_of(odd_denominator_betas, betas))
    return generate(FamilySpec(family, k, beta))


class TestBruteForce:
    def test_two_job_makespan(self, two_job_instance):
        result = brute_force(two_job_instance, Objective.MAKESPAN)
        assert result.best_schedule.order == (1, 2)
        assert result.best_value == F(11)

    def test_two_job_total_completion(self, two_job_instance):
        # (1,2): completions (5,11) sum 16; (2,1): (5,15) sum 20
        result = brute_force(two_job_instance, Objective.TOTAL_COMPLETION)
        assert result.best_schedule.order == (1, 2)
        assert result.best_value == F(16)

    def test_single_job(self):
        inst = make_instance(2, [(1, 3, 4)])
        result = brute_force(inst, Objective.MAKESPAN)
        assert result.best_value == 3 * 4 + 3  # (1+beta)r + alpha

    def test_long_job_first_beats_greedy(self):
        # long (alpha=2, r=0), short (alpha=0, r=1): 4 beats 6
        inst = make_instance(1, [(1, 2, 0), (2, 0, 1)])
        result = brute_force(inst, Objective.MAKESPAN)
        assert result.best_schedule.order == (1, 2)
        assert result.best_value == F(4)

    def test_tie_goes_to_lexicographic_order(self):
        inst = make_instance(1, [(2, 1, 0), (1, 1, 0)])
        result = brute_force(inst, Objective.MAKESPAN)
        assert result.best_schedule.order == (1, 2)

    def test_cap_enforced(self):
        inst = make_instance(1, [(i, 1, 0) for i in range(1, 13)])
        with pytest.raises(InstanceTooLarge):
            brute_force(inst, Objective.MAKESPAN)
        with pytest.raises(InstanceTooLarge):
            brute_force(inst, Objective.MAKESPAN, max_n=11)

    @pytest.mark.parametrize("objective", list(Objective))
    def test_ceiling_beats_a_raised_cap(self, objective):
        # one job past the ceiling: a cap of 25 must not unlock 11! orders
        n = BRUTE_FORCE_MAX_N + 1
        inst = make_instance(1, [(i, i, 0) for i in range(1, n + 1)])
        with pytest.raises(InstanceTooLarge, match=f"cap of {BRUTE_FORCE_MAX_N}"):
            brute_force(inst, objective, max_n=25)
        with pytest.raises(InstanceTooLarge):
            cross_objective_check(inst, max_n=25)

    def test_best_value_matches_reevaluation(self, two_job_instance):
        for objective in Objective:
            result = brute_force(two_job_instance, objective)
            report = evaluate(two_job_instance, result.best_schedule)
            value = (
                report.makespan
                if objective is Objective.MAKESPAN
                else report.total_completion
            )
            assert value == result.best_value

    @settings(max_examples=150, deadline=None)
    @given(inst=instances(max_n=5))
    def test_no_schedule_beats_it(self, inst):
        optimum = brute_force(inst, Objective.MAKESPAN).best_value
        for scheduler in (non_idling, non_interfering, best_of_two, ectf):
            assert evaluate(inst, scheduler(inst)).makespan >= optimum


class TestDpMinMakespan:
    def test_two_job(self, two_job_instance):
        assert dp_min_makespan(two_job_instance) == F(11)

    def test_cap_enforced(self):
        # past the cap the DP may reach 2^n states; it must refuse up front
        inst = make_instance(1, [(i, 1, 0) for i in range(1, DP_MAX_N + 2)])
        with pytest.raises(InstanceTooLarge):
            dp_min_makespan(inst)

    @settings(max_examples=600, deadline=None)
    @given(
        inst=st.one_of(
            instances(max_n=6),
            coprime_instances(),
            adversarial_instances(),
        )
    )
    def test_agrees_with_enumeration(self, inst):
        # two independent routes to the same optimum
        assert dp_min_makespan(inst) == brute_force(inst, Objective.MAKESPAN).best_value


def size_betas(n: int) -> st.SearchStrategy[Fraction]:
    return st.sampled_from([F(1, 2), F(1), F(2), F(3, 7), F(1, n), F(n + 1)])


@st.composite
def tie_heavy_instances(draw, max_n=7):
    """Alphas and releases in {0..3} with shuffled ids, so many orders tie
    for the optimum and only the id tie-break tells them apart."""
    n = draw(st.integers(1, max_n))
    beta = draw(size_betas(n))
    ids = draw(st.permutations(range(1, n + 1)))
    jobs = tuple(Job(i, F(draw(st.integers(0, 3))), F(draw(st.integers(0, 3)))) for i in ids)
    return validate_instance(Instance(beta, jobs))


@st.composite
def family_instances(draw, max_jobs=7):
    """Every generator family, up to max_jobs jobs."""
    family, k_max = draw(
        st.sampled_from(
            [
                (Family.RANDOM, max_jobs),
                (Family.TWO_RELEASE, max_jobs),
                (Family.NONINTERFERING_ADV, max_jobs),
                (Family.NONIDLING_ADV, max_jobs - 1),
                (Family.ECTF_ADV, max_jobs // 2),
            ]
        )
    )
    k = draw(st.integers(min_value=2 if family is Family.TWO_RELEASE else 1, max_value=k_max))
    beta = draw(size_betas(k))
    seed = draw(st.integers(0, 2**16))
    return generate(FamilySpec(family=family, n=k, beta=beta, seed=seed))


# The per-call integer set-up that the prepared record replaced: each
# policy loop took ``_by_release(instance, _time_scale(instance))`` and the
# subset DP took ``_scaled``, all straight from the Fractions.  Kept as the
# references the record and the new ``_scaled`` must match exactly.

def _reference_time_scale(instance: Instance) -> int:
    return math.lcm(*(v.denominator for j in instance.jobs for v in (j.alpha, j.release)))


def _reference_scale_int(value: Fraction, d: int) -> int:
    return value.numerator * (d // value.denominator)


def _reference_by_release(instance: Instance, d: int) -> list[tuple[int, int, int]]:
    return sorted(
        (_reference_scale_int(j.release, d), _reference_scale_int(j.alpha, d), j.id)
        for j in instance.jobs
    )


def _reference_scaled(instance: Instance) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    q = instance.beta.denominator
    pq = instance.beta.numerator + q
    scale = _reference_time_scale(instance) * q**instance.n
    jobs = [
        (1 << i, _reference_scale_int(j.alpha, scale), _reference_scale_int(j.release, scale))
        for i, j in enumerate(instance.jobs)
    ]
    return scale, q, pq, jobs


# The full-table DP that the closing push DP replaced, kept as the
# reference it must match on every instance.

def _reference_dp_min_makespan(instance: Instance) -> Fraction:
    validate_instance(instance)
    n = instance.n
    if n > DP_MAX_N:
        raise InstanceTooLarge(f"n={n} exceeds the subset-DP cap of {DP_MAX_N}")
    scale, q, pq, jobs = _reference_scaled(instance)
    best = [0] * (1 << n)
    for mask in range(1, 1 << n):
        value = None
        for bit, alpha, release in jobs:
            if mask & bit:
                prev = best[mask ^ bit]
                candidate = alpha + (release if release > prev else prev) // q * pq
                if value is None or candidate < value:
                    value = candidate
        best[mask] = value
    return Fraction(best[-1], scale)


# The backward table that the forward walk replaced as the source of the
# makespan optimum's order, kept as the reference it must match.

def _reference_makespan_optimum(instance: Instance) -> OptResult:
    """``latest[R]`` is the latest free time from which the remaining set
    R can still finish by the optimum: ``latest[{}] = OPT``, and
    ``latest[R]`` is the max, over jobs j in R with ``release_j <= s_j``,
    of ``s_j = (latest[R - j] - alpha_j) * q // (p+q)``, or -1 when no job
    qualifies.  The floor is exact: a reachable start is a multiple of q,
    so a reachable completion is an integer, and an integer is at most x
    exactly when it is at most floor(x).  The walk then takes, at each
    step, the smallest id whose completion still leaves the rest
    finishable by the optimum."""
    value = dp_min_makespan(instance)
    scale, q, pq, jobs = _reference_scaled(instance)
    full = (1 << instance.n) - 1
    latest = [-1] * (full + 1)
    latest[0] = value.numerator * (scale // value.denominator)
    for rest in range(1, full + 1):
        best = -1
        for bit, alpha, release in jobs:
            if rest & bit:
                start = (latest[rest ^ bit] - alpha) * q // pq
                if release <= start and start > best:
                    best = start
        latest[rest] = best
    by_id = sorted(
        (job.id, bit, alpha, release)
        for job, (bit, alpha, release) in zip(instance.jobs, jobs)
    )
    order = []
    free = 0
    rest = full
    while rest:
        for jid, bit, alpha, release in by_id:
            if rest & bit:
                completion = alpha + (release if release > free else free) // q * pq
                if completion <= latest[rest ^ bit]:
                    break
        else:  # latest[rest] >= free guarantees a job above
            raise AssertionError("no job leaves the rest finishable by the optimum")
        order.append(jid)
        free = completion
        rest ^= bit
    return OptResult(
        objective=Objective.MAKESPAN,
        best_schedule=canonical_starts(instance, tuple(order)),
        best_value=value,
    )


DP_GRID = [F(0), F(1, 3), F(1, 2), F(1), F(3, 2), F(2)]


@st.composite
def rational_tie_heavy_instances(draw, max_n=12):
    """Alphas and releases on a grid with denominators 1, 2 and 3 and ids
    shuffled, so many states close at the same time with tied alphas."""
    n = draw(st.integers(1, max_n))
    beta = draw(size_betas(n))
    ids = draw(st.permutations(range(1, n + 1)))
    grid = st.sampled_from(DP_GRID)
    return validate_instance(Instance(beta, tuple(Job(i, draw(grid), draw(grid)) for i in ids)))


@st.composite
def far_release_instances(draw, max_n=12):
    """Small alphas and releases up to 10**6, so states stay open deep
    into the subset lattice."""
    n = draw(st.integers(1, max_n))
    beta = draw(size_betas(n))
    r_max = draw(st.sampled_from([10, 10**3, 10**6]))
    jobs = tuple(
        Job(i, F(draw(st.integers(0, 8))), F(draw(st.integers(0, r_max))))
        for i in range(1, n + 1)
    )
    return validate_instance(Instance(beta, jobs))


def _dense_instance(beta, others, late_alpha, ids) -> Instance:
    """The jobs ``others`` ((alpha, release) pairs) plus one with fixed part
    ``late_alpha`` released after every completion the others can reach,
    so no state without it closes: the DP expands about half the subsets
    and closes the rest as soon as it reaches them.  ``ids`` names the jobs,
    the late one last."""
    # by induction a completion after k of the others is at most
    # g**k * (k * r_max + the sum of their alphas)
    g, m = 1 + beta, len(others)
    late = g**m * (m * max(r for _, r in others) + sum(a for a, _ in others)) + 1
    jobs = list(others) + [(late_alpha, late)]
    return make_instance(beta, [(i, a, r) for i, (a, r) in zip(ids, jobs)])


@st.composite
def dense_instances(draw, max_n=7):
    n = draw(st.integers(2, max_n))
    beta = draw(st.one_of(odd_denominator_betas, betas))
    others = [(draw(small_rationals), draw(small_rationals)) for _ in range(n - 1)]
    ids = draw(st.permutations(range(1, n + 1)))
    return _dense_instance(beta, others, draw(small_rationals), ids)


class TestDpMatchesFullTable:
    @settings(max_examples=400, deadline=None)
    @given(
        inst=st.one_of(
            instances(max_n=12),
            tie_heavy_instances(max_n=12),
            family_instances(max_jobs=12),
            rational_tie_heavy_instances(),
            far_release_instances(),
            dense_instances(max_n=10),
        )
    )
    def test_same_value(self, inst):
        assert dp_min_makespan(inst) == _reference_dp_min_makespan(inst)

    @settings(max_examples=40, deadline=None)
    @given(inst=dense_instances())
    def test_dense_agrees_with_enumeration(self, inst):
        assert dp_min_makespan(inst) == brute_force(inst, Objective.MAKESPAN).best_value

    def test_dense_eight_jobs(self):
        # brute force takes seconds per dense instance at n=8, so one
        # fixed instance covers that size; beta's denominator 7 makes the
        # DP's time scale 7**8
        others = [(F(k % 3, 2), F(5 * k % 8)) for k in range(7)]
        inst = _dense_instance(F(2, 7), others, F(1), [3, 8, 1, 6, 2, 7, 5, 4])
        assert dp_min_makespan(inst) == brute_force(inst, Objective.MAKESPAN).best_value

    def test_closes_at_the_empty_mask(self):
        # every job is released at 0, so the ascending-alpha finish from 0
        # is the whole answer; at n = DP_MAX_N nothing is expanded
        inst = make_instance(F(1, 2), [(i, (5 * i) % 7, 0) for i in range(1, DP_MAX_N + 1)])
        alphas = [job.alpha for job in inst.jobs]
        assert dp_min_makespan(inst) == sorted_subset_cost(inst.beta, alphas, 0)
        small = make_instance(F(1, 2), [(i, (5 * i) % 7, 0) for i in range(1, 9)])
        assert dp_min_makespan(small) == _reference_dp_min_makespan(small)

    def test_optimum_closes_only_at_the_full_mask(self):
        # in the order 1, 2, 3, 4 each job completes before the next release
        # (0 -> 2 -> 6 -> 14), so every prefix of the optimal order is open;
        # every state that closes earlier finishes later than 14
        inst = make_instance(1, [(1, 0, 0), (2, 0, 1), (3, 0, 3), (4, 0, 7)])
        assert dp_min_makespan(inst) == _reference_dp_min_makespan(inst) == F(14)
        assert brute_force(inst, Objective.MAKESPAN).best_schedule.order == (1, 2, 3, 4)


class TestOrderMatchesBackwardTable:
    @settings(max_examples=300, deadline=None)
    @given(
        inst=st.one_of(
            instances(max_n=12),
            tie_heavy_instances(max_n=12),
            rational_tie_heavy_instances(),
            far_release_instances(),
            dense_instances(max_n=10),
            family_instances(max_jobs=12),
        )
    )
    def test_same_order(self, inst):
        result = optimum(inst, Objective.MAKESPAN, max_n=DP_MAX_N)
        assert result == _reference_makespan_optimum(inst)


@st.composite
def spread_release_instances(draw, max_n=12):
    """The order walk's slow regime: alphas in 0..8, releases in 0..8n and
    beta = 1/n, so states stay open deep into the lattice."""
    n = draw(st.integers(1, max_n))
    jobs = tuple(
        Job(i, F(draw(st.integers(0, 8))), F(draw(st.integers(0, 8 * n))))
        for i in range(1, n + 1)
    )
    return validate_instance(Instance(F(1, n), jobs))


PRUNED_DP_INSTANCES = st.one_of(
    instances(max_n=6),
    tie_heavy_instances(),
    rational_tie_heavy_instances(max_n=7),
    family_instances(),
    spread_release_instances(max_n=7),
    coprime_instances(),
)


class _Iterations(list):
    """A list that counts the loops run over it: :func:`_finish` loops
    over ``latest_first`` once per state it visits, and over ``by_alpha``
    once per state it closes."""

    count = 0

    def __iter__(self):
        self.count += 1
        return super().__iter__()


def _ectf_bound(inst: Instance) -> int:
    makespan = run(inst, SchedulerChoice.ECTF).makespan
    return makespan.numerator * (_scaled(inst)[0] // makespan.denominator)


class TestPrunedDp:
    """The subset DP bounded by ECTF's makespan against the unpruned full
    table and brute force."""

    @settings(max_examples=200, deadline=None)
    @given(inst=PRUNED_DP_INSTANCES)
    def test_matches_reference_and_brute_force(self, inst):
        value = dp_min_makespan(inst)
        assert value == _reference_dp_min_makespan(inst)
        assert value == brute_force(inst, Objective.MAKESPAN).best_value

    @settings(max_examples=300, deadline=None)
    @given(inst=PRUNED_DP_INSTANCES, offset=st.sampled_from([-1, 0, 1]))
    def test_any_bound_is_an_incumbent(self, inst, offset):
        # from any incumbent, the result is the optimum if it beats it and
        # the incumbent itself otherwise
        lattice = _lattice(inst)
        best = _reference_dp_min_makespan(inst)
        best = best.numerator * (lattice.scale // best.denominator)
        for bound in (best + offset, 2 * _ectf_bound(inst) + 1):
            assert _finish(lattice, 0, 0, bound) == min(bound, best)

    def test_ectf_optimal_prunes_every_child(self):
        # ECTF runs job 1 then job 2, finishing at 3, and so does the
        # optimum.  Job 1 first completes at c = 1, job 2 first at c = 3;
        # with one job left, g * c + F_1 is 3 and 7, both at least 3, so
        # only the empty mask is visited and no state closes
        inst = make_instance(1, [(1, 1, 0), (2, 1, 1)])
        lattice = _lattice(inst)
        visited = _Iterations(lattice.latest_first)
        closed = _Iterations(lattice.by_alpha)
        lattice = lattice._replace(latest_first=visited, by_alpha=closed)
        bound = _ectf_bound(inst)
        assert _finish(lattice, 0, 0, bound) == bound
        assert (visited.count, closed.count) == (1, 0)
        # with a bound no child reaches, both children are stored and close
        assert _finish(lattice, 0, 0, 100 * bound) == bound
        assert (visited.count, closed.count) == (4, 2)
        assert dp_min_makespan(inst) == _reference_dp_min_makespan(inst) == F(3)

    def test_ectf_not_optimal(self):
        # ECTF runs 1, 2, 3 and finishes at 6; the optimum 1, 3, 2 at 4
        inst = make_instance(1, [(1, 0, 0), (2, 0, 1), (3, 2, 0)])
        assert run(inst, SchedulerChoice.ECTF).makespan == F(6)
        assert dp_min_makespan(inst) == _reference_dp_min_makespan(inst) == F(4)
        result = optimum(inst, Objective.MAKESPAN)
        assert result == brute_force(inst, Objective.MAKESPAN)
        assert result.best_schedule.order == (1, 3, 2)

    def test_shares_ectf_run(self):
        inst = make_instance(1, [(1, 0, 0), (2, 0, 1), (3, 2, 0)])
        runs = {}
        dp_min_makespan(inst, runs)
        record = runs[SchedulerChoice.ECTF]
        assert list(runs) == [SchedulerChoice.ECTF]
        assert dp_min_makespan(inst, runs) == F(4)
        assert runs[SchedulerChoice.ECTF] is record

    @settings(max_examples=150, deadline=None)
    @given(inst=st.one_of(spread_release_instances(), rational_tie_heavy_instances()))
    def test_order_matches_reference(self, inst):
        result = optimum(inst, Objective.MAKESPAN, max_n=DP_MAX_N)
        assert result == _reference_makespan_optimum(inst)


class TestOptimum:
    @settings(max_examples=200, deadline=None)
    @given(
        inst=st.one_of(
            instances(max_n=7, beta_strategy=st.sampled_from([F(1, 2), F(1), F(2), F(3, 7)])),
            tie_heavy_instances(),
            family_instances(),
        )
    )
    def test_makespan_matches_brute_force(self, inst):
        # same order, starts and value: both keep the smallest optimal order by id
        assert optimum(inst, Objective.MAKESPAN) == brute_force(inst, Objective.MAKESPAN)

    @pytest.mark.parametrize(
        ("beta", "jobs", "order", "value"),
        [
            # job 1 first would start job 2 at 2, past its latest start of 3/2
            (1, [(1, 0, 1), (2, 3, 0)], (2, 1), F(6)),
            # job 2 before job 3 would have to start by 5/3, before its release at 2
            (F(1, 2), [(1, 0, 1), (2, 0, 2), (3, 3, 0)], (3, 1, 2), F(27, 4)),
        ],
    )
    def test_latest_starts_respect_releases(self, beta, jobs, order, value):
        result = optimum(make_instance(beta, jobs), Objective.MAKESPAN)
        assert (result.best_schedule.order, result.best_value) == (order, value)

    def test_total_completion_is_brute_force(self, two_job_instance):
        result = optimum(two_job_instance, Objective.TOTAL_COMPLETION)
        assert result == brute_force(two_job_instance, Objective.TOTAL_COMPLETION)

    def test_makespan_past_the_brute_force_ceiling(self):
        # n=12 with a raised cap: the subset DP's order is optimal
        inst = make_instance(F(1, 2), [(i, (7 * i) % 5, (3 * i) % 11) for i in range(1, 13)])
        result = optimum(inst, Objective.MAKESPAN, max_n=25)
        assert result.best_value == dp_min_makespan(inst)
        assert evaluate(inst, result.best_schedule).makespan == result.best_value

    @pytest.mark.parametrize(
        ("objective", "n", "max_n", "message"),
        [
            (Objective.MAKESPAN, DP_MAX_N + 1, 25, f"subset-DP cap of {DP_MAX_N}"),
            (Objective.MAKESPAN, 4, 3, "subset-DP cap of 3"),
            (
                Objective.TOTAL_COMPLETION,
                BRUTE_FORCE_MAX_N + 1,
                25,
                f"brute-force cap of {BRUTE_FORCE_MAX_N}",
            ),
        ],
    )
    def test_caps(self, objective, n, max_n, message):
        inst = make_instance(1, [(i, 1, 0) for i in range(1, n + 1)])
        with pytest.raises(InstanceTooLarge, match=message):
            optimum(inst, objective, max_n=max_n)


# The Fraction bodies that the integer Horner loops replaced, kept as the
# references the bounds must match exactly, errors included.

def _reference_lb_release(instance: Instance) -> Fraction:
    total = ZERO
    for release in sorted(j.release for j in instance.jobs):
        total = total * instance.beta + release
    return total


def _reference_sorted_subset_cost(beta, alphas, t) -> Fraction:
    beta = rational(beta)
    if beta <= 0:
        raise InvalidArgument(f"beta must be > 0, got {beta}")
    t = rational(t)
    if t < 0:
        raise InvalidArgument(f"t must be >= 0, got {t}")
    g = 1 + beta
    completion = t
    for alpha in sorted(rational(a) for a in alphas):
        if alpha < 0:
            raise InvalidArgument(f"alpha must be >= 0, got {alpha}")
        completion = alpha + g * completion
    return completion


# ints, and Fractions over denominators 1 to 12
mixed_values = st.one_of(
    st.integers(0, 40),
    st.builds(Fraction, st.integers(0, 60), st.integers(1, 12)),
)
mixed_betas = st.one_of(
    st.integers(1, 5),
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 12)),
)
BOUND_ERRORS = (InvalidArgument, NotRational)


class TestBoundsMatchReference:
    @settings(max_examples=300, deadline=None)
    @given(
        inst=st.one_of(
            instances(max_n=10),
            coprime_instances(),
            far_release_instances(),
            family_instances(max_jobs=12),
        )
    )
    def test_lb_release(self, inst):
        assert lb_release(inst) == _reference_lb_release(inst)

    @settings(max_examples=300, deadline=None)
    @given(
        beta=mixed_betas,
        alphas=st.lists(mixed_values, max_size=12),
        t=mixed_values,
    )
    def test_sorted_subset_cost(self, beta, alphas, t):
        value = sorted_subset_cost(beta, alphas, t)
        assert value == _reference_sorted_subset_cost(beta, alphas, t)
        assert type(value) is Fraction

    @pytest.mark.parametrize(
        "beta, alphas, t",
        [
            (0, [1], 0),
            (F(-1, 2), [1], 0),
            (1, [1], -1),
            (1, [1], F(-1, 3)),
            (1, [2, F(-1, 2), -3], 0),
            (F(0), [F(-1)], F(-1)),
            (1, [1, 0.5], 0),
            (1, [True], 0),
            (1.0, [1], 0),
            (1, [1], 0.0),
        ],
    )
    def test_same_errors(self, beta, alphas, t):
        with pytest.raises(BOUND_ERRORS) as expected:
            _reference_sorted_subset_cost(beta, alphas, t)
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            sorted_subset_cost(beta, alphas, t)


RECORD_INSTANCES = st.one_of(
    instances(max_n=10),
    tie_heavy_instances(max_n=12),
    rational_tie_heavy_instances(),
    coprime_instances(),
    family_instances(max_jobs=12),
)


class TestPreparedRecord:
    """The one integer record per instance against the per-call set-up it
    replaced, and every reader of it against its reference."""

    @settings(max_examples=300, deadline=None)
    @given(inst=RECORD_INSTANCES)
    def test_keys(self, inst):
        prepared = inst._prepared
        d = _reference_time_scale(inst)
        assert (prepared.p, prepared.q, prepared.d) == (
            inst.beta.numerator,
            inst.beta.denominator,
            d,
        )
        assert list(prepared.by_release) == _reference_by_release(inst, d)
        assert sorted(prepared.keys) == list(prepared.by_release)
        assert [jid for _, _, jid in prepared.keys] == [job.id for job in inst.jobs]

    @settings(max_examples=300, deadline=None)
    @given(inst=RECORD_INSTANCES)
    def test_scaled(self, inst):
        assert _scaled(inst) == _reference_scaled(inst)

    @settings(max_examples=300, deadline=None)
    @given(inst=RECORD_INSTANCES)
    def test_bounds(self, inst):
        assert lb_release(inst) == _reference_lb_release(inst)
        alphas = [job.alpha for job in inst.jobs]
        assert _lb_fixed(inst) == _reference_sorted_subset_cost(inst.beta, alphas, 0)

    def test_built_once_and_kept(self):
        inst = make_instance(F(1, 2), [(3, F(1, 3), 2), (1, 2, F(1, 2))])
        assert inst._prepared is inst._prepared
        assert inst._prepared == (1, 2, 6, ((12, 2, 3), (3, 12, 1)), ((3, 12, 1), (12, 2, 3)))


class TestLbRelease:
    def test_two_releases(self):
        inst = make_instance(1, [(1, 11, 10), (2, 10, 30)])
        assert lb_release(inst) == F(40)  # 1*10 + 30
        assert brute_force(inst, Objective.MAKESPAN).best_value == F(72)

    def test_all_zero_releases(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0)])
        assert lb_release(inst) == F(0)

    def test_beta_two(self):
        inst = make_instance(2, [(1, 0, 1), (2, 0, 1)])
        assert lb_release(inst) == F(3)  # 2*1 + 1

    def test_sorts_releases_ascending(self):
        # weights favor late releases; the formula must sort first
        inst = make_instance(2, [(1, 0, 5), (2, 0, 1)])
        assert lb_release(inst) == 2 * 1 + 5

    @settings(max_examples=200, deadline=None)
    @given(inst=instances(max_n=5))
    def test_below_optimum(self, inst):
        assert lb_release(inst) <= brute_force(inst, Objective.MAKESPAN).best_value


class TestSortedSubsetCost:
    def test_two_alphas(self):
        assert sorted_subset_cost(F(1), [F(1), F(2)], F(0)) == F(4)

    def test_empty_subset(self):
        assert sorted_subset_cost(F(1), [], F(7)) == F(7)

    def test_zero_alphas_from_one(self):
        assert sorted_subset_cost(F(1), [F(0), F(0)], F(1)) == F(4)

    def test_input_order_irrelevant(self):
        a = sorted_subset_cost(F(1), [F(3), F(1), F(2)], F(0))
        b = sorted_subset_cost(F(1), [F(1), F(2), F(3)], F(0))
        assert a == b == 4 * F(1) + 2 * F(2) + 1 * F(3)

    @settings(max_examples=200)
    @given(
        alphas=st.lists(st.integers(0, 9), min_size=1, max_size=6),
        beta=st.sampled_from([F(1, 2), F(1), F(2)]),
        t=st.integers(0, 5),
    )
    def test_ascending_beats_descending(self, alphas, beta, t):
        sorted_value = sorted_subset_cost(beta, [F(a) for a in alphas], F(t))
        c = F(t)
        for a in sorted(alphas, reverse=True):
            c = F(a) + (1 + beta) * c
        assert sorted_value <= c

    def test_validation(self):
        with pytest.raises(ValueError):
            sorted_subset_cost(F(0), [F(1)], F(0))
        with pytest.raises(ValueError):
            sorted_subset_cost(F(1), [F(1)], F(-1))
        with pytest.raises(ValueError):
            sorted_subset_cost(F(1), [F(-1)], F(0))

    # One digit past the limit, each value leaked a bare ValueError from
    # the message that names it.
    @pytest.mark.parametrize(
        "beta, alphas, t, message",
        [
            (-(10**4300), [1], 0, "beta must be > 0, got"),
            (1, [1], -(10**4300), "t must be >= 0, got"),
            (1, [1, -(10**4300)], 0, "alpha must be >= 0, got"),
        ],
        ids=["beta", "t", "alpha"],
    )
    def test_values_past_the_digit_limit(self, beta, alphas, t, message):
        with digit_limit(4300), pytest.raises(InvalidArgument) as raised:
            sorted_subset_cost(beta, alphas, t)
        assert str(raised.value) == f"{message} a 14285-bit value"


class TestLbCombined:
    def test_two_job_example(self, two_job_instance):
        # release bound 2, fixed-part bound 1+2*0 then 5+2*1 = 7
        assert lb_combined(two_job_instance) == F(7)

    def test_release_side_wins_with_zero_alphas(self):
        inst = make_instance(1, [(1, 0, 4), (2, 0, 9)])
        assert lb_combined(inst) == lb_release(inst) == F(13)

    def test_single_job(self):
        inst = make_instance(1, [(1, 3, 5)])
        assert lb_combined(inst) == F(5)
        assert brute_force(inst, Objective.MAKESPAN).best_value == F(13)

    @settings(max_examples=200, deadline=None)
    @given(inst=instances(max_n=5))
    def test_below_optimum(self, inst):
        assert lb_combined(inst) <= brute_force(inst, Objective.MAKESPAN).best_value


def _makespan_ratio(inst, sched):
    """A schedule's makespan over the brute-force optimum."""
    optimum = brute_force(inst, Objective.MAKESPAN).best_value
    return value_ratio(evaluate(inst, sched).makespan, optimum)


class TestApproximationRatio:
    def test_ectf_on_two_job(self, two_job_instance):
        sched = ectf(two_job_instance)
        assert _makespan_ratio(two_job_instance, sched) == F(15, 11)

    def test_optimal_schedule_is_one(self, two_job_instance):
        best = brute_force(two_job_instance, Objective.MAKESPAN).best_schedule
        assert _makespan_ratio(two_job_instance, best) == 1

    def test_non_idling_blocked_instance(self):
        inst = make_instance(1, [(1, 8, 0), (2, 0, 1), (3, 0, 1)])
        assert _makespan_ratio(inst, non_idling(inst)) == F(2)  # 32 over 16

    def test_zero_over_zero_is_one(self):
        inst = make_instance(1, [(1, 0, 0)])
        assert _makespan_ratio(inst, canonical_starts(inst, (1,))) == 1

    def test_degenerate_optimum(self):
        assert value_ratio(F(0), F(0)) == 1
        with pytest.raises(DegenerateOptimum):
            value_ratio(F(1), F(0))

    def test_degenerate_optimum_past_the_digit_limit(self):
        # the message's value leaked a bare ValueError
        with digit_limit(4300), pytest.raises(DegenerateOptimum) as raised:
            value_ratio(F(10**4300), F(0))
        assert str(raised.value) == "optimum is 0 but the value is a 14285-bit value"
