"""Exact optima for small instances, plus closed-form lower bounds.

:func:`optimum` is the one exact-optimum entry point.  Makespan runs on
the subset DP (:func:`dp_min_makespan` for the value, then a backward
table for the order), up to ``DP_MAX_N`` jobs; total completion runs on
:func:`brute_force`, up to ``BRUTE_FORCE_MAX_N`` jobs.  Both routes return
the lexicographically smallest optimal order by job id, so either one
certifies the same schedule.

The subset DP closes a state once no remaining job is released after the
state's completion time: it finishes the remaining jobs back to back in
ascending alpha, which an exchange argument shows is optimal (see
:func:`dp_min_makespan`), and does not expand the state.  In the worst
case, when nothing closes before the full set, it fills the whole
O(n * 2^n) table; when completions pass the last release after a few
jobs, as on random instances, it touches only the masks of those prefixes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .model import (
    Instance,
    InvalidArgument,
    Schedule,
    SchedulingError,
    ZERO,
    _scale_int,
    _time_scale,
    canonical_starts,
    evaluate,
    rational,
)


class Objective(Enum):
    MAKESPAN = "makespan"
    TOTAL_COMPLETION = "total-completion"


class InstanceTooLarge(SchedulingError):
    """Refusing to run an exponential oracle past its cap."""


class DegenerateOptimum(SchedulingError):
    """The optimum is zero but the evaluated schedule's value is not."""


# Default cap and hard ceiling on brute force, whatever cap a caller passes:
# n=9 already takes about 20 s, and each further job multiplies that by n.
BRUTE_FORCE_MAX_N = 10

# The integer table at n=20 holds 2^20 entries, about 40 MB.
DP_MAX_N = 20


@dataclass(frozen=True)
class OptResult:
    objective: Objective
    best_schedule: Schedule
    best_value: Fraction


def objective_value(instance: Instance, schedule: Schedule, objective: Objective) -> Fraction:
    report = evaluate(instance, schedule)
    if objective is Objective.MAKESPAN:
        return report.makespan
    return report.total_completion


def brute_force(
    instance: Instance,
    objective: Objective,
    max_n: int = BRUTE_FORCE_MAX_N,
) -> OptResult:
    """Enumerate all n! orders with canonical starts and keep the best.

    Ties go to the lexicographically smallest order (by job id), which the
    enumeration order makes automatic.  Raises :class:`InstanceTooLarge`
    when ``instance.n > min(max_n, BRUTE_FORCE_MAX_N)``, before enumerating.
    """
    cap = min(max_n, BRUTE_FORCE_MAX_N)
    if instance.n > cap:
        raise InstanceTooLarge(
            f"n={instance.n} exceeds the brute-force cap of {cap}"
        )
    jobs = instance.job_map()
    ids = sorted(jobs)
    g = instance.growth
    want_total = objective is Objective.TOTAL_COMPLETION
    best_perm: tuple[int, ...] | None = None
    best_value: Fraction | None = None
    for perm in itertools.permutations(ids):
        completion = ZERO
        total = ZERO
        for jid in perm:
            job = jobs[jid]
            s = job.release if job.release > completion else completion
            completion = job.alpha + g * s
            if want_total:
                total += completion
            elif best_value is not None and completion >= best_value:
                break  # completions only grow; this order cannot improve
        else:
            value = total if want_total else completion
            if best_value is None or value < best_value:
                best_value = value
                best_perm = perm
    assert best_perm is not None and best_value is not None
    return OptResult(
        objective=objective,
        best_schedule=canonical_starts(instance, best_perm),
        best_value=best_value,
    )


def _scaled(instance: Instance) -> tuple[int, int, int, list[tuple[int, int, int]]]:
    """The subset DP's integer time scale, shared by its forward and
    backward passes.

    Let ``d`` be the lcm of the alpha and release denominators and
    ``beta = p/q``.  Every release is a multiple of ``1/d``, and a
    completion after k steps is ``alpha + (p+q)/q * start``, so by
    induction its denominator divides ``d * q**k``.  Scaling time by
    ``L = d * q**n`` therefore makes every release, start and completion of
    an n-job subset an integer, and every start of a job placed k <= n deep
    is a multiple of ``q**(n-k+1)``, hence of ``q``.  The step
    ``alpha + S // q * (p+q)``, which is ``alpha + (p+q) * S / q``, is then
    exact.

    Returns ``(L, q, p+q, jobs)`` with one ``(bit, alpha, release)`` per
    job, in instance order, alpha and release scaled by ``L``.
    """
    q = instance.beta.denominator
    pq = instance.beta.numerator + q
    scale = _time_scale(instance) * q**instance.n
    jobs = [
        (1 << i, _scale_int(j.alpha, scale), _scale_int(j.release, scale))
        for i, j in enumerate(instance.jobs)
    ]
    return scale, q, pq, jobs


def dp_min_makespan(instance: Instance) -> Fraction:
    """Optimal makespan by dynamic programming over job subsets.

    ``best[S]`` is the earliest time the subset S can be completed; since
    completions are monotone in starts, finishing each prefix as early as
    possible is optimal.  One pass over the masks in increasing order pushes
    each reached ``best[S] = t`` to every child ``S + j`` as ``alpha_j +
    (1 + beta) * max(release_j, t)``, keeping the minimum; a mask never
    reached is skipped.

    A state is *closed* when no remaining job is released after ``t``.  It
    is not expanded: its remaining jobs run back to back in ascending
    alpha, and the result is the minimum over closed states.  That finish
    is optimal by exchange: jobs i then j started back to back at ``x``,
    both released by then, finish at ``A_j + g*A_i + g**2 * x`` with
    ``g = 1 + beta > 1``, so the smaller alpha goes first, and completions
    are monotone in starts, so each swap also helps every later job.  Every value computed is the makespan of a
    real order, and along an optimal order's prefixes the DP is at most
    that order up to its first closed prefix, whose finish is at most the
    rest of that order; so the minimum is the optimum.  The full mask is
    closed, so with no closure earlier this is the plain O(n * 2^n) DP;
    on instances whose completions pass the last release after a few jobs
    it touches only the masks of those prefixes.

    The loop runs on the exact integers of :func:`_scaled`, and the result
    is ``Fraction(best, L)``.  :func:`brute_force` stays on Fractions: it
    is the independent route that the tests and the certificate checks
    compare this DP against, so it must not share the scaling argument.
    Raises :class:`InstanceTooLarge` when ``instance.n > DP_MAX_N``, before
    the 2^n table is allocated.
    """
    n = instance.n
    if n > DP_MAX_N:
        raise InstanceTooLarge(f"n={n} exceeds the subset-DP cap of {DP_MAX_N}")
    scale, q, pq, jobs = _scaled(instance)
    latest_first = sorted(jobs, key=lambda job: job[2], reverse=True)
    by_alpha = sorted(jobs, key=lambda job: job[1])
    best: list[int | None] = [None] * (1 << n)
    best[0] = 0
    result = None
    # children are larger masks, so the iterator reads each one after its
    # last push
    for mask, t in enumerate(best):
        if t is None:
            continue
        last_release = -1  # stays -1 for the full mask
        for bit, _, release in latest_first:
            if not mask & bit:
                last_release = release
                break
        if last_release > t:
            for bit, alpha, release in jobs:
                if not mask & bit:
                    child = mask | bit
                    candidate = alpha + (release if release > t else t) // q * pq
                    known = best[child]
                    if known is None or candidate < known:
                        best[child] = candidate
        else:
            for bit, alpha, _ in by_alpha:
                if not mask & bit:
                    t = alpha + t // q * pq
            if result is None or t < result:
                result = t
    return Fraction(result, scale)


def _makespan_optimum(instance: Instance) -> OptResult:
    """The makespan optimum with the order :func:`brute_force` picks: the
    lexicographically smallest optimal order by job id.

    The value comes from :func:`dp_min_makespan`, whose table is freed
    before this one is built.  ``latest[R]`` is the latest free time from
    which the remaining set R can still finish by the optimum:
    ``latest[{}] = OPT``, and ``latest[R]`` is the max, over jobs j in R
    with ``release_j <= s_j``, of ``s_j = (latest[R - j] - alpha_j) * q //
    (p+q)``, or -1 when no job qualifies.  The floor is exact: a reachable
    start is a multiple of q, so a reachable completion is an integer, and
    an integer is at most x exactly when it is at most floor(x).  The walk
    then takes, at each step, the smallest id whose completion still
    leaves the rest finishable by the optimum.
    """
    value = dp_min_makespan(instance)
    scale, q, pq, jobs = _scaled(instance)
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


def check_optimum_cap(
    instance: Instance, objective: Objective, max_n: int = BRUTE_FORCE_MAX_N
) -> None:
    """Raise :class:`InstanceTooLarge` when :func:`optimum` would refuse
    ``instance``: past ``min(max_n, DP_MAX_N)`` jobs for makespan, past
    ``min(max_n, BRUTE_FORCE_MAX_N)`` for total completion."""
    if objective is Objective.MAKESPAN:
        route, cap = "subset-DP", min(max_n, DP_MAX_N)
    else:
        route, cap = "brute-force", min(max_n, BRUTE_FORCE_MAX_N)
    if instance.n > cap:
        raise InstanceTooLarge(f"n={instance.n} exceeds the {route} cap of {cap}")


def optimum(
    instance: Instance,
    objective: Objective,
    max_n: int = BRUTE_FORCE_MAX_N,
) -> OptResult:
    """An exact optimum and its schedule: the lexicographically smallest
    optimal order by job id, with canonical starts.

    Makespan runs on the subset DP, total completion on
    :func:`brute_force`.  Raises :class:`InstanceTooLarge` (see
    :func:`check_optimum_cap`) before anything is allocated.
    """
    check_optimum_cap(instance, objective, max_n)
    if objective is Objective.MAKESPAN:
        return _makespan_optimum(instance)
    return brute_force(instance, objective, max_n=max_n)


def lb_release(instance: Instance) -> Fraction:
    """Release-time lower bound on the optimal makespan.

    With releases sorted ascending as r_(1) <= ... <= r_(n), the optimum is
    at least ``sum beta**(n-i) * r_(i)``: every job started at or after its
    release inflates everything scheduled behind it.  The sum runs by
    Horner's rule over the ascending releases, one multiply per job.
    """
    total = ZERO
    for release in sorted(j.release for j in instance.jobs):
        total = total * instance.beta + release
    return total


def sorted_subset_cost(
    beta: int | Fraction, alphas: Sequence[int | Fraction], t: int | Fraction
) -> Fraction:
    """Cheapest completion of a job set started no earlier than ``t``,
    ignoring releases: run the fixed parts in ascending order back to back.

    Equals ``(1 + beta)**k * t + sum (1 + beta)**(k-i) * alpha_(i)`` with the
    alphas sorted ascending.  Returns ``t`` for an empty set.
    """
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


def lb_combined(instance: Instance) -> Fraction:
    """Max of the release-time bound and the sorted fixed-part bound."""
    fixed = sorted_subset_cost(instance.beta, [j.alpha for j in instance.jobs], 0)
    release = lb_release(instance)
    return fixed if fixed > release else release


def value_ratio(value: Fraction, optimum: Fraction) -> Fraction:
    """value / optimum with the degenerate cases pinned: 0/0 is ratio 1,
    a zero optimum against a nonzero value raises
    :class:`DegenerateOptimum`."""
    if optimum == 0:
        if value == 0:
            return Fraction(1)
        raise DegenerateOptimum(f"optimum is 0 but the value is {value}")
    return value / optimum
