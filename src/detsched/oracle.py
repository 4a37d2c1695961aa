"""Exact optima for small instances, plus closed-form lower bounds.

:func:`optimum` is the one exact-optimum entry point.  Makespan runs on
the subset DP up to ``DP_MAX_N`` jobs; total completion runs on
:func:`brute_force`, up to ``BRUTE_FORCE_MAX_N`` jobs.  Both routes return
the lexicographically smallest optimal order by job id, so either one
certifies the same schedule.

One forward subset DP, :func:`_finish`, gives both the makespan value
and its order: :func:`dp_min_makespan` runs it once from the empty mask,
and :func:`_makespan_optimum` runs it from each candidate prefix of the
order.  It keeps one dict per level, from each mask it reached to its
earliest completion, and closes a state once no remaining job is
released after the state's completion time.  It is bounded by an
incumbent, ECTF's makespan for the value and one past the optimum for
each probe of the order, and drops every state whose earliest possible
finish reaches it.  In the worst case, when nothing closes or is dropped
before the full set, it visits every mask, O(n * 2^n) steps; when
completions pass the last release after a few jobs, or the incumbent is
tight, as on random instances, it visits only a few masks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence

from .model import (
    Instance,
    InvalidArgument,
    Schedule,
    SchedulingError,
    ZERO,
    _show,
    canonical_starts,
    rational,
)
from .schedulers import PolicyRun, SchedulerChoice, run


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

# At n=20 the DP holds at most two levels, each at most C(20, 10) masks
# with their completions: with releases 3**j, where every mask is
# reached, its peak under tracemalloc was 42.2 MiB.
DP_MAX_N = 20


@dataclass(frozen=True)
class OptResult:
    objective: Objective
    best_schedule: Schedule
    best_value: Fraction


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
    """The subset DP's integer time scale, shared by the value and the
    order of the makespan optimum.

    Let ``d`` be the lcm of the alpha and release denominators and
    ``beta = p/q``, both read from the instance's prepared record
    (:class:`~detsched.model._Prepared`).  Every release is a multiple of
    ``1/d``, and a completion after k steps is ``alpha + (p+q)/q *
    start``, so by induction its denominator divides ``d * q**k``.
    Scaling time by ``L = d * q**n`` therefore makes every release, start
    and completion of an n-job subset an integer, and every start of a job
    placed k <= n deep is a multiple of ``q**(n-k+1)``, hence of ``q``.
    The step ``alpha + S // q * (p+q)``, which is ``alpha + (p+q) * S /
    q``, is then exact.

    Returns ``(L, q, p+q, jobs)`` with one ``(bit, alpha, release)`` per
    job, in instance order, alpha and release scaled by ``L``: the
    record's ``A`` and ``R`` times ``q**n``, with no Fraction touched.
    """
    prepared = instance._prepared
    q = prepared.q
    weight = q**instance.n
    jobs = [(1 << i, a * weight, r * weight) for i, (r, a, _) in enumerate(prepared.keys)]
    return prepared.d * weight, q, prepared.p + q, jobs


class _Lattice(NamedTuple):
    """The subset DP's per-instance tables, built once by
    :func:`_lattice` and shared by every :func:`_finish` call on the
    instance.

    ``scale``, ``q``, ``pq`` and ``jobs`` are :func:`_scaled`'s.
    ``latest_first`` and ``by_alpha`` are ``jobs`` sorted by release,
    latest first, and by alpha, smallest first.  ``floors[r]`` is
    ``(F_r, q**r, pq**r)``, where ``F_r`` is the completion of the r
    smallest alphas of the whole instance run back to back from 0.
    """

    scale: int
    q: int
    pq: int
    jobs: list[tuple[int, int, int]]
    latest_first: list[tuple[int, int, int]]
    by_alpha: list[tuple[int, int, int]]
    floors: list[tuple[int, int, int]]


def _lattice(instance: Instance) -> _Lattice:
    scale, q, pq, jobs = _scaled(instance)
    by_alpha = sorted(jobs, key=lambda job: job[1])
    floors = [(0, 1, 1)]
    for _, alpha, _ in by_alpha:
        floor, qr, pqr = floors[-1]
        # F_r is a completion of r jobs, so a multiple of q (see _scaled)
        floors.append((alpha + floor // q * pq, qr * q, pqr * pq))
    latest_first = sorted(jobs, key=lambda job: job[2], reverse=True)
    return _Lattice(scale, q, pq, jobs, latest_first, by_alpha, floors)


def _finish(lattice: _Lattice, mask: int, t: int, bound: int) -> int:
    """Earliest completion of the jobs outside ``mask`` when the machine
    is free from ``t``, on the integers of :func:`_scaled`, if it is below
    ``bound``; ``bound`` itself otherwise.

    A subset DP, level by level (by popcount) from ``{mask: t}``: each
    level maps every mask it reached to its earliest completion, and each
    state ``(S, t)`` is pushed to every child ``S + j`` as ``alpha_j + (1 +
    beta) * max(release_j, t)``, keeping the minimum.  Every parent of a
    level-(k+1) mask sits at level k, so a mask's value is final before it
    is expanded; since completions are monotone in starts, finishing each
    prefix as early as possible is optimal.

    A state is *closed* when no remaining job is released after ``t``.  It
    is not expanded: its remaining jobs run back to back in ascending
    alpha, and the result is the minimum over closed states.  That finish
    is optimal by exchange: jobs i then j started back to back at ``x``,
    both released by then, finish at ``A_j + g*A_i + g**2 * x`` with
    ``g = 1 + beta > 1``, so the smaller alpha goes first, and completions
    are monotone in starts, so each swap also helps every later job.
    Every value computed is the makespan of a real order, and along an
    optimal order's prefixes the DP is at most that order up to its first
    closed prefix, whose finish is at most the rest of that order; so the
    minimum is the optimum.

    A child is *pruned*, never stored, when no finish from it can beat the
    incumbent: ``bound`` at first, then the smallest closed finish found.
    With r jobs left after a child of completion ``c``, every finish is at
    least ``g**r * c + F_r`` (see :class:`_Lattice`), because the i-th
    smallest alpha of any r jobs is at least the i-th smallest of the
    instance.  In integers that bound reaches the incumbent ``U`` exactly when
    ``c * pq**r >= (U - F_r) * q**r``, that is when ``c`` reaches the
    ceiling of ``(U - F_r) * q**r / pq**r``: one cutoff per level and
    incumbent, then one comparison per child.  The optimal order's
    prefixes stay below every incumbent that the optimum does not reach,
    so the result is exact.  The full mask is closed, so with no closure
    or pruning earlier this is the plain O(n * 2^n) DP; on instances whose
    completions pass the last release after a few jobs, or where the
    incumbent is tight, it visits far fewer masks.

    ``t`` must be a completion of the jobs in ``mask`` in some order (0
    for the empty mask), so that every start is a multiple of ``q`` and
    each step is exact (see :func:`_scaled`).
    """
    _, q, pq, jobs, latest_first, by_alpha, floors = lattice
    result = bound
    left = len(jobs) - mask.bit_count()
    level = {mask: t}
    while level:
        left -= 1  # jobs left after a child of this level
        cutoff = None  # computed when first needed, again after each closure
        reached: dict[int, int] = {}
        for mask, t in level.items():
            last_release = -1  # stays -1 for the full mask
            for bit, _, release in latest_first:
                if not mask & bit:
                    last_release = release
                    break
            if last_release > t:
                if cutoff is None:
                    floor, qr, pqr = floors[left]
                    cutoff = -((floor - result) * qr // pqr)
                for bit, alpha, release in jobs:
                    if not mask & bit:
                        candidate = alpha + (release if release > t else t) // q * pq
                        if candidate >= cutoff:
                            continue
                        child = mask | bit
                        known = reached.get(child)
                        if known is None or candidate < known:
                            reached[child] = candidate
            else:
                for bit, alpha, _ in by_alpha:
                    if not mask & bit:
                        t = alpha + t // q * pq
                if t < result:
                    result, cutoff = t, None
        level = reached
    return result


def _incumbent(
    instance: Instance, lattice: _Lattice, runs: dict[SchedulerChoice, PolicyRun] | None
) -> int:
    """ECTF's makespan at the lattice's scale, from ``runs`` when ECTF
    already ran there (see :func:`~detsched.schedulers.run`).  It is the
    makespan of an order, so an integer there (see :func:`_scaled`)."""
    makespan = run(instance, SchedulerChoice.ECTF, runs).makespan
    return makespan.numerator * (lattice.scale // makespan.denominator)


def dp_min_makespan(
    instance: Instance, runs: dict[SchedulerChoice, PolicyRun] | None = None
) -> Fraction:
    """Optimal makespan by dynamic programming over job subsets:
    :func:`_finish` from the empty mask at time 0, bounded by ECTF's
    makespan, as ``Fraction(best, L)`` on the integers of :func:`_scaled`.
    When no finish beats ECTF's makespan, that makespan is the optimum
    and is the value returned.  ``runs`` is passed to
    :func:`~detsched.schedulers.run`, so a caller that keeps one dict of
    runs per instance, as the experiment harness does per trial, runs
    ECTF's loop once.

    :func:`brute_force` stays on Fractions: it is the independent route
    that the tests and the certificate checks compare this DP against, so
    it must not share the scaling argument.  Raises
    :class:`InstanceTooLarge` when ``instance.n > DP_MAX_N``, before any
    state is expanded.
    """
    n = instance.n
    if n > DP_MAX_N:
        raise InstanceTooLarge(f"n={n} exceeds the subset-DP cap of {DP_MAX_N}")
    lattice = _lattice(instance)
    best = _finish(lattice, 0, 0, _incumbent(instance, lattice, runs))
    return Fraction(best, lattice.scale)


def _makespan_optimum(instance: Instance) -> OptResult:
    """The makespan optimum with the order :func:`brute_force` picks: the
    lexicographically smallest optimal order by job id.

    The value is :func:`dp_min_makespan`'s, on the same tables.  The order
    is built one position at a time: with the jobs in ``done`` placed and
    the machine free from ``free``, it takes the smallest unplaced id
    whose completion still lets :func:`_finish` complete the rest by the
    optimum.  Each probe passes one past the optimum as its bound, so it
    prunes every state that cannot finish by the optimum and fails exactly
    when nothing does.  The optimal order's next job always qualifies, so
    some job does.
    """
    lattice = _lattice(instance)
    q, pq = lattice.q, lattice.pq
    best = _finish(lattice, 0, 0, _incumbent(instance, lattice, None))
    by_id = sorted(
        (job.id, bit, alpha, release)
        for job, (bit, alpha, release) in zip(instance.jobs, lattice.jobs)
    )
    order = []
    done = free = 0
    for _ in by_id:
        for jid, bit, alpha, release in by_id:
            if not done & bit:
                completion = alpha + (release if release > free else free) // q * pq
                if _finish(lattice, done | bit, completion, best + 1) <= best:
                    break
        else:
            raise AssertionError("no job leaves the rest finishable by the optimum")
        order.append(jid)
        done |= bit
        free = completion
    return OptResult(
        objective=Objective.MAKESPAN,
        best_schedule=canonical_starts(instance, tuple(order)),
        best_value=Fraction(best, lattice.scale),
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


def _horner(m: int, q: int, start: int, terms: list[int], d: int) -> Fraction:
    """``x = start / d``, then ``x = m/q * x + term / d`` for each term in
    turn, exactly and on integers: after k terms ``x * d * q**k`` is ``m``
    times its previous value plus ``term * q**k``.  The one Fraction, and
    so the one gcd, is built at the end."""
    total, weight = start, 1
    for term in terms:
        weight *= q
        total = total * m + term * weight
    return Fraction(total, d * weight)


def lb_release(instance: Instance) -> Fraction:
    """Release-time lower bound on the optimal makespan.

    With releases sorted ascending as r_(1) <= ... <= r_(n), the optimum is
    at least ``sum beta**(n-i) * r_(i)``: every job started at or after its
    release inflates everything scheduled behind it.  The sum runs by
    Horner's rule over the ascending releases, one multiply per job, on the
    integers of :func:`_horner`: the prepared record's ``R`` in its
    release order, over its ``d``.
    """
    prepared = instance._prepared
    releases = [r for r, _, _ in prepared.by_release]
    return _horner(prepared.p, prepared.q, 0, releases, prepared.d)


def _lb_fixed(instance: Instance) -> Fraction:
    """``sorted_subset_cost(beta, alphas, 0)`` for the instance's alphas,
    on the prepared record's ``A`` over its ``d``: the fixed-part lower
    bound on the optimal makespan."""
    prepared = instance._prepared
    alphas = sorted(a for _, a, _ in prepared.keys)
    return _horner(prepared.p + prepared.q, prepared.q, 0, alphas, prepared.d)


def sorted_subset_cost(
    beta: int | Fraction, alphas: Sequence[int | Fraction], t: int | Fraction
) -> Fraction:
    """Cheapest completion of a job set started no earlier than ``t``,
    ignoring releases: run the fixed parts in ascending order back to back.

    Equals ``(1 + beta)**k * t + sum (1 + beta)**(k-i) * alpha_(i)`` with the
    alphas sorted ascending.  Returns ``t`` for an empty set.  The
    recurrence ``C = alpha + (1 + beta) * C`` runs on the integers of
    :func:`_horner`.
    """
    beta = rational(beta)
    if beta <= 0:
        raise InvalidArgument(f"beta must be > 0, got {_show(beta)}")
    t = rational(t)
    if t < 0:
        raise InvalidArgument(f"t must be >= 0, got {_show(t)}")
    values = sorted(rational(a) for a in alphas)
    if values and values[0] < 0:
        raise InvalidArgument(f"alpha must be >= 0, got {_show(values[0])}")
    d = math.lcm(t.denominator, *(a.denominator for a in values))
    p, q = beta.numerator, beta.denominator
    terms = [a.numerator * (d // a.denominator) for a in values]
    return _horner(p + q, q, t.numerator * (d // t.denominator), terms, d)


def value_ratio(value: Fraction, optimum: Fraction) -> Fraction:
    """value / optimum with the degenerate cases pinned: 0/0 is ratio 1,
    a zero optimum against a nonzero value raises
    :class:`DegenerateOptimum`."""
    if optimum == 0:
        if value == 0:
            return Fraction(1)
        raise DegenerateOptimum(f"optimum is 0 but the value is {_show(value)}")
    return value / optimum
