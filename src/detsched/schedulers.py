"""The four order-building policies, each a pure function of the instance.

Tie-breaking is pinned everywhere so repeated runs produce identical
schedules: the greedy policies prefer the smaller fixed part, then the
earlier release, then the smaller id; the completion-estimate policy
prefers the smaller estimate, then the smaller fixed part, then the
smaller id.  Ratio experiments on tie-heavy instances are sensitive to
these choices, so they are part of the contract, not a detail.

The three greedy policies are event loops.  Each sorts the jobs once by
``(R, A, id)`` and keeps a pointer to the first job not yet released at
the current time ``t``.  ``R = release * d`` and ``A = alpha * d`` are
exact integers, with ``d`` the lcm of every alpha and release
denominator, so every sort and heap comparison is an int comparison that
orders and ties exactly as the Fractions would.  A release is compared
with the time ``t``, or with a candidate's completion, in ints too:
``R * den(t)`` against ``d * num(t)``.

- Non-idling and non-interfering push every released job onto a heap
  keyed by ``(A, R, id)`` and take its head.  Non-interfering first walks
  the unreleased jobs from the pointer while their release is below the
  candidate's completion ``(1 + beta) * t + alpha``; the first with a
  smaller ``A`` blocks the candidate, and ``t`` moves to its release.
- ECTF keeps two heaps: released jobs keyed by ``(A, id)``, whose
  estimate is ``(1 + beta) * t + alpha``, and unreleased jobs keyed by
  ``((p + q) * R + q * A, A, id)`` with ``beta = p/q``, which is ``q * d``
  times the estimate ``(1 + beta) * release + alpha``.  The smaller of
  the two heads, compared as ``(estimate, A, id)``, starts next; the
  unreleased head's estimate becomes a Fraction only for that comparison.

The time ``t`` stays a Fraction.  A completion after k jobs has a
denominator dividing ``d * q**k``, so one integer scale for all of ``t``
would be ``d * q**n``: every step, the first included, would carry the
bits that only the last one needs, where a Fraction carries only the
bits its value has.

Every job is pushed and popped at most twice, so the loops take
O(n log n) heap steps.  Non-interfering's blocking walk adds O(n) per
decision in the worst case, when many unreleased jobs with larger fixed
parts fall inside the candidate's window.

The greedy loop ends with ``t`` at the last completion, so it returns the
makespan with the schedule.  Best-of-two runs the loop once per variant
and picks on those makespans (:func:`_pick_best_of_two`, the one place
its tie rule lives) without evaluating either schedule; the experiment
harness calls the same pick on the greedy runs its other rows share.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction

from .model import (
    Instance,
    Job,
    Schedule,
    ZERO,
    _scale_int,
    _time_scale,
    canonical_starts,
)


class SchedulerChoice(Enum):
    NON_IDLING = "non-idling"
    NON_INTERFERING = "non-interfering"
    BEST_OF_TWO = "best-of-two"
    ECTF = "ectf"


def _by_release(instance: Instance, d: int) -> tuple[list[tuple[int, int, int]], list[Job]]:
    """The keys ``(R, A, id)``, with ``R = release * d`` and ``A = alpha * d``
    exact integers, sorted, and the jobs in the same order."""
    keyed = sorted(
        (_scale_int(j.release, d), _scale_int(j.alpha, d), j.id, j) for j in instance.jobs
    )
    return [entry[:3] for entry in keyed], [entry[3] for entry in keyed]


def _greedy(instance: Instance, block: bool) -> tuple[Schedule, Fraction]:
    """Shortest pending job first; with ``block``, never start a job whose
    window ``(t, (1 + beta) * t + alpha)`` holds the release of a job with a
    strictly smaller fixed part, and jump to that release instead.  Returns
    the schedule and its makespan, the time ``t`` the loop ends at."""
    g = instance.growth
    d = _time_scale(instance)
    keys, jobs = _by_release(instance, d)
    n = len(jobs)
    i = 0
    # (A, R, id, position in release order)
    pending: list[tuple[int, int, int, int]] = []
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while len(order) < n:
        # release <= t, as R * den(t) <= d * num(t)
        t_den, t_num = t.denominator, d * t.numerator
        while i < n and keys[i][0] * t_den <= t_num:
            r, a, jid = keys[i]
            heapq.heappush(pending, (a, r, jid, i))
            i += 1
        if not pending:
            t = jobs[i].release
            continue
        a, _, jid, k = pending[0]
        completion = jobs[k].alpha + g * t
        if block:
            # Releases from the pointer on are > t; the first smaller fixed
            # part in release order is the smallest blocking release.
            blocking = None
            c_den, c_num = completion.denominator, d * completion.numerator
            for m in range(i, n):
                if not keys[m][0] * c_den < c_num:
                    break
                if keys[m][1] < a:
                    blocking = jobs[m].release
                    break
            if blocking is not None:
                t = blocking
                continue
        heapq.heappop(pending)
        order.append(jid)
        starts.append(t)
        t = completion
    return Schedule(tuple(order), tuple(starts)), t


def non_idling(instance: Instance) -> Schedule:
    """Whenever the machine frees up, start the shortest pending job; never
    idle while something is pending.  If nothing is pending, advance to the
    next release."""
    return _greedy(instance, block=False)[0]


def is_interfering(instance: Instance, candidate_id: int, t: int | Fraction) -> Fraction | None:
    """Would starting ``candidate_id`` at time ``t`` run over a shorter job's
    release?

    Returns the smallest release ``r`` with ``t < r < (1 + beta) * t +
    alpha_candidate`` among jobs with a strictly smaller fixed part, or
    ``None``.  Both inequalities are strict: a release exactly at ``t`` or
    exactly at the projected completion does not block.  An independent
    O(n) check of :func:`non_interfering`'s choices.
    """
    candidate = instance.job(candidate_id)
    horizon = instance.growth * t + candidate.alpha
    blocking = [
        job.release
        for job in instance.jobs
        if job.id != candidate_id
        and job.alpha < candidate.alpha
        and t < job.release < horizon
    ]
    return min(blocking) if blocking else None


def non_interfering(instance: Instance) -> Schedule:
    """Like :func:`non_idling`, but refuse to start a job that would run over
    a shorter job's release; instead idle until that release and reconsider
    from scratch."""
    return _greedy(instance, block=True)[0]


def ectf(instance: Instance) -> Schedule:
    """Estimated-completion-time-first: repeatedly start the uncompleted job
    whose completion estimate ``(1 + beta) * max(t, release) + alpha`` is
    smallest, idling up to its release if needed."""
    g = instance.growth
    p, q = instance.beta.numerator, instance.beta.denominator
    d = _time_scale(instance)
    scale = q * d
    keys, jobs = _by_release(instance, d)
    n = len(jobs)
    i = 0
    # (A, id, position in release order)
    released: list[tuple[int, int, int]] = []
    # ((p+q) * R + q * A, A, id, position): the first entry is q * d times
    # the estimate (1 + beta) * release + alpha.  The position rides along
    # for the job's Fractions; ids are unique, so it is never compared.
    unreleased = [
        ((p + q) * r + q * a, a, jid, k) for k, (r, a, jid) in enumerate(keys)
    ]
    heapq.heapify(unreleased)
    started: set[int] = set()
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while len(order) < n:
        # release <= t, as R * den(t) <= d * num(t)
        t_den, t_num = t.denominator, d * t.numerator
        while i < n and keys[i][0] * t_den <= t_num:
            _, a, jid = keys[i]
            if jid not in started:
                heapq.heappush(released, (a, jid, i))
            i += 1
        while unreleased and keys[unreleased[0][3]][0] * t_den <= t_num:
            heapq.heappop(unreleased)
        best = None
        if released:
            a, jid, k = released[0]
            best, s, heap = (jobs[k].alpha + g * t, a, jid), t, released
        if unreleased:
            key, a, jid, k = unreleased[0]
            estimate = (Fraction(key, scale), a, jid)
            if best is None or estimate < best:
                best, s, heap = estimate, jobs[k].release, unreleased
        heapq.heappop(heap)
        t, _, jid = best
        started.add(jid)
        order.append(jid)
        starts.append(s)
    return Schedule(tuple(order), tuple(starts))


def _pick_best_of_two(
    idling: tuple[Schedule, Fraction], interfering: tuple[Schedule, Fraction]
) -> tuple[Schedule, Fraction]:
    """Best-of-two's pick between the non-idling and the non-interfering
    ``(schedule, makespan)`` runs: the smaller makespan, non-idling on a
    tie.  Returns one of the two pairs itself, not a copy."""
    return idling if idling[1] <= interfering[1] else interfering


def best_of_two(instance: Instance) -> Schedule:
    """Run the non-idling and the non-interfering loops once each; keep the
    schedule with the smaller makespan (the non-idling one on a tie).  The
    loops return their makespans, so neither schedule is evaluated."""
    return _pick_best_of_two(
        _greedy(instance, block=False), _greedy(instance, block=True)
    )[0]


def earliest_release_order(instance: Instance) -> Schedule:
    """Reference heuristic: canonical schedule of the order sorted by
    (release, id).  Used as a feasible benchmark on instances too big or too
    contrived for the exact oracle."""
    d = _time_scale(instance)
    order = [j.id for j in sorted(instance.jobs, key=lambda j: (_scale_int(j.release, d), j.id))]
    return canonical_starts(instance, order)


SCHEDULERS = {
    SchedulerChoice.NON_IDLING: non_idling,
    SchedulerChoice.NON_INTERFERING: non_interfering,
    SchedulerChoice.BEST_OF_TWO: best_of_two,
    SchedulerChoice.ECTF: ectf,
}


def solve(instance: Instance, choice: SchedulerChoice) -> Schedule:
    """Dispatch to the scheduler named by ``choice``."""
    return SCHEDULERS[choice](instance)
