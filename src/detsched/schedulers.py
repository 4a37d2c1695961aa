"""The four order-building policies, each a pure function of the instance.

Tie-breaking is pinned everywhere so repeated runs produce identical
schedules: the greedy policies prefer the smaller fixed part, then the
earlier release, then the smaller id; the completion-estimate policy
prefers the smaller estimate, then the smaller fixed part, then the
smaller id.  Ratio experiments on tie-heavy instances are sensitive to
these choices, so they are part of the contract, not a detail.

The three greedy policies are event loops.  Each sorts the jobs once by
``(release, alpha, id)`` and keeps a pointer to the first job not yet
released at the current time ``t``.

- Non-idling and non-interfering push every released job onto a heap
  keyed by ``(alpha, release, id)`` and take its head.  Non-interfering
  first walks the unreleased jobs from the pointer while their release is
  below the candidate's completion ``(1 + beta) * t + alpha``; the first
  with a smaller fixed part blocks the candidate, and ``t`` moves to its
  release.
- ECTF keeps two heaps: released jobs keyed by ``(alpha, id)``, whose
  estimate is ``(1 + beta) * t + alpha``, and unreleased jobs keyed by
  ``((1 + beta) * release + alpha, alpha, id)``.  The smaller of the two
  heads, compared as ``(estimate, alpha, id)``, starts next.

Every job is pushed and popped at most twice, so the loops take
O(n log n) heap steps.  Non-interfering's blocking walk adds O(n) per
decision in the worst case, when many unreleased jobs with larger fixed
parts fall inside the candidate's window.
"""

from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction

from .model import (
    Instance,
    Schedule,
    ZERO,
    evaluate,
    canonical_starts,
    validate_instance,
)


class SchedulerChoice(Enum):
    NON_IDLING = "non-idling"
    NON_INTERFERING = "non-interfering"
    BEST_OF_TWO = "best-of-two"
    ECTF = "ectf"


def _greedy(instance: Instance, block: bool) -> Schedule:
    """Shortest pending job first; with ``block``, never start a job whose
    window ``(t, (1 + beta) * t + alpha)`` holds the release of a job with a
    strictly smaller fixed part, and jump to that release instead."""
    validate_instance(instance)
    g = instance.growth
    by_release = sorted(instance.jobs, key=lambda j: (j.release, j.alpha, j.id))
    n = len(by_release)
    i = 0
    pending: list[tuple[Fraction, Fraction, int]] = []
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while len(order) < n:
        while i < n and by_release[i].release <= t:
            job = by_release[i]
            heapq.heappush(pending, (job.alpha, job.release, job.id))
            i += 1
        if not pending:
            t = by_release[i].release
            continue
        alpha, _, jid = pending[0]
        completion = alpha + g * t
        if block:
            # Releases from the pointer on are > t; the first smaller fixed
            # part in release order is the smallest blocking release.
            blocking = None
            for k in range(i, n):
                if not by_release[k].release < completion:
                    break
                if by_release[k].alpha < alpha:
                    blocking = by_release[k].release
                    break
            if blocking is not None:
                t = blocking
                continue
        heapq.heappop(pending)
        order.append(jid)
        starts.append(t)
        t = completion
    return Schedule(tuple(order), tuple(starts))


def non_idling(instance: Instance) -> Schedule:
    """Whenever the machine frees up, start the shortest pending job; never
    idle while something is pending.  If nothing is pending, advance to the
    next release."""
    return _greedy(instance, block=False)


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
    return _greedy(instance, block=True)


def ectf(instance: Instance) -> Schedule:
    """Estimated-completion-time-first: repeatedly start the uncompleted job
    whose completion estimate ``(1 + beta) * max(t, release) + alpha`` is
    smallest, idling up to its release if needed."""
    validate_instance(instance)
    g = instance.growth
    by_release = sorted(instance.jobs, key=lambda j: (j.release, j.alpha, j.id))
    n = len(by_release)
    i = 0
    released: list[tuple[Fraction, int]] = []
    # The release rides along for lazy deletion; ids are unique, so it is
    # never compared.
    unreleased = [(g * j.release + j.alpha, j.alpha, j.id, j.release) for j in by_release]
    heapq.heapify(unreleased)
    started: set[int] = set()
    t = ZERO
    order: list[int] = []
    starts: list[Fraction] = []
    while len(order) < n:
        while i < n and by_release[i].release <= t:
            job = by_release[i]
            if job.id not in started:
                heapq.heappush(released, (job.alpha, job.id))
            i += 1
        while unreleased and unreleased[0][3] <= t:
            heapq.heappop(unreleased)
        best = None
        if released:
            alpha, jid = released[0]
            best = (alpha + g * t, alpha, jid)
        if unreleased and (best is None or unreleased[0][:3] < best):
            estimate, alpha, jid, s = heapq.heappop(unreleased)
            best = (estimate, alpha, jid)
        else:
            heapq.heappop(released)
            s = t
        t, _, jid = best
        started.add(jid)
        order.append(jid)
        starts.append(s)
    return Schedule(tuple(order), tuple(starts))


def best_of_two(instance: Instance) -> Schedule:
    """Run both :func:`non_idling` and :func:`non_interfering`; keep the one
    with the smaller makespan (the non-idling result on a tie)."""
    a = non_idling(instance)
    b = non_interfering(instance)
    if evaluate(instance, a).makespan <= evaluate(instance, b).makespan:
        return a
    return b


def earliest_release_order(instance: Instance) -> Schedule:
    """Reference heuristic: canonical schedule of the order sorted by
    (release, id).  Used as a feasible benchmark on instances too big or too
    contrived for the exact oracle."""
    validate_instance(instance)
    order = [j.id for j in sorted(instance.jobs, key=lambda j: (j.release, j.id))]
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
