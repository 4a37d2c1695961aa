"""The four order-building policies, each a pure function of the instance.

Tie-breaking is pinned everywhere so repeated runs produce identical
schedules: the greedy policies prefer the smaller fixed part, then the
earlier release, then the smaller id; the completion-estimate policy
prefers the smaller estimate, then the smaller fixed part, then the
smaller id.  Ratio experiments on tie-heavy instances are sensitive to
these choices, so they are part of the contract, not a detail.

The three greedy policies are event loops that decide on integers.  Each
walks the instance's prepared keys (:class:`~detsched.model._Prepared`,
built once per instance and shared with the oracle), sorted by
``(R, A, id)``, and keeps a pointer to the first job not yet released.
``R = release * d`` and ``A = alpha * d`` are exact integers, with ``d``
the lcm of every alpha and release denominator, so every sort and heap
comparison orders and ties exactly as the Fractions would.  With
``beta = p/q``, the time is held as ``T / (d * q**k)``, where ``k``
counts the jobs run since the loop last jumped to a release:

- a jump to a release sets ``T = R`` and ``k = 0``;
- a job started at ``T`` completes at ``T' = A * q**(k+1) + (p + q) * T``,
  one step further, at scale ``d * q**(k+1)``;
- a release is reached when ``R * q**k <= T``.

``q**k`` is one rolling value.  No gcd runs and no Fraction is made in
the loop, and a value carries the bits of its own block only: the scale
restarts at every jump.

- Non-idling and non-interfering push every released job onto a heap
  keyed by ``(A, R, id)`` and take its head.  Non-interfering first walks
  the unreleased jobs from the pointer while ``R_m * q**(k+1) < T'``, that
  is, while their release falls before the candidate's completion; the
  first with a smaller ``A`` blocks the candidate, and the loop jumps to
  its release.
- ECTF keeps two heaps: released jobs keyed by ``(A, id)``, whose
  estimate is the completion ``T'``, and unreleased jobs keyed by
  ``((p + q) * R + q * A, A, id)``, which is ``d * q`` times the estimate
  ``(1 + beta) * release + alpha``.  The smaller of the two heads starts
  next, compared as ``(estimate, A, id)`` with the unreleased head's key
  brought to ``T'``'s scale as ``key * q**k``.  Starting an unreleased
  head is a jump: its completion is its key, at ``k = 1``.

Every job is pushed and popped at most twice, so the loops take
O(n log n) heap steps.  Non-interfering's blocking walk adds O(n) per
decision in the worst case, when many unreleased jobs with larger fixed
parts fall inside the candidate's window.

Both loops, the greedy one (:func:`_greedy`) and ECTF's (:func:`_ectf`),
return a :class:`PolicyRun`: the order, the exact makespan (one gcd per
run) and, per position, whether the loop jumped to that job's release
before starting it.  The starts are built from those flags only when
:attr:`PolicyRun.schedule` is first read.  :func:`run` is the one entry
point to the loops: it maps a :class:`SchedulerChoice` to its loop.
Best-of-two picks on the two greedy makespans there, so the pick builds
no schedule.  A caller that runs several policies on one instance, as the
experiment harness does per trial, passes a dict of runs and each loop
runs once.  The four public functions return the run's schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .model import Instance, Schedule, ZERO, canonical_starts


class SchedulerChoice(Enum):
    NON_IDLING = "non-idling"
    NON_INTERFERING = "non-interfering"
    BEST_OF_TWO = "best-of-two"
    ECTF = "ectf"


@dataclass(frozen=True)
class PolicyRun:
    """One policy loop's result: the order it chose, its exact makespan,
    and per position whether the loop jumped to that job's release before
    starting it."""

    instance: Instance = field(repr=False)
    order: tuple[int, ...]
    makespan: Fraction
    jumps: tuple[bool, ...]

    @cached_property
    def schedule(self) -> Schedule:
        """The run's schedule, built on first access and then kept.  Each
        start is the job's own release where the loop jumped to it, and the
        previous completion otherwise; every policy schedule is the
        canonical schedule of its order, so no comparison is needed."""
        jobs = self.instance.job_map()
        g = self.instance.growth
        completion = ZERO
        starts = []
        for jid, jumped in zip(self.order, self.jumps):
            job = jobs[jid]
            start = job.release if jumped else completion
            starts.append(start)
            completion = job.alpha + g * start
        return Schedule(self.order, tuple(starts))


def _greedy(instance: Instance, block: bool) -> PolicyRun:
    """Shortest pending job first; with ``block``, never start a job whose
    window ``(t, (1 + beta) * t + alpha)`` holds the release of a job with a
    strictly smaller fixed part, and jump to that release instead."""
    prepared = instance._prepared
    p, q, d, keys = prepared.p, prepared.q, prepared.d, prepared.by_release
    pq = p + q
    n = len(keys)
    i = 0
    # (A, R, id)
    pending: list[tuple[int, int, int]] = []
    # the time is T / (d * Q), with Q = q**k
    T, Q = 0, 1
    jumped = False
    order: list[int] = []
    jumps: list[bool] = []
    while len(order) < n:
        while i < n and keys[i][0] * Q <= T:
            r, a, jid = keys[i]
            heapq.heappush(pending, (a, r, jid))
            i += 1
        if not pending:
            T, Q, jumped = keys[i][0], 1, True
            continue
        a, _, jid = pending[0]
        Qq = Q * q
        completion = a * Qq + pq * T
        if block:
            # Releases from the pointer on are past T; the first smaller
            # fixed part in release order is the smallest blocking release.
            blocking = None
            for m in range(i, n):
                r, a_m, _ = keys[m]
                if not r * Qq < completion:
                    break
                if a_m < a:
                    blocking = r
                    break
            if blocking is not None:
                T, Q, jumped = blocking, 1, True
                continue
        heapq.heappop(pending)
        order.append(jid)
        jumps.append(jumped)
        T, Q, jumped = completion, Qq, False
    return PolicyRun(instance, tuple(order), Fraction(T, d * Q), tuple(jumps))


def non_idling(instance: Instance) -> Schedule:
    """Whenever the machine frees up, start the shortest pending job; never
    idle while something is pending.  If nothing is pending, advance to the
    next release."""
    return run(instance, SchedulerChoice.NON_IDLING).schedule


def non_interfering(instance: Instance) -> Schedule:
    """Like :func:`non_idling`, but refuse to start a job that would run over
    a shorter job's release; instead idle until that release and reconsider
    from scratch."""
    return run(instance, SchedulerChoice.NON_INTERFERING).schedule


def ectf(instance: Instance) -> Schedule:
    """Estimated-completion-time-first: repeatedly start the uncompleted job
    whose completion estimate ``(1 + beta) * max(t, release) + alpha`` is
    smallest, idling up to its release if needed."""
    return run(instance, SchedulerChoice.ECTF).schedule


def _ectf(instance: Instance) -> PolicyRun:
    """:func:`ectf`'s loop.  A chosen job's estimate is its completion, so
    the time ends at the makespan."""
    prepared = instance._prepared
    p, q, d, keys = prepared.p, prepared.q, prepared.d, prepared.by_release
    pq = p + q
    n = len(keys)
    i = 0
    # (A, id)
    released: list[tuple[int, int]] = []
    # ((p+q) * R + q * A, A, id, R): the first entry is d * q times the
    # estimate (1 + beta) * release + alpha.  R rides along for the release
    # test; ids are unique, so it is never compared.
    unreleased = [(pq * r + q * a, a, jid, r) for r, a, jid in keys]
    heapq.heapify(unreleased)
    started: set[int] = set()
    # the time is T / (d * Q), with Q = q**k
    T, Q = 0, 1
    order: list[int] = []
    jumps: list[bool] = []
    while len(order) < n:
        while i < n and keys[i][0] * Q <= T:
            _, a, jid = keys[i]
            if jid not in started:
                heapq.heappush(released, (a, jid))
            i += 1
        while unreleased and unreleased[0][3] * Q <= T:
            heapq.heappop(unreleased)
        Qq = Q * q
        best = None
        if released:
            a, jid = released[0]
            best, heap = (a * Qq + pq * T, a, jid), released
        jumped = False
        if unreleased:
            key, a, jid, _ = unreleased[0]
            # the key at the scale d * Q * q of the released head's estimate
            if best is None or (key * Q, a, jid) < best:
                best, heap, jumped = (key, a, jid), unreleased, True
        heapq.heappop(heap)
        T, _, jid = best
        Q = q if jumped else Qq
        started.add(jid)
        order.append(jid)
        jumps.append(jumped)
    return PolicyRun(instance, tuple(order), Fraction(T, d * Q), tuple(jumps))


def run(
    instance: Instance,
    choice: SchedulerChoice,
    runs: dict[SchedulerChoice, PolicyRun] | None = None,
) -> PolicyRun:
    """``choice``'s run on ``instance``.  ``runs`` holds earlier runs on this
    same instance: one already there is returned as it is, and a new one is
    recorded there.

    Best-of-two takes both greedy runs through ``runs`` and returns the one
    with the smaller makespan, non-idling on a tie: that record itself, not
    a copy."""
    if runs is None:
        runs = {}
    record = runs.get(choice)
    if record is None:
        if choice is SchedulerChoice.ECTF:
            record = _ectf(instance)
        elif choice is SchedulerChoice.BEST_OF_TWO:
            idling = run(instance, SchedulerChoice.NON_IDLING, runs)
            interfering = run(instance, SchedulerChoice.NON_INTERFERING, runs)
            record = idling if idling.makespan <= interfering.makespan else interfering
        else:
            record = _greedy(instance, block=choice is SchedulerChoice.NON_INTERFERING)
        runs[choice] = record
    return record


def best_of_two(instance: Instance) -> Schedule:
    """Run the non-idling and the non-interfering loops once each; keep the
    schedule with the smaller makespan (the non-idling one on a tie).  The
    loops return their makespans, so only the winner's schedule is built."""
    return run(instance, SchedulerChoice.BEST_OF_TWO).schedule


def earliest_release_order(instance: Instance) -> Schedule:
    """Reference heuristic: canonical schedule of the order sorted by
    (release, id).  Used as a feasible benchmark on instances too big or too
    contrived for the exact oracle."""
    order = [jid for _, jid in sorted((r, jid) for r, _, jid in instance._prepared.keys)]
    return canonical_starts(instance, order)


SCHEDULERS = {
    SchedulerChoice.NON_IDLING: non_idling,
    SchedulerChoice.NON_INTERFERING: non_interfering,
    SchedulerChoice.BEST_OF_TWO: best_of_two,
    SchedulerChoice.ECTF: ectf,
}
