"""The four order-building policies, each a pure function of the instance.

Tie-breaking is pinned everywhere so repeated runs produce identical
schedules: the greedy policies prefer the smaller fixed part, then the
earlier release, then the smaller id; the completion-estimate policy
prefers the smaller estimate, then the smaller fixed part, then the
smaller id.  Ratio experiments on tie-heavy instances are sensitive to
these choices, so they are part of the contract, not a detail.

Non-idling, non-interfering and ECTF run one event loop, :func:`_loop`,
that decides on integers.  It walks the instance's prepared keys
(:class:`~detsched.model._Prepared`, built once per instance and shared
with the oracle), sorted by ``(R, A, id)``, and keeps a pointer to the
first job not yet released.  ``R = release * d`` and ``A = alpha * d``
are exact integers, with ``d`` the lcm of every alpha and release
denominator, so every sort and heap comparison orders and ties exactly as
the Fractions would.  With ``beta = p/q``, the time is held as
``T / (d * q**k)``, where ``k`` counts the jobs run since the loop last
jumped to a release:

- a jump to a release sets ``T = R`` and ``k = 0``;
- a job started at ``T`` completes at ``T' = A * q**(k+1) + (p + q) * T``,
  one step further, at scale ``d * q**(k+1)``;
- a release is reached when ``R * q**k <= T``.

``q**k`` is one rolling value.  No gcd runs and no Fraction is made in
the loop, and a value carries the bits of its own block only: the scale
restarts at every jump.

Released jobs wait on a heap.  Each decision takes its head, the job with
the smallest fixed part, unless the policy's rule sends the machine to a
later release first: then the loop jumps there and decides again.  With
nothing pending it jumps to the next release.  The three rules:

- Non-idling never jumps while a job is pending.  Its heap is keyed
  ``(A, R, id)``.
- Non-interfering, on the same heap, walks the unreleased jobs from the
  pointer while ``R_m * q**(k+1) < T'``, that is, while their release
  falls before the candidate's completion; the first with a smaller ``A``
  blocks the candidate, and the loop jumps to its release.
- ECTF keys its heap ``(A, 0, id)``: it ties released jobs on the id, not
  the release, and a released job's estimate is its completion ``T'``.
  A second heap holds the unreleased jobs, keyed
  ``((p + q) * R + q * A, A, id)``, which is ``d * q`` times the estimate
  ``(1 + beta) * release + alpha``; released entries are popped lazily.
  The loop jumps to the release ``r_j`` of its head ``j`` when
  ``(key * q**k, A_j, id_j) < (T', A, id)``, the key at ``T'``'s scale.

Deciding again at ``r_j`` is exact: ``j`` wins there, so it starts at
``r_j`` and completes at its estimate, as ECTF would start it from ``t``.

- A job released in ``(t, r_j]`` was unreleased at ``t``: its estimate
  is no smaller than ``j``'s and its release no later, so its fixed part
  is no smaller; if equal, so are its release and estimate, and ``j``
  wins on the id.
- A job released by ``t`` lost to ``j``: its completion from ``t`` is at
  least ``j``'s estimate, which exceeds ``(1 + beta) * t + alpha_j`` as
  ``r_j > t``, so its fixed part is larger.
- No unreleased job beat ``j``'s estimate at ``t``; none does at ``r_j``.

With nothing pending, the loop first jumps to the earliest release, and
the same argument applies from there.

Each job enters and leaves each heap at most once, and every jump
releases a job, so the loop takes O(n log n) heap steps.
Non-interfering's blocking walk adds O(n) per decision in the worst case,
when many unreleased jobs with larger fixed parts fall inside the
candidate's window.

The loop returns a :class:`PolicyRun`: the order and the exact makespan
(one gcd per run).  Every policy schedule is the canonical schedule of
its order, built only when :attr:`PolicyRun.schedule` is first read.
:func:`run`, the one entry point, picks best-of-two on the two greedy
makespans, so the pick builds no schedule.  A caller that runs several
policies on one instance, as the experiment harness does per trial,
passes it a dict of runs, and each policy runs once.  The four public
functions return the run's schedule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .model import Instance, Schedule, canonical_starts


class SchedulerChoice(Enum):
    NON_IDLING = "non-idling"
    NON_INTERFERING = "non-interfering"
    BEST_OF_TWO = "best-of-two"
    ECTF = "ectf"


@dataclass(frozen=True)
class PolicyRun:
    """One :func:`_loop` run: its policy's order and exact makespan."""

    instance: Instance = field(repr=False)
    order: tuple[int, ...]
    makespan: Fraction

    @cached_property
    def schedule(self) -> Schedule:
        """The run's schedule, built on first access and then kept: the
        canonical schedule of its order, as every policy schedule is."""
        return canonical_starts(self.instance, self.order)


def _loop(instance: Instance, choice: SchedulerChoice) -> PolicyRun:
    """``choice``'s loop: start the pending job with the smallest fixed part,
    unless ``choice``'s rule sends the machine to a later release first."""
    prepared = instance._prepared
    p, q, d, keys = prepared.p, prepared.q, prepared.d, prepared.by_release
    pq = p + q
    n = len(keys)
    i = 0
    block = choice is SchedulerChoice.NON_INTERFERING
    estimate = choice is SchedulerChoice.ECTF
    if estimate:
        # (d * q * estimate, A, id, R): R rides along for the jump; ids are
        # unique, so it is never compared.
        unreleased = [(pq * r + q * a, a, jid, r) for r, a, jid in keys]
        heapq.heapify(unreleased)
    # (A, R, id), or (A, 0, id) under ECTF
    pending: list[tuple[int, int, int]] = []
    # the time is T / (d * Q), with Q = q**k
    T, Q = 0, 1
    order: list[int] = []
    while len(order) < n:
        while i < n and keys[i][0] * Q <= T:
            r, a, jid = keys[i]
            heapq.heappush(pending, (a, 0 if estimate else r, jid))
            i += 1
        if not pending:
            T, Q = keys[i][0], 1
            continue
        a, _, jid = pending[0]
        Qq = Q * q
        completion = a * Qq + pq * T
        jump = None
        if block:
            # Releases from the pointer on are past T; the first smaller
            # fixed part in release order is the smallest blocking release.
            for m in range(i, n):
                r, a_m, _ = keys[m]
                if not r * Qq < completion:
                    break
                if a_m < a:
                    jump = r
                    break
        elif estimate:
            while unreleased and unreleased[0][3] * Q <= T:
                heapq.heappop(unreleased)
            if unreleased:
                key, a_j, j, r = unreleased[0]
                # the key at the scale d * Q * q of the pending head's estimate
                if (key * Q, a_j, j) < (completion, a, jid):
                    jump = r
        if jump is not None:
            T, Q = jump, 1
            continue
        heapq.heappop(pending)
        order.append(jid)
        T, Q = completion, Qq
    return PolicyRun(instance, tuple(order), Fraction(T, d * Q))


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


def run(
    instance: Instance,
    choice: SchedulerChoice,
    runs: dict[SchedulerChoice, PolicyRun] | None = None,
) -> PolicyRun:
    """``choice``'s run on ``instance``.  ``runs`` holds earlier runs on this
    same instance: one already there is returned as it is, and a new one is
    recorded there.

    Non-idling, non-interfering and ECTF are :func:`_loop` runs.
    Best-of-two takes both greedy runs through ``runs`` and returns the one
    with the smaller makespan, non-idling on a tie: that record itself, not
    a copy."""
    if runs is None:
        runs = {}
    record = runs.get(choice)
    if record is None:
        if choice is SchedulerChoice.BEST_OF_TWO:
            idling = run(instance, SchedulerChoice.NON_IDLING, runs)
            interfering = run(instance, SchedulerChoice.NON_INTERFERING, runs)
            record = idling if idling.makespan <= interfering.makespan else interfering
        else:
            record = _loop(instance, choice)
        runs[choice] = record
    return record


def best_of_two(instance: Instance) -> Schedule:
    """Run the non-idling and the non-interfering policies once each; keep
    the schedule with the smaller makespan (the non-idling one on a tie).
    The loop returns the makespans, so only the winner's schedule is built."""
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
