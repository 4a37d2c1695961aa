"""The paper's lemma checks and reference routes, which no command needs.

Tests import them with ``from lemmas import ...``; pytest does not collect
this file.  Here are the rho- and weak-pseudomatching verifiers with their
bound checks, the closed-form makespan, the fixed-cost identity,
:func:`is_interfering` (an independent check of each non-interfering
choice) and :func:`lb_combined`.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from detsched import Instance, Schedule, evaluate, lb_release, sorted_subset_cost
from detsched.model import InvalidArgument, SchedulingError, ZERO, rational
from detsched.pseudomatching import Pseudomatching, Verification


class InvalidPseudomatching(SchedulingError):
    """A bound check was asked to certify with an invalid matching."""


def _as_value_map(values) -> dict[int, Fraction]:
    if isinstance(values, Mapping):
        items = values.items()
    else:
        # dense form: a sequence of values gets indices 1..k
        items = enumerate(values, start=1)
    return {int(index): rational(value) for index, value in items}


@dataclass(frozen=True)
class BoundingSets:
    """The two indexed value sets spanning a bounding graph.

    ``a_values`` and ``o_values`` map 1-based indices to positive values;
    a plain sequence is accepted and indexed 1..k.  ``n`` is the ambient
    exponent used by the weighted bound (indices must not exceed it).
    """

    a_values: dict[int, Fraction]
    o_values: dict[int, Fraction]
    n: int
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a_values", _as_value_map(self.a_values))
        object.__setattr__(self, "o_values", _as_value_map(self.o_values))
        object.__setattr__(self, "beta", rational(self.beta))
        if len(self.a_values) != len(self.o_values):
            raise InvalidArgument("the two sides must have equal cardinality")
        if self.beta <= 0:
            raise InvalidArgument(f"beta must be > 0, got {self.beta}")
        for side, values in (("a", self.a_values), ("o", self.o_values)):
            for index, value in values.items():
                if index < 1 or index > self.n:
                    raise InvalidArgument(f"{side}-index {index} outside 1..{self.n}")
                if value <= 0:
                    raise InvalidArgument(f"{side}[{index}] must be > 0, got {value}")


@dataclass(frozen=True)
class BoundCheck:
    lhs: Fraction
    rhs: Fraction
    holds: bool


def _shared_violation(sets: BoundingSets, matching: Pseudomatching) -> str | None:
    """The checks both pseudomatching kinds share, first violation first:
    every edge joins known indices, and every a-index is matched exactly
    once."""
    for i, j in matching.edges:
        if i not in sets.a_values:
            return f"edge ({i},{j}) references unknown a-index {i}"
        if j not in sets.o_values:
            return f"edge ({i},{j}) references unknown o-index {j}"
    a_counts = Counter(i for i, _ in matching.edges)
    for i in sorted(sets.a_values):
        if a_counts[i] != 1:
            return f"a-index {i} matched {a_counts[i]} times (expected exactly 1)"
    return None


def verify_rho_pm(
    sets: BoundingSets, matching: Pseudomatching, rho: int | Fraction
) -> Verification:
    """Check the three rho-pseudomatching conditions, reporting the first
    violated one.

    Conditions: every a-index matched exactly once; every o-index used at
    most floor(rho) times (a fractional capacity cannot be partially used);
    ``a_i <= o_j`` on every edge.
    """
    rho = rational(rho)
    if rho < 1:
        raise InvalidArgument(f"rho must be >= 1, got {rho}")
    cap = math.floor(rho)
    bad = _shared_violation(sets, matching)
    if bad:
        return Verification(False, bad)
    o_counts = Counter(j for _, j in matching.edges)
    for j, count in sorted(o_counts.items()):
        if count > cap:
            return Verification(False, f"o-index {j} used {count} times (capacity {cap})")
    for i, j in matching.edges:
        if sets.a_values[i] > sets.o_values[j]:
            return Verification(
                False,
                f"edge ({i},{j}) decreases: a={sets.a_values[i]} > o={sets.o_values[j]}",
            )
    return Verification(True)


def rho_bound_check(
    sets: BoundingSets, matching: Pseudomatching, rho: int | Fraction
) -> BoundCheck:
    """Certify ``sum(A) <= rho * sum(O)`` through a rho-pseudomatching."""
    verdict = verify_rho_pm(sets, matching, rho)
    if not verdict:
        raise InvalidPseudomatching(verdict.violation)
    lhs = sum(sets.a_values.values(), ZERO)
    rhs = rational(rho) * sum(sets.o_values.values(), ZERO)
    return BoundCheck(lhs, rhs, lhs <= rhs)


def verify_weak_pm(sets: BoundingSets, matching: Pseudomatching) -> Verification:
    """Check the weak-pseudomatching conditions, reporting the first violated
    one: every a-index matched exactly once, and every edge has ``i > j``
    with ``a_i <= o_j``.  O-side multiplicity is unrestricted."""
    bad = _shared_violation(sets, matching)
    if bad:
        return Verification(False, bad)
    for i, j in matching.edges:
        if i <= j:
            return Verification(False, f"edge ({i},{j}) must have i > j")
        if sets.a_values[i] > sets.o_values[j]:
            return Verification(
                False,
                f"edge ({i},{j}) decreases: a={sets.a_values[i]} > o={sets.o_values[j]}",
            )
    return Verification(True)


def weak_bound_check(sets: BoundingSets, matching: Pseudomatching) -> BoundCheck:
    """Certify the weighted comparison through a weak pseudomatching.

    lhs: ``sum g**(n-i) * a_i`` over the A side.
    rhs: ``(1 + 1/beta) * sum g**(n-j) * o_j`` over the O side.
    Empty sides give (0, 0, True).
    """
    verdict = verify_weak_pm(sets, matching)
    if not verdict:
        raise InvalidPseudomatching(verdict.violation)
    g = 1 + sets.beta
    n = sets.n
    lhs = sum((g ** (n - i) * a for i, a in sets.a_values.items()), ZERO)
    rhs = (1 + 1 / sets.beta) * sum(
        (g ** (n - j) * o for j, o in sets.o_values.items()), ZERO
    )
    return BoundCheck(lhs, rhs, lhs <= rhs)


def makespan_closed_form(instance: Instance, schedule: Schedule) -> Fraction:
    """Makespan as a weighted sum of gaps and fixed parts.

    With ``g = 1 + beta`` and 1-based positions ``i`` of ``n``, returns
    ``sum g**(n-i+1) * q_i  +  sum g**(n-i) * alpha_i`` where ``q_i`` is the
    gap ahead of position ``i``, as :func:`evaluate` reports it (which also
    checks feasibility).  The sum never uses a completion time and must
    agree exactly with :func:`evaluate`'s makespan on every feasible
    schedule.
    """
    gaps = evaluate(instance, schedule).gaps
    jobs = instance.job_map()
    g = instance.growth
    n = len(schedule.order)
    total = ZERO
    for i, (jid, gap) in enumerate(zip(schedule.order, gaps), start=1):
        total += g ** (n - i + 1) * gap + g ** (n - i) * jobs[jid].alpha
    return total


def fixed_cost_identity(instance: Instance, schedule: Schedule) -> tuple[Fraction, Fraction]:
    """Both sides of the fixed-part cost identity for the schedule's order.

    lhs: ``sum g**(n-i) * alpha_i``.
    rhs: ``sum alpha_i`` plus, for each position ``k >= 2``,
    ``beta * g**(n-k)`` times the fixed parts ahead of ``k``.

    The two sides are equal for every order; returning both lets callers
    check the algebra rather than trust it.
    """
    evaluate(instance, schedule)  # feasibility gate
    jobs = instance.job_map()
    g = instance.growth
    alphas = [jobs[jid].alpha for jid in schedule.order]
    n = len(alphas)
    lhs = sum((g ** (n - i) * a for i, a in enumerate(alphas, start=1)), ZERO)
    rhs = sum(alphas, ZERO)
    prefix = ZERO
    for k in range(2, n + 1):
        prefix += alphas[k - 2]
        rhs += instance.beta * g ** (n - k) * prefix
    return lhs, rhs


def is_interfering(instance: Instance, candidate_id: int, t: int | Fraction) -> Fraction | None:
    """Would starting ``candidate_id`` at time ``t`` run over a shorter job's
    release?

    Returns the smallest release ``r`` with ``t < r < (1 + beta) * t +
    alpha_candidate`` among jobs with a strictly smaller fixed part, or
    ``None``.  Both inequalities are strict: a release exactly at ``t`` or
    exactly at the projected completion does not block.  An independent
    O(n) check of the non-interfering policy's choices.
    """
    candidate = instance.job_map()[candidate_id]
    horizon = instance.growth * t + candidate.alpha
    blocking = [
        job.release
        for job in instance.jobs
        if job.id != candidate_id
        and job.alpha < candidate.alpha
        and t < job.release < horizon
    ]
    return min(blocking) if blocking else None


def lb_combined(instance: Instance) -> Fraction:
    """Max of the release-time bound and the sorted fixed-part bound."""
    fixed = sorted_subset_cost(instance.beta, [j.alpha for j in instance.jobs], 0)
    release = lb_release(instance)
    return fixed if fixed > release else release
