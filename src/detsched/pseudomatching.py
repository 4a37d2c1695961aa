"""Relaxed-matching machinery for charging one schedule's load to another's.

Two indexed sets of positive values span a complete bipartite "bounding
graph": an A side (values taken from a computed schedule) and an O side
(values taken from a reference schedule).  Relaxed matchings over that graph
certify load inequalities:

* a rho-pseudomatching (every A node matched exactly once, every O node used
  at most floor(rho) times, values non-decreasing along every edge)
  certifies ``sum(A) <= rho * sum(O)``;
* a weak pseudomatching (every A node matched exactly once, every edge
  strictly decreasing in index and non-decreasing in value) certifies the
  weighted comparison ``sum g**(n-i) * a_i <= (1 + 1/beta) * sum g**(n-j) *
  o_j`` with ``g = 1 + beta``.

:func:`construct_two_pm` builds a concrete 2-pseudomatching, position by
position, between the tail of a non-interfering schedule (everything after
its last critical position) and the growing prefix of an optimal schedule.
Each matched tail job has a fixed part no larger than its partner's, and no
optimal-prefix job absorbs more than two partners, so the tail's fixed-part
load never exceeds twice the optimal prefix load.  Every intermediate
matching is re-checked by :func:`check_two_pm`, which shares no code with
the constructor.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .model import (
    Instance,
    InvalidArgument,
    Schedule,
    SchedulingError,
    ZERO,
    _show,
    canonical_starts,
    evaluate,
    rational,
)
from .schedulers import non_interfering
from .generators import reduce_instance


class InvalidPseudomatching(SchedulingError):
    """A bound check was asked to certify with an invalid matching."""


class ConstructionFailed(SchedulingError):
    """The inductive construction hit a state its invariants forbid.

    Seeing this on a genuine non-interfering schedule versus a feasible
    reference schedule means an implementation bug.
    """


def _as_value_map(values) -> dict[int, Fraction]:
    if isinstance(values, Mapping):
        items = values.items()
    else:
        # dense form: a sequence of values gets indices 1..k
        items = enumerate(values, start=1)
    out: dict[int, Fraction] = {}
    for index, value in items:
        out[int(index)] = rational(value)
    return out


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
class Pseudomatching:
    """Edges of a bounding graph as (a-index, o-index) pairs."""

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "edges", tuple((int(i), int(j)) for i, j in self.edges)
        )


@dataclass(frozen=True)
class Verification:
    ok: bool
    violation: str | None = None

    def __bool__(self) -> bool:
        return self.ok


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
            return Verification(
                False, f"o-index {j} used {count} times (capacity {cap})"
            )
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


def last_critical_index(
    instance: Instance, algorithm_schedule: Schedule, optimal_schedule: Schedule
) -> int:
    """Largest position whose completion in the algorithm's schedule is no
    later than the same position's completion in the reference schedule;
    0 when no position qualifies."""
    algo = evaluate(instance, algorithm_schedule).completions
    ref = evaluate(instance, optimal_schedule).completions
    last = 0
    for k, (c_algo, c_ref) in enumerate(zip(algo, ref), start=1):
        if c_algo <= c_ref:
            last = k
    return last


@dataclass(frozen=True)
class PMConstructionReport:
    """Output of :func:`construct_two_pm`.

    ``instance``, ``ni_schedule``, and ``optimal_schedule`` are the pair the
    report actually refers to: when the input schedule had gaps they are the
    reduced instance and the two orders re-canonicalized on it, and
    ``reduced`` is True.  ``per_k_matchings[k]`` matches algorithm positions
    ``last_critical_index+1 .. k`` into reference positions ``1 .. k``;
    ``per_k_bound_lhs``/``per_k_bound_rhs`` list the certified fixed-part
    load sums for those k (ascending).
    """

    last_critical_index: int
    per_k_matchings: dict[int, Pseudomatching]
    per_k_bound_lhs: tuple[Fraction, ...]
    per_k_bound_rhs: tuple[Fraction, ...]
    instance: Instance
    ni_schedule: Schedule
    optimal_schedule: Schedule
    reduced: bool


def check_two_pm(
    instance: Instance,
    ni_schedule: Schedule,
    optimal_schedule: Schedule,
    ell: int,
    k: int,
    matching: Pseudomatching,
) -> Verification:
    """Independent validity check for one stage of the 2-pseudomatching
    construction.  Edges pair an algorithm position ``i`` (1-based, in
    ``ni_schedule``) with a reference position ``j`` (in
    ``optimal_schedule``); ``ell`` is the last critical position.

    Conditions checked, first violation reported:

    1. matched algorithm positions are exactly ``ell+1 .. k``, each once;
    2. a tail job also present in the reference prefix is matched to itself;
    3. a tail job absent from the reference prefix is matched to a different
       job, one that the algorithm runs after position ``ell``;
    4. reference nodes outside the algorithm's first k positions carry at
       most one edge; any reference node carries at most two edges, and at
       most one that is not its self-edge;
    5. every edge is weakly increasing in fixed part.

    Condition 3 deliberately allows the partner to sit inside the
    algorithm's first k positions: a cross edge planted while the partner
    was still outside survives the partner's later entry (the partner then
    also carries its own self-edge, which is what condition 4's two-edge
    allowance is for).
    """
    n = instance.n
    if not (0 <= ell <= n and ell + 1 <= k <= n):
        return Verification(False, f"stage k={k} outside {ell + 1}..{n}")
    jobs = instance.job_map()
    ni_pos = {jid: p for p, jid in enumerate(ni_schedule.order, start=1)}
    opt_order = optimal_schedule.order
    edges = list(matching.edges)

    for i, j in edges:
        if not (1 <= i <= k) or not (1 <= j <= k):
            return Verification(
                False, f"edge ({i},{j}) outside the stage-{k} prefix"
            )

    # condition 1
    matched_a = [i for i, _ in edges]
    expected = list(range(ell + 1, k + 1))
    if sorted(matched_a) != expected:
        return Verification(
            False,
            f"matched algorithm positions {sorted(matched_a)} != {expected}",
        )

    opt_prefix_jobs = {opt_order[j - 1] for j in range(1, k + 1)}
    partner_of = {i: j for i, j in edges}

    for i in expected:
        jid = ni_schedule.order[i - 1]
        j = partner_of[i]
        partner_jid = opt_order[j - 1]
        if jid in opt_prefix_jobs:
            # condition 2
            if partner_jid != jid:
                return Verification(
                    False,
                    f"position {i} (job {_show(jid)}) is in the reference prefix but "
                    f"matched to job {_show(partner_jid)}",
                )
        else:
            # condition 3
            if partner_jid == jid:
                return Verification(
                    False, f"position {i} (job {_show(jid)}) cannot self-match"
                )
            if ni_pos[partner_jid] <= ell:
                return Verification(
                    False,
                    f"position {i} matched into the critical prefix "
                    f"(job {_show(partner_jid)} at algorithm position {ni_pos[partner_jid]})",
                )

    # condition 4
    by_o: dict[int, list[int]] = {}
    for i, j in edges:
        by_o.setdefault(j, []).append(i)
    for j, a_list in sorted(by_o.items()):
        o_jid = opt_order[j - 1]
        cross = [i for i in a_list if ni_schedule.order[i - 1] != o_jid]
        if len(a_list) > 2 or len(cross) > 1:
            return Verification(
                False,
                f"reference position {j} carries {len(a_list)} edges "
                f"({len(cross)} cross)",
            )
        if ni_pos[o_jid] > k and len(a_list) > 1:
            return Verification(
                False,
                f"reference position {j} is outside the algorithm prefix but "
                f"carries {len(a_list)} edges",
            )

    # condition 5
    for i, j in edges:
        a_alpha = jobs[ni_schedule.order[i - 1]].alpha
        o_alpha = jobs[opt_order[j - 1]].alpha
        if a_alpha > o_alpha:
            return Verification(
                False,
                f"edge ({i},{j}) decreases: alpha {a_alpha} > {o_alpha}",
            )
    return Verification(True)


def construct_two_pm(
    instance: Instance,
    ni_schedule: Schedule,
    optimal_schedule: Schedule,
    reduce_gaps: bool = True,
) -> PMConstructionReport:
    """Build the stage-by-stage 2-pseudomatching between the non-interfering
    schedule's post-critical tail and the reference schedule's prefix.

    With ``reduce_gaps`` (the default), an input schedule containing idle
    gaps is first replaced by the gap-free pair on the reduced instance:
    releases are clamped so the non-interfering order replays without idling
    and the reference order is re-canonicalized on the same reduced
    releases.  ``reduce_gaps=False`` runs the induction directly on the
    given pair, which is sound for any schedule the non-interfering policy
    can emit.

    Stages k = ell+1 .. n each add the two entrants of stage k:

    * if the reference's k-th job already sits in the matched tail, its old
      edge is rewired to the new self-edge;
    * the algorithm's k-th job self-matches when the reference prefix
      contains it, otherwise it is matched to the lowest unmatched reference
      position whose job the algorithm has not yet run.

    Every stage is validated with :func:`check_two_pm` and its load sums are
    recorded.  Raises :class:`ConstructionFailed` if any invariant breaks.
    """
    report = evaluate(instance, ni_schedule)
    if reduce_gaps and any(q > 0 for q in report.gaps):
        reduced_instance = reduce_instance(instance, ni_schedule)
        ni = non_interfering(reduced_instance)
        opt = canonical_starts(reduced_instance, optimal_schedule.order)
        inst = reduced_instance
        reduced = True
    else:
        inst, ni, opt = instance, ni_schedule, optimal_schedule
        reduced = False

    ell = last_critical_index(inst, ni, opt)
    n = inst.n
    jobs = inst.job_map()
    ni_pos = {jid: p for p, jid in enumerate(ni.order, start=1)}
    opt_pos = {jid: p for p, jid in enumerate(opt.order, start=1)}
    alpha_at_ni = [jobs[jid].alpha for jid in ni.order]
    alpha_at_opt = [jobs[jid].alpha for jid in opt.order]

    edges: set[tuple[int, int]] = set()
    matchings: dict[int, Pseudomatching] = {}
    lhs_list: list[Fraction] = []
    rhs_list: list[Fraction] = []

    def add_edge(i: int, j: int) -> None:
        if alpha_at_ni[i - 1] > alpha_at_opt[j - 1]:
            raise ConstructionFailed(
                f"stage edge ({i},{j}) would decrease: "
                f"{alpha_at_ni[i - 1]} > {alpha_at_opt[j - 1]}"
            )
        edges.add((i, j))

    for k in range(ell + 1, n + 1):
        # the reference side's entrant (at k = ell+1 the tail is empty, so
        # there is nothing to rewire)
        entrant = opt.order[k - 1]
        p = ni_pos[entrant]
        if ell + 1 <= p <= k - 1:
            current = [(i, j) for (i, j) in edges if i == p]
            if len(current) != 1:
                raise ConstructionFailed(
                    f"stage {k}: position {p} holds {len(current)} edges"
                )
            edges.remove(current[0])
            add_edge(p, k)
        # the algorithm side's entrant
        jid = ni.order[k - 1]
        if opt_pos[jid] <= k:
            add_edge(k, opt_pos[jid])
        else:
            used = {j for (_, j) in edges}
            candidates = [
                j
                for j in range(1, k + 1)
                if j not in used and ni_pos[opt.order[j - 1]] > k
            ]
            if not candidates:
                raise ConstructionFailed(
                    f"stage {k}: every free reference position is exhausted"
                )
            add_edge(k, min(candidates))

        matching = Pseudomatching(tuple(sorted(edges)))
        verdict = check_two_pm(inst, ni, opt, ell, k, matching)
        if not verdict:
            raise ConstructionFailed(f"stage {k}: {verdict.violation}")
        lhs = sum(alpha_at_ni[ell:k], ZERO)
        rhs = 2 * sum(alpha_at_opt[:k], ZERO)
        if lhs > rhs:
            raise ConstructionFailed(
                f"stage {k}: load bound fails ({lhs} > {rhs})"
            )
        matchings[k] = matching
        lhs_list.append(lhs)
        rhs_list.append(rhs)

    return PMConstructionReport(
        last_critical_index=ell,
        per_k_matchings=matchings,
        per_k_bound_lhs=tuple(lhs_list),
        per_k_bound_rhs=tuple(rhs_list),
        instance=inst,
        ni_schedule=ni,
        optimal_schedule=opt,
        reduced=reduced,
    )
