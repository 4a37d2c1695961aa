"""Bounding-graph certificates and the staged tail-to-prefix construction.

The two verifiers are exercised with hand-built matchings (valid and each
violation kind); the bound checks get randomly generated *valid* matchings,
for which the certified inequality must hold unconditionally.  The staged
construction is replayed against hand-traced two- and three-job cases and a
random sweep where every stage must clear the independent checker.
"""

from __future__ import annotations

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import (
    BoundingSets,
    Objective,
    Pseudomatching,
    brute_force,
    canonical_starts,
    check_two_pm,
    construct_two_pm,
    evaluate,
    last_critical_index,
    non_interfering,
    rho_bound_check,
    verify_rho_pm,
    verify_weak_pm,
    weak_bound_check,
)
from detsched.pseudomatching import InvalidPseudomatching

from conftest import instances, make_instance

positive_rationals = st.builds(
    F, st.integers(min_value=1, max_value=24), st.sampled_from([1, 2, 3, 4])
)
shrink_factors = st.sampled_from([F(1, 3), F(1, 2), F(2, 3), F(1)])


@st.composite
def rho_pm_cases(draw):
    """A BoundingSets/matching/rho triple that is valid by construction.

    Each o-index is offered floor(rho) capacity slots; every a-value is its
    partner's value scaled down, so the value condition holds on each edge.
    """
    rho = draw(st.sampled_from([1, 2, 3, F(3, 2), F(5, 2)]))
    cap = math.floor(rho)
    m = draw(st.integers(min_value=1, max_value=6))
    o_vals = {j: draw(positive_rationals) for j in range(1, m + 1)}
    slots = [j for j in range(1, m + 1) for _ in range(cap)]
    partners = draw(st.permutations(slots))[:m]
    a_vals = {
        i: o_vals[j] * draw(shrink_factors)
        for i, j in enumerate(partners, start=1)
    }
    sets = BoundingSets(a_vals, o_vals, n=m, beta=draw(positive_rationals))
    matching = Pseudomatching(tuple(enumerate(partners, start=1)))
    return sets, matching, rho


@st.composite
def weak_pm_cases(draw):
    """A valid weak-pseudomatching case: sparse indices, every edge strictly
    index-decreasing and value-non-decreasing."""
    n = draw(st.integers(min_value=2, max_value=8))
    m = draw(st.integers(min_value=1, max_value=n - 1))
    a_idx = sorted(draw(st.permutations(range(2, n + 1)))[:m])
    o_idx = [i - 1 for i in a_idx]
    o_vals = {j: draw(positive_rationals) for j in o_idx}
    edges = []
    a_vals = {}
    for t, i in enumerate(a_idx):
        j = o_idx[draw(st.integers(min_value=0, max_value=t))]
        a_vals[i] = o_vals[j] * draw(shrink_factors)
        edges.append((i, j))
    beta = draw(st.sampled_from([F(1, 2), F(1), F(2), F(5)]))
    sets = BoundingSets(a_vals, o_vals, n=n, beta=beta)
    return sets, Pseudomatching(tuple(edges))


class TestBoundingSets:
    def test_dense_sequences_get_one_based_indices(self):
        sets = BoundingSets([F(1), F(2)], [F(3), F(4)], n=2, beta=F(1))
        assert sets.a_values == {1: F(1), 2: F(2)}
        assert sets.o_values == {1: F(3), 2: F(4)}

    def test_sparse_mappings_kept(self):
        sets = BoundingSets({2: F(1)}, {1: F(2)}, n=2, beta=F(1))
        assert sets.a_values == {2: F(1)}

    def test_cardinality_mismatch(self):
        with pytest.raises(ValueError, match="equal cardinality"):
            BoundingSets([F(1)], [F(1), F(2)], n=2, beta=F(1))

    def test_values_must_be_positive(self):
        with pytest.raises(ValueError, match=r"a\[1\] must be > 0"):
            BoundingSets([F(0)], [F(1)], n=1, beta=F(1))

    def test_index_range(self):
        with pytest.raises(ValueError, match="outside 1..1"):
            BoundingSets({2: F(1)}, {1: F(1)}, n=1, beta=F(1))

    def test_beta_positive(self):
        with pytest.raises(ValueError, match="beta"):
            BoundingSets([F(1)], [F(1)], n=1, beta=F(0))


class TestVerifyRhoPm:
    def test_accepts_doubled_o_node_at_rho_two(self):
        sets = BoundingSets([F(1), F(2)], [F(2), F(5)], n=2, beta=F(1))
        matching = Pseudomatching(((1, 2), (2, 2)))
        assert verify_rho_pm(sets, matching, 2).ok

    def test_capacity_violation_at_rho_one(self):
        sets = BoundingSets([F(1), F(2)], [F(2), F(5)], n=2, beta=F(1))
        matching = Pseudomatching(((1, 2), (2, 2)))
        verdict = verify_rho_pm(sets, matching, 1)
        assert not verdict.ok
        assert "o-index 2 used 2 times" in verdict.violation

    def test_fractional_rho_floors_capacity(self):
        # floor(3/2) = 1: a half-capacity cannot absorb a second partner
        sets = BoundingSets([F(1), F(2)], [F(2), F(5)], n=2, beta=F(1))
        matching = Pseudomatching(((1, 2), (2, 2)))
        assert not verify_rho_pm(sets, matching, F(3, 2)).ok
        assert verify_rho_pm(
            sets, Pseudomatching(((1, 1), (2, 2))), F(3, 2)
        ).ok

    def test_decreasing_edge(self):
        sets = BoundingSets([F(3)], [F(2)], n=1, beta=F(1))
        verdict = verify_rho_pm(sets, Pseudomatching(((1, 1),)), 1)
        assert not verdict.ok
        assert "decreases" in verdict.violation

    def test_unmatched_a_node(self):
        sets = BoundingSets([F(1), F(1)], [F(1), F(1)], n=2, beta=F(1))
        verdict = verify_rho_pm(sets, Pseudomatching(((1, 1),)), 2)
        assert not verdict.ok
        assert "a-index 2 matched 0 times" in verdict.violation

    def test_doubly_matched_a_node(self):
        sets = BoundingSets([F(1), F(1)], [F(1), F(1)], n=2, beta=F(1))
        matching = Pseudomatching(((1, 1), (1, 2), (2, 2)))
        verdict = verify_rho_pm(sets, matching, 2)
        assert not verdict.ok
        assert "a-index 1 matched 2 times" in verdict.violation

    def test_unknown_index(self):
        sets = BoundingSets([F(1)], [F(1)], n=3, beta=F(1))
        verdict = verify_rho_pm(sets, Pseudomatching(((1, 3),)), 1)
        assert not verdict.ok
        assert "unknown o-index 3" in verdict.violation

    def test_rho_below_one_rejected(self):
        sets = BoundingSets([F(1)], [F(1)], n=1, beta=F(1))
        with pytest.raises(ValueError, match="rho"):
            verify_rho_pm(sets, Pseudomatching(((1, 1),)), F(1, 2))


class TestRhoBoundCheck:
    def test_two_node_example(self):
        sets = BoundingSets([F(1), F(2)], [F(2), F(5)], n=2, beta=F(1))
        check = rho_bound_check(sets, Pseudomatching(((1, 2), (2, 2))), 2)
        assert (check.lhs, check.rhs, check.holds) == (F(3), F(14), True)

    def test_singleton_equality(self):
        sets = BoundingSets([F(7, 3)], [F(7, 3)], n=1, beta=F(2))
        check = rho_bound_check(sets, Pseudomatching(((1, 1),)), 1)
        assert (check.lhs, check.rhs, check.holds) == (F(7, 3), F(7, 3), True)

    def test_parallel_edges_example(self):
        sets = BoundingSets([F(1), F(1)], [F(1), F(9)], n=2, beta=F(1))
        check = rho_bound_check(sets, Pseudomatching(((1, 1), (2, 2))), 2)
        assert (check.lhs, check.rhs, check.holds) == (F(2), F(20), True)

    def test_invalid_matching_raises(self):
        sets = BoundingSets([F(1), F(2)], [F(2), F(5)], n=2, beta=F(1))
        with pytest.raises(InvalidPseudomatching, match="used 2 times"):
            rho_bound_check(sets, Pseudomatching(((1, 2), (2, 2))), 1)

    @settings(max_examples=300)
    @given(case=rho_pm_cases())
    def test_certified_inequality_always_holds(self, case):
        sets, matching, rho = case
        assert verify_rho_pm(sets, matching, rho).ok
        assert rho_bound_check(sets, matching, rho).holds

    @settings(max_examples=100)
    @given(case=rho_pm_cases(), bump=positive_rationals)
    def test_verifier_catches_inflated_value(self, case, bump):
        # inflating one a-value above its partner must break validity
        sets, matching, rho = case
        i, j = matching.edges[0]
        corrupted = dict(sets.a_values)
        corrupted[i] = sets.o_values[j] + bump
        bad = BoundingSets(corrupted, sets.o_values, n=sets.n, beta=sets.beta)
        assert not verify_rho_pm(bad, matching, rho).ok


class TestVerifyWeakPm:
    def test_accepts_index_decreasing_edge(self):
        sets = BoundingSets({2: F(1)}, {1: F(2)}, n=2, beta=F(1))
        assert verify_weak_pm(sets, Pseudomatching(((2, 1),))).ok

    def test_rejects_self_index(self):
        sets = BoundingSets({1: F(1)}, {1: F(2)}, n=2, beta=F(1))
        verdict = verify_weak_pm(sets, Pseudomatching(((1, 1),)))
        assert not verdict.ok
        assert "must have i > j" in verdict.violation

    def test_rejects_decreasing_value(self):
        sets = BoundingSets({2: F(3)}, {1: F(2)}, n=2, beta=F(1))
        verdict = verify_weak_pm(sets, Pseudomatching(((2, 1),)))
        assert not verdict.ok
        assert "decreases" in verdict.violation

    def test_rejects_unmatched_a_node(self):
        sets = BoundingSets({2: F(1)}, {1: F(2)}, n=2, beta=F(1))
        verdict = verify_weak_pm(sets, Pseudomatching(()))
        assert not verdict.ok
        assert "matched 0 times" in verdict.violation

    def test_o_side_multiplicity_unrestricted(self):
        sets = BoundingSets({2: F(1), 3: F(1), 4: F(1)}, {1: F(1), 5: F(1), 6: F(1)}, n=6, beta=F(1))
        matching = Pseudomatching(((2, 1), (3, 1), (4, 1)))
        assert verify_weak_pm(sets, matching).ok


class TestWeakBoundCheck:
    def test_two_node_example(self):
        # g = 2: lhs = 2**0 * 1 = 1, rhs = (1 + 1/1) * 2**1 * 2 = 8
        sets = BoundingSets({2: F(1)}, {1: F(2)}, n=2, beta=F(1))
        check = weak_bound_check(sets, Pseudomatching(((2, 1),)))
        assert (check.lhs, check.rhs, check.holds) == (F(1), F(8), True)

    def test_shifted_equal_values(self):
        # lhs = (2 + 1)v, rhs = 2 * (4 + 2)v
        v = F(3, 2)
        sets = BoundingSets({2: v, 3: v}, {1: v, 2: v}, n=3, beta=F(1))
        check = weak_bound_check(sets, Pseudomatching(((2, 1), (3, 2))))
        assert (check.lhs, check.rhs, check.holds) == (3 * v, 12 * v, True)

    def test_empty_sides(self):
        sets = BoundingSets({}, {}, n=4, beta=F(1))
        check = weak_bound_check(sets, Pseudomatching(()))
        assert (check.lhs, check.rhs, check.holds) == (F(0), F(0), True)

    def test_invalid_matching_raises(self):
        sets = BoundingSets({1: F(1)}, {2: F(2)}, n=2, beta=F(1))
        with pytest.raises(InvalidPseudomatching, match="i > j"):
            weak_bound_check(sets, Pseudomatching(((1, 2),)))

    @settings(max_examples=300)
    @given(case=weak_pm_cases())
    def test_certified_inequality_always_holds(self, case):
        sets, matching = case
        assert verify_weak_pm(sets, matching).ok
        assert weak_bound_check(sets, matching).holds


class TestLastCriticalIndex:
    def test_schedule_against_itself(self):
        inst = make_instance(1, [(1, 3, 0), (2, 1, 2), (3, 4, 1)])
        sched = non_interfering(inst)
        assert last_critical_index(inst, sched, sched) == inst.n

    def test_two_job_example(self, two_job_instance):
        # policy completions (5, 15) vs reference (5, 11): only position 1
        ni = non_interfering(two_job_instance)
        opt = canonical_starts(two_job_instance, (1, 2))
        assert last_critical_index(two_job_instance, ni, opt) == 1

    def test_zero_when_always_behind(self):
        inst = make_instance(1, [(1, 8, 0), (2, 0, 1)])
        algo = canonical_starts(inst, (1, 2))  # completions (8, 16)
        ref = canonical_starts(inst, (2, 1))  # completions (2, 12)
        assert last_critical_index(inst, algo, ref) == 0

    def test_single_job(self):
        inst = make_instance(2, [(1, 4, 3)])
        sched = canonical_starts(inst, (1,))
        assert last_critical_index(inst, sched, sched) == 1


class TestCheckTwoPm:
    """The independent stage checker, driven with hand-built matchings.

    Base instance: three jobs with ascending fixed parts, policy order
    (1,2,3), reference order (2,3,1), ell forced to 0.
    """

    def setup_method(self):
        self.inst = make_instance(1, [(1, 1, 0), (2, 2, 0), (3, 3, 0)])
        self.ni = canonical_starts(self.inst, (1, 2, 3))
        self.opt = canonical_starts(self.inst, (2, 3, 1))

    def test_stale_cross_edge_survives_partner_entry(self):
        # stage 2: position 1 (job 1) planted a cross edge onto reference
        # position 1 (job 2) at stage 1; job 2 then self-matched at stage 2.
        # Reference node 1 now carries two edges, one of them cross.
        matching = Pseudomatching(((1, 1), (2, 1)))
        assert check_two_pm(self.inst, self.ni, self.opt, 0, 2, matching).ok

    def test_rewired_final_stage(self):
        # stage 3 rewires the cross edge to job 1's own reference position
        matching = Pseudomatching(((1, 3), (2, 1), (3, 2)))
        assert check_two_pm(self.inst, self.ni, self.opt, 0, 3, matching).ok

    def test_wrong_matched_positions(self):
        verdict = check_two_pm(
            self.inst, self.ni, self.opt, 0, 2, Pseudomatching(((1, 1),))
        )
        assert not verdict.ok
        assert "matched algorithm positions" in verdict.violation

    def test_prefix_job_must_self_match(self):
        # job 2 sits in the reference prefix at k=2 but is matched elsewhere
        matching = Pseudomatching(((1, 1), (2, 2)))
        verdict = check_two_pm(self.inst, self.ni, self.opt, 0, 2, matching)
        assert not verdict.ok
        assert "in the reference prefix but matched to job 3" in verdict.violation

    def test_id_past_the_digit_limit(self):
        # the same violation with job 3's id past the interpreter's limit
        big = 10**5000
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0), (big, 3, 0)])
        ni = canonical_starts(inst, (1, 2, big))
        opt = canonical_starts(inst, (2, big, 1))
        matching = Pseudomatching(((1, 1), (2, 2)))
        verdict = check_two_pm(inst, ni, opt, 0, 2, matching)
        assert verdict.violation == (
            "position 2 (job 2) is in the reference prefix but "
            "matched to job a 16610-bit value"
        )

    def test_partner_inside_critical_prefix(self):
        inst = make_instance(1, [(1, 1, 0), (2, 2, 0), (3, 1, 0)])
        ni = canonical_starts(inst, (2, 3, 1))
        opt = canonical_starts(inst, (1, 2, 3))
        # position 2 (job 3) is outside the reference prefix {1, 2}; its
        # partner job 2 runs at policy position 1 <= ell
        verdict = check_two_pm(inst, ni, opt, 1, 2, Pseudomatching(((2, 2),)))
        assert not verdict.ok
        assert "critical prefix" in verdict.violation

    def test_reference_node_over_capacity(self):
        inst = make_instance(1, [(1, 1, 0), (2, 1, 0), (3, 2, 0), (4, 2, 0)])
        ni = canonical_starts(inst, (1, 2, 3, 4))
        opt = canonical_starts(inst, (3, 4, 1, 2))
        # both tail jobs cross onto reference position 1
        verdict = check_two_pm(inst, ni, opt, 0, 2, Pseudomatching(((1, 1), (2, 1))))
        assert not verdict.ok
        assert "carries" in verdict.violation

    def test_decreasing_edge(self):
        inst = make_instance(1, [(1, 5, 0), (2, 1, 0)])
        ni = canonical_starts(inst, (1, 2))
        opt = canonical_starts(inst, (2, 1))
        verdict = check_two_pm(inst, ni, opt, 0, 1, Pseudomatching(((1, 1),)))
        assert not verdict.ok
        assert "decreases" in verdict.violation

    def test_stage_out_of_range(self):
        verdict = check_two_pm(
            self.inst, self.ni, self.opt, 2, 1, Pseudomatching(())
        )
        assert not verdict.ok
        assert "outside" in verdict.violation


class TestConstructTwoPm:
    def test_direct_two_job_construction(self, two_job_instance):
        # ell = 1 (policy completion 5 <= reference completion 5); the single
        # stage self-matches job 1 and certifies 5 <= 2 * (5 + 1)
        ni = non_interfering(two_job_instance)
        opt = canonical_starts(two_job_instance, (1, 2))
        report = construct_two_pm(two_job_instance, ni, opt, reduce_gaps=False)
        assert report.last_critical_index == 1
        assert report.reduced is False
        assert set(report.per_k_matchings) == {2}
        assert report.per_k_matchings[2].edges == ((2, 1),)
        assert report.per_k_bound_lhs == (F(5),)
        assert report.per_k_bound_rhs == (F(12),)

    def test_gap_triggers_reduction(self, two_job_instance):
        # the policy schedule idles before job 2's release, so the default
        # path clamps releases; on the reduced instance the policy is never
        # behind and the stage list is empty
        ni = non_interfering(two_job_instance)
        opt = canonical_starts(two_job_instance, (1, 2))
        report = construct_two_pm(two_job_instance, ni, opt)
        assert report.reduced is True
        assert all(j.release == 0 for j in report.instance.jobs)
        assert report.last_critical_index == 2
        assert report.per_k_matchings == {}
        assert report.per_k_bound_lhs == ()
        assert all(q == 0 for q in evaluate(report.instance, report.ni_schedule).gaps)

    def test_gap_free_input_not_reduced(self):
        inst = make_instance(1, [(1, 3, 0), (2, 1, 0), (3, 2, 0)])
        ni = non_interfering(inst)
        opt = brute_force(inst, Objective.MAKESPAN).best_schedule
        report = construct_two_pm(inst, ni, opt)
        assert report.reduced is False
        assert report.instance == inst

    @settings(max_examples=150, deadline=None)
    @given(inst=instances(min_n=1, max_n=6))
    def test_construction_succeeds_and_checks_out(self, inst):
        # ConstructionFailed here would mean a broken invariant: the policy
        # schedule vs a true optimum must always admit the staged matching
        ni = non_interfering(inst)
        opt = brute_force(inst, Objective.MAKESPAN).best_schedule
        for reduce_gaps in (True, False):
            report = construct_two_pm(inst, ni, opt, reduce_gaps=reduce_gaps)
            ell = report.last_critical_index
            n = report.instance.n
            assert sorted(report.per_k_matchings) == list(range(ell + 1, n + 1))
            assert len(report.per_k_bound_lhs) == n - ell
            for lhs, rhs in zip(report.per_k_bound_lhs, report.per_k_bound_rhs):
                assert lhs <= rhs
            # re-run the independent checker on every recorded stage
            for k, matching in report.per_k_matchings.items():
                assert check_two_pm(
                    report.instance,
                    report.ni_schedule,
                    report.optimal_schedule,
                    ell,
                    k,
                    matching,
                ).ok

    @settings(max_examples=80, deadline=None)
    @given(inst=instances(min_n=2, max_n=6))
    def test_final_stage_certifies_tail_load(self, inst):
        # at k = n the certified inequality is the full fixed-part charge:
        # everything after the critical position costs at most twice the
        # whole reference load
        ni = non_interfering(inst)
        opt = brute_force(inst, Objective.MAKESPAN).best_schedule
        report = construct_two_pm(inst, ni, opt)
        if not report.per_k_bound_lhs:
            return
        jobs = report.instance.job_map()
        tail = sum(
            (jobs[j].alpha for j in report.ni_schedule.order[report.last_critical_index :]),
            F(0),
        )
        total = sum((j.alpha for j in report.instance.jobs), F(0))
        assert report.per_k_bound_lhs[-1] == tail
        assert report.per_k_bound_rhs[-1] == 2 * total
