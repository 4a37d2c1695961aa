"""White-box tests of the integer layout: the prepared record, the subset
DP's scale and tables, and :func:`~detsched.oracle._finish`.  They are the
only tests that read ``_prepared``, ``_by_release``, ``_scaled``,
``_lattice``, ``_finish`` or ``_lb_fixed``, so a change of the integer
layout rewrites this file and no other.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detsched import Instance, Objective, SchedulerChoice, brute_force, dp_min_makespan, lb_release, run
from detsched import oracle, schedulers
from detsched.oracle import _finish, _lattice, _lb_fixed, _scaled
from detsched.serialization import _eval_report, parse_instance

import reference
from conftest import family_instances, instances, make_instance, rational_tie_heavy_instances, tie_heavy_instances
from test_oracle import PRUNED_DP_INSTANCES, coprime_instances

F = Fraction

RECORD_INSTANCES = st.one_of(
    instances(max_n=10),
    tie_heavy_instances(max_n=12),
    rational_tie_heavy_instances(),
    coprime_instances(),
    family_instances(max_jobs=12),
)


class TestPreparedRecord:
    """The one integer record per instance, and every reader of it,
    against the reference's own integers."""

    @settings(max_examples=300, deadline=None)
    @given(inst=RECORD_INSTANCES)
    def test_keys(self, inst):
        prepared = inst._prepared
        beta = inst.beta
        assert (prepared.p, prepared.q, prepared.d) == (beta.numerator, beta.denominator, reference.time_scale(inst))
        assert prepared.keys == reference.keys(inst)
        assert inst._by_release == tuple(sorted(reference.keys(inst)))

    def test_sorted_on_first_read(self):
        # eval reads the keys in instance order, so it never sorts them
        inst = parse_instance('{"beta": "1", "jobs": [{"id": 2, "alpha": "1", "release": "3"}, '
                              '{"id": 1, "alpha": "2", "release": "0"}]}')
        _eval_report('{"order": [1, 2], "starts": ["0", "3"]}', inst)
        assert "_by_release" not in vars(inst)
        assert inst._by_release == ((0, 2, 1), (3, 1, 2))
        assert inst._by_release is inst._by_release

    @settings(max_examples=300, deadline=None)
    @given(inst=RECORD_INSTANCES)
    def test_scaled(self, inst):
        assert _scaled(inst) == reference.scaled(inst)

    @settings(max_examples=300, deadline=None)
    @given(inst=RECORD_INSTANCES)
    def test_bounds(self, inst):
        assert lb_release(inst) == reference.lb_release(inst)
        alphas = [job.alpha for job in inst.jobs]
        assert _lb_fixed(inst) == reference.sorted_subset_cost(inst.beta, alphas, 0)

    def test_built_once_and_kept(self):
        inst = make_instance(F(1, 2), [(3, F(1, 3), 2), (1, 2, F(1, 2))])
        assert inst._prepared is inst._prepared
        assert inst._prepared == (1, 2, 6, ((12, 2, 3), (3, 12, 1)))
        assert inst._by_release is inst._by_release
        assert inst._by_release == ((3, 12, 1), (12, 2, 3))


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
    """:func:`_finish` from the empty mask under a given incumbent."""

    @settings(max_examples=300, deadline=None)
    @given(inst=PRUNED_DP_INSTANCES, offset=st.sampled_from([-1, 0, 1]))
    def test_any_bound_is_an_incumbent(self, inst, offset):
        # from any incumbent, the result is the optimum if it beats it and
        # the incumbent itself otherwise
        lattice = _lattice(inst)
        best = reference.dp_min_makespan(inst)
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
        assert dp_min_makespan(inst) == reference.dp_min_makespan(inst) == F(3)


def _refuse(*args, **kwargs):
    raise AssertionError("brute force reached the DP's or the policies' code")


class TestBruteForceMatchesReference:
    @pytest.mark.parametrize("objective", list(Objective))
    def test_independent_of_the_dp_and_the_policies(self, monkeypatch, objective):
        # brute force is the route the DP and the policies are checked
        # against, so it must reach none of their code; the instance is
        # built after the patches, so nothing it caches predates them
        jobs = [(3, 2, 1), (1, 0, 2), (4, F(1, 2), 0), (2, 1, 3)]
        expected = reference.brute_force(make_instance(F(1, 3), jobs), objective)
        for module, name in [(oracle, "_lattice"), (oracle, "_scaled"), (oracle, "_finish"), (schedulers, "_loop")]:
            monkeypatch.setattr(module, name, _refuse)
        assert brute_force(make_instance(F(1, 3), jobs), objective) == expected
