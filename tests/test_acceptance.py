"""Acceptance gate: one test per advertised guarantee, at desk scale.

Every test draws a pinned deterministic suite, checks the guarantee with
exact arithmetic, and emits a single verdict line through the session
``verdict`` fixture (replayed after the run, see conftest).  Tolerances
and trial counts are fixed; a FAIL line carries enough of the violating
instance to reproduce it by hand.

Two checks deviate from the headline phrasing on purpose, with the
deviation spelled out in the verdict line:

* the estimate-first adversarial ratios (criterion 4) are pinned against
  the family's documented reference schedule, because the true optimum
  interleaves and beats that reference for k >= 2; both ratio families
  are asserted.
* reduced-instance replay (criterion 11) preserves the policy's order
  except inside a leading block of zero-fixed-part jobs that all finish
  at time zero, which the deterministic tie-break re-emits sorted by id;
  order equality is asserted modulo exactly that rewrite.

Criterion 7 is checked literally.  The (3 + e) claim for fast
deterioration is false: interference can chain across releases and idle
the machine all the way to the last arrival, so the policy's ratio grows
like (1 + beta)^n even when beta >= n + 1.  The test reports the
violations it finds and fails; see the repository notes for the
analysis and a three-job counterexample.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

from detsched import (
    ExperimentConfig,
    Family,
    FamilySpec,
    Instance,
    Objective,
    Pseudomatching,
    SchedulerChoice,
    brute_force,
    canonical_starts,
    check_two_pm,
    construct_two_pm,
    cross_objective_check,
    dp_min_makespan,
    earliest_release_order,
    evaluate,
    generate,
    lb_release,
    optimum,
    reduce_instance,
    run,
    run_experiment,
    value_ratio,
    write_csv,
)
from detsched.cli import main as cli_main

from lemmas import (
    BoundingSets,
    fixed_cost_identity,
    lb_combined,
    makespan_closed_form,
    rho_bound_check,
    verify_rho_pm,
    verify_weak_pm,
    weak_bound_check,
)

F = Fraction

# Rational over-approximation of e, shared by the ratio suites.
E_UPPER = F(27182818285, 10**10)

# (instance, optimal makespan) pairs accumulated by the oracle-backed
# suites; the lower-bound criterion sweeps them all.
ORACLE_PAIRS: list[tuple[Instance, Fraction]] = []


def rand_instance(seed: int, n: int, beta: Fraction) -> Instance:
    return generate(
        FamilySpec(family=Family.RANDOM, n=n, beta=beta, seed=seed)
    )


def describe(instance: Instance) -> str:
    jobs = ", ".join(
        f"(id={j.id} a={j.alpha} r={j.release})" for j in instance.jobs
    )
    return f"beta={instance.beta} jobs=[{jobs}]"


# ---------------------------------------------------------------------------
# criteria 1 and 2: closed form and fixed-cost identity on a shared suite


def closed_form_suite():
    """1,000 seeded draws, n <= 10, beta spanning slow to fast growth."""
    rng = random.Random(11001)
    for i in range(1000):
        n = 1 + i % 10
        beta_menu = (
            F(1, 2 * n), F(1, n), F(1, 2), F(1), F(2), F(n + 1),
        )
        inst = rand_instance(11001 + i, n, beta_menu[i % 6])
        order = [job.id for job in inst.jobs]
        rng.shuffle(order)
        yield inst, canonical_starts(inst, order)


def test_c01_closed_form_equals_simulation(verdict):
    t0 = time.monotonic()
    bad = 0
    for inst, sched in closed_form_suite():
        if makespan_closed_form(inst, sched) != evaluate(inst, sched).makespan:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 10.0
    line = verdict(
        "C01",
        ok,
        f"closed-form makespan == simulated makespan on 1000 instances "
        f"(n<=10), {bad} mismatches, {elapsed:.1f}s (cap 10s)",
    )
    assert ok, line


def test_c02_fixed_cost_identity(verdict):
    t0 = time.monotonic()
    bad = 0
    for inst, sched in closed_form_suite():
        lhs, rhs = fixed_cost_identity(inst, sched)
        if lhs != rhs:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0 and elapsed < 5.0
    line = verdict(
        "C02",
        ok,
        f"fixed-cost identity exact on 1000 instances, {bad} mismatches, "
        f"{elapsed:.1f}s (cap 5s)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 3: estimate-first stays within (3 + 1/beta) of the optimum


PAIR_GRID = [(float(a), float(r)) for a in range(4) for r in range(7)]


def _ectf_float(jobs, g: float) -> float:
    # twin of the ECTF policy (run with SchedulerChoice.ECTF) on exact dyadic floats
    t = 0.0
    rem = list(range(len(jobs)))
    while rem:
        bk = None
        bi = -1
        for idx in rem:
            a, r = jobs[idx]
            s = t if t > r else r
            key = (g * s + a, a, idx)
            if bk is None or key < bk:
                bk = key
                bi = idx
        rem.remove(bi)
        t = bk[0]
    return t


def _opt_float(jobs, g: float) -> float:
    n = len(jobs)
    full = (1 << n) - 1
    best = [0.0] * (full + 1)
    for mask in range(1, full + 1):
        v = math.inf
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            a, r = jobs[low.bit_length() - 1]
            prev = best[mask ^ low]
            s = r if r > prev else prev
            c = a + g * s
            if c < v:
                v = c
        best[mask] = v
    return best[full]


def _as_instance(combo, beta: Fraction) -> Instance:
    from detsched import Job, validate_instance

    return validate_instance(
        Instance(
            beta,
            tuple(
                Job(i, F(int(a)), F(int(r)))
                for i, (a, r) in enumerate(combo, start=1)
            ),
        )
    )


def test_c03_ectf_upper_bound(verdict):
    t0 = time.monotonic()
    violations = []
    checked = 0
    spot_checked = 0
    # exhaustive sweep: every multiset of (alpha, release) pairs with
    # alpha in 0..3, release in 0..6, n <= 5, for three growth rates.
    # All values are exact dyadics, so float arithmetic is exact here;
    # every 5000th instance is re-run with Fractions as a guard.
    for beta, g, factor in ((F(1, 2), 1.5, 5.0), (F(1), 2.0, 4.0), (F(2), 3.0, 3.5)):
        for n in range(1, 6):
            for combo in itertools.combinations_with_replacement(PAIR_GRID, n):
                checked += 1
                val = _ectf_float(combo, g)
                opt = _opt_float(combo, g)
                if val > factor * opt:
                    violations.append((beta, combo, val, opt))
                if checked % 5000 == 0:
                    inst = _as_instance(combo, beta)
                    exact_val = evaluate(inst, run(inst, SchedulerChoice.ECTF).schedule).makespan
                    exact_opt = dp_min_makespan(inst)
                    assert exact_val == F(val) and exact_opt == F(opt), (
                        f"float fast path diverged on {describe(inst)}"
                    )
                    spot_checked += 1
    # random side: 2,000 larger instances with exact rationals end to end
    for i in range(2000):
        n = 2 + i % 7
        beta = (F(1, 2), F(1), F(2))[i % 3]
        inst = rand_instance(33001 + i, n, beta)
        opt = dp_min_makespan(inst)
        val = evaluate(inst, run(inst, SchedulerChoice.ECTF).schedule).makespan
        if opt == 0:
            if val != 0:
                violations.append((beta, inst, val, opt))
            continue
        if value_ratio(val, opt) > 3 + 1 / beta:
            violations.append((beta, inst, val, opt))
    elapsed = time.monotonic() - t0
    ok = not violations and elapsed < 300.0
    line = verdict(
        "C03",
        ok,
        f"estimate-first <= (3+1/beta)*optimum on {checked} exhaustive "
        f"(n<=5, {spot_checked} exact spot checks) + 2000 random (n<=8) "
        f"instances, {len(violations)} violations, {elapsed:.1f}s (cap 300s)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 4: estimate-first adversarial family ratios


def test_c04_ectf_adversarial_ratios(verdict):
    pinned_vs_reference = {1: F(3, 2), 2: F(5, 4), 3: F(9, 8)}
    pinned_vs_optimum = {1: F(3, 2), 2: F(5, 3), 3: F(9, 5)}
    problems = []
    for k in (1, 2, 3):
        inst = generate(
            FamilySpec(family=Family.ECTF_ADV, n=k, beta=F(1), b=F(1))
        )
        val = evaluate(inst, run(inst, SchedulerChoice.ECTF).schedule).makespan
        # the family's documented reference runs the long jobs 1..k first
        reference = evaluate(
            inst, canonical_starts(inst, tuple(range(1, 2 * k + 1)))
        ).makespan
        optimum = brute_force(inst, Objective.MAKESPAN).best_value
        if value_ratio(val, reference) != pinned_vs_reference[k]:
            problems.append(f"k={k} vs reference {value_ratio(val, reference)}")
        if value_ratio(val, optimum) != pinned_vs_optimum[k]:
            problems.append(f"k={k} vs optimum {value_ratio(val, optimum)}")
        if value_ratio(val, optimum) < pinned_vs_reference[k]:
            problems.append(f"k={k} optimum ratio below reference ratio")
    ok = not problems
    line = verdict(
        "C04",
        ok,
        "estimate-first adversarial ratios exact: vs reference schedule "
        "(3/2, 5/4, 9/8) as pinned, vs true optimum (3/2, 5/3, 9/5) "
        "(deviation: the pinned values only hold against the family's "
        "long-jobs-first reference; the optimum interleaves and is "
        "cheaper for k>=2)"
        if ok
        else f"adversarial ratio mismatches: {problems}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 5: non-idling adversarial family ratios


def test_c05_nonidling_adversarial_ratios(verdict):
    want = {2: F(2), 3: F(4), 4: F(8)}
    problems = []
    for k, expected in want.items():
        inst = generate(FamilySpec(family=Family.NONIDLING_ADV, n=k, beta=F(1)))
        schedule = run(inst, SchedulerChoice.NON_IDLING).schedule
        ratio = value_ratio(evaluate(inst, schedule).makespan, dp_min_makespan(inst))
        if ratio != expected:
            problems.append(f"k={k}: got {ratio}, want {expected}")
    ok = not problems
    line = verdict(
        "C05",
        ok,
        "non-idling adversarial ratios exact: (2, 4, 8) for k=(2, 3, 4), "
        "doubling with each extra job"
        if ok
        else f"ratio mismatches: {problems}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criteria 6 and 7: random-ratio suites for the two greedy policies


def test_c06_nonidling_ratio_slow_growth(verdict):
    t0 = time.monotonic()
    bound = 1 + E_UPPER
    worst = F(0)
    violations = []
    for i in range(1000):
        n = 2 + i % 7
        beta = F(1, n) if i % 2 else F(1, 2 * n)
        inst = rand_instance(61001 + i, n, beta)
        opt = dp_min_makespan(inst)
        val = evaluate(inst, run(inst, SchedulerChoice.NON_IDLING).schedule).makespan
        ORACLE_PAIRS.append((inst, opt))
        if opt == 0:
            continue
        ratio = value_ratio(val, opt)
        worst = max(worst, ratio)
        if ratio > bound:
            violations.append((inst, ratio))
    elapsed = time.monotonic() - t0
    ok = not violations
    line = verdict(
        "C06",
        ok,
        f"non-idling ratio <= 1+e on 1000 instances with beta <= 1/n, "
        f"worst {float(worst):.4f}, {elapsed:.1f}s"
        if ok
        else f"{len(violations)} instances above 1+e, worst "
        f"{float(max(r for _, r in violations)):.4f}",
    )
    assert ok, line


def test_c07_noninterfering_ratio_fast_growth(verdict):
    t0 = time.monotonic()
    bound = 3 + E_UPPER
    worst = F(0)
    worst_inst = None
    violations = 0
    for i in range(1000):
        n = 2 + i % 6
        beta = F(n + 1) + F(i % 4, 2)
        inst = rand_instance(71001 + i, n, beta)
        opt = dp_min_makespan(inst)
        val = evaluate(inst, run(inst, SchedulerChoice.NON_INTERFERING).schedule).makespan
        ORACLE_PAIRS.append((inst, opt))
        if opt == 0:
            continue
        ratio = value_ratio(val, opt)
        if ratio > worst:
            worst, worst_inst = ratio, inst
        if ratio > bound:
            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0
    detail = (
        f"non-interfering ratio <= 3+e on 1000 instances with beta >= n+1 "
        f"(n<=7), worst {float(worst):.4f}, {elapsed:.1f}s"
    )
    if not ok:
        detail = (
            f"claimed (3+e)-approximation for beta >= n+1 is violated on "
            f"{violations}/1000 instances; worst ratio {float(worst):.2f} at "
            f"{describe(worst_inst)}; interference chains across releases "
            f"and idles the machine to the last arrival, so the ratio grows "
            f"like (1+beta)^n regardless of how large beta is"
        )
    line = verdict("C07", ok, detail)
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 8: non-interfering adversarial growth


def test_c08_noninterfering_adversarial_growth(verdict):
    ratios = []
    problems = []
    for n in (2, 3, 4):
        inst = generate(
            FamilySpec(
                family=Family.NONINTERFERING_ADV, n=n, beta=F(1), b=F(n * n)
            )
        )
        ni_val = evaluate(inst, run(inst, SchedulerChoice.NON_INTERFERING).schedule).makespan
        bench = evaluate(inst, earliest_release_order(inst)).makespan
        ratio = value_ratio(ni_val, bench)
        ratios.append(ratio)
        if not ratio > F(2) ** (n - 1) / 4:
            problems.append(f"n={n}: ratio {ratio} <= 2^{n - 1}/4")
    if not (ratios[0] < ratios[1] < ratios[2]):
        problems.append(f"ratios not strictly increasing: {ratios}")
    ok = not problems
    line = verdict(
        "C08",
        ok,
        f"non-interfering vs earliest-release benchmark grows "
        f"({', '.join(str(r) for r in ratios)}), each above (1+beta)^(n-1)/4"
        if ok
        else f"growth check failed: {problems}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 9: best-of-two on two-release instances


def test_c09_best_of_two_two_release(verdict):
    t0 = time.monotonic()
    worst = F(0)
    violations = []
    for i in range(1000):
        n = 2 + i % 6
        beta = (F(1, 2), F(1), F(2), F(7, 2))[i % 4]
        inst = generate(
            FamilySpec(family=Family.TWO_RELEASE, n=n, beta=beta, seed=91001 + i)
        )
        opt = dp_min_makespan(inst)
        val = evaluate(inst, run(inst, SchedulerChoice.BEST_OF_TWO).schedule).makespan
        ORACLE_PAIRS.append((inst, opt))
        if opt == 0:
            continue
        ratio = value_ratio(val, opt)
        worst = max(worst, ratio)
        if ratio > 2:
            violations.append((inst, ratio))
    elapsed = time.monotonic() - t0
    ok = not violations
    line = verdict(
        "C09",
        ok,
        f"best-of-two ratio <= 2 on 1000 two-release instances (n<=7), "
        f"worst {float(worst):.4f}, {elapsed:.1f}s"
        if ok
        else f"{len(violations)} instances above 2, worst "
        f"{float(max(r for _, r in violations)):.4f} at "
        f"{describe(violations[0][0])}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 10: pseudomatching machinery


def _random_rho_case(rng: random.Random):
    rho = rng.choice((1, 2, 3, F(3, 2), F(5, 2)))
    cap = math.floor(rho)
    k = rng.randint(1, 6)
    n = k + rng.randint(0, 3)
    o_values = {
        j: F(rng.randint(1, 40), rng.choice((1, 2, 4))) for j in range(1, k + 1)
    }
    slots = [j for j in range(1, k + 1) for _ in range(cap)]
    partners = rng.sample(slots, k)
    shrink = (F(1, 3), F(1, 2), F(2, 3), F(1))
    a_values = {
        i: o_values[partners[i - 1]] * rng.choice(shrink)
        for i in range(1, k + 1)
    }
    sets = BoundingSets(a_values=a_values, o_values=o_values, n=n, beta=F(1))
    matching = Pseudomatching(
        tuple((i, partners[i - 1]) for i in range(1, k + 1))
    )
    return sets, matching, rho


def _random_weak_case(rng: random.Random):
    n = rng.randint(2, 8)
    k = rng.randint(1, n - 1)
    a_idx = sorted(rng.sample(range(2, n + 1), k))
    o_idx = [i - 1 for i in a_idx]
    o_values = {
        j: F(rng.randint(1, 40), rng.choice((1, 2, 4))) for j in o_idx
    }
    beta = rng.choice((F(1, 2), F(1), F(2)))
    edges = []
    a_values = {}
    shrink = (F(1, 3), F(1, 2), F(2, 3), F(1))
    for i in a_idx:
        partner = rng.choice([j for j in o_idx if j < i])
        a_values[i] = o_values[partner] * rng.choice(shrink)
        edges.append((i, partner))
    sets = BoundingSets(a_values=a_values, o_values=o_values, n=n, beta=beta)
    return sets, Pseudomatching(tuple(edges))


def test_c10a_pseudomatching_bounds(verdict):
    t0 = time.monotonic()
    rng = random.Random(1013)
    bad = 0
    for _ in range(5000):
        sets, matching, rho = _random_rho_case(rng)
        if not verify_rho_pm(sets, matching, rho):
            bad += 1
            continue
        if not rho_bound_check(sets, matching, rho).holds:
            bad += 1
    for _ in range(5000):
        sets, matching = _random_weak_case(rng)
        if not verify_weak_pm(sets, matching):
            bad += 1
            continue
        if not weak_bound_check(sets, matching).holds:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0
    line = verdict(
        "C10a",
        ok,
        f"sum and geometric bounds hold on 10000 random valid "
        f"pseudomatchings (5000 capacity-rho + 5000 weak), {elapsed:.1f}s"
        if ok
        else f"{bad} of 10000 pseudomatching bound checks failed",
    )
    assert ok, line


def test_c10b_two_pm_construction(verdict):
    t0 = time.monotonic()
    problems = []
    reduced_count = 0
    trials = 0
    for i in range(500):
        n = 2 + i % 5
        beta = (F(1, 2), F(1), F(2), F(3))[i % 4]
        inst = rand_instance(103001 + i, n, beta)
        opt = optimum(inst, Objective.MAKESPAN).best_schedule
        ni = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        for reduce_gaps in (True, False):
            trials += 1
            report = construct_two_pm(inst, ni, opt, reduce_gaps=reduce_gaps)
            if reduce_gaps and report.reduced:
                reduced_count += 1
            alpha_of = {j.id: j.alpha for j in report.instance.jobs}
            ell = report.last_critical_index
            ks = sorted(report.per_k_matchings)
            for k, lhs, rhs in zip(
                ks, report.per_k_bound_lhs, report.per_k_bound_rhs
            ):
                stage = check_two_pm(
                    report.instance,
                    report.ni_schedule,
                    report.optimal_schedule,
                    ell,
                    k,
                    report.per_k_matchings[k],
                )
                if not stage:
                    problems.append(f"i={i} k={k}: {stage.violation}")
                    continue
                want_lhs = sum(
                    (alpha_of[report.ni_schedule.order[p - 1]]
                     for p in range(ell + 1, k + 1)),
                    F(0),
                )
                want_rhs = 2 * sum(
                    (alpha_of[report.optimal_schedule.order[p - 1]]
                     for p in range(1, k + 1)),
                    F(0),
                )
                if lhs != want_lhs or rhs != want_rhs or lhs > rhs:
                    problems.append(
                        f"i={i} k={k}: load sums {lhs}/{rhs} vs "
                        f"recomputed {want_lhs}/{want_rhs}"
                    )
    elapsed = time.monotonic() - t0
    ok = not problems
    line = verdict(
        "C10b",
        ok,
        f"2-pseudomatching construction valid on 500 instances x 2 modes "
        f"({trials} runs, {reduced_count} needed gap reduction); every "
        f"stage passes the independent checker and both load sums, "
        f"{elapsed:.1f}s"
        if ok
        else f"{len(problems)} stage failures, first: {problems[0]}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 11: reduced-instance replay


def test_c11_reduced_instance_replay(verdict):
    t0 = time.monotonic()
    problems = []
    literal_flips = 0
    for i in range(500):
        n = 2 + i % 7
        beta = (F(1, 2), F(1), F(2), F(4))[i % 4]
        inst = rand_instance(113001 + i, n, beta)
        ni = run(inst, SchedulerChoice.NON_INTERFERING).schedule
        reduced = reduce_instance(inst, ni)
        replay = evaluate(reduced, canonical_starts(reduced, ni.order))
        if any(q != 0 for q in replay.gaps):
            problems.append(f"i={i}: replay of original order has idle gaps")
            continue
        again = run(reduced, SchedulerChoice.NON_INTERFERING).schedule
        fresh = evaluate(reduced, again)
        if any(q != 0 for q in fresh.gaps):
            problems.append(f"i={i}: fresh run on reduced instance has gaps")
            continue
        if fresh.makespan != replay.makespan:
            problems.append(f"i={i}: makespan changed under reduction")
            continue
        alpha_of = {j.id: j.alpha for j in inst.jobs}
        head = 0
        for jid in ni.order:
            if alpha_of[jid] != 0:
                break
            head += 1
        expected = tuple(sorted(ni.order[:head])) + ni.order[head:]
        if again.order != expected:
            problems.append(
                f"i={i}: order {again.order} differs beyond the "
                f"zero-cost head rewrite (expected {expected})"
            )
        elif again.order != ni.order:
            literal_flips += 1
    elapsed = time.monotonic() - t0
    ok = not problems
    line = verdict(
        "C11",
        ok,
        f"reduced-instance replay gap-free with order preserved on 500 "
        f"instances ({literal_flips} reorderings, all confined to the "
        f"id-sorted zero-cost head; deviation: jobs finishing at time "
        f"zero are order-interchangeable, so literal order equality "
        f"cannot hold pointwise), {elapsed:.1f}s"
        if ok
        else f"{len(problems)} replay failures, first: {problems[0]}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 12: release-time lower bound against every brute-forced optimum


def test_c12_lower_bounds_below_optimum(verdict):
    t0 = time.monotonic()
    pairs = list(ORACLE_PAIRS)
    # self-sufficient top-up so the check also stands alone
    for i in range(300):
        n = 2 + i % 6
        beta = (F(1, 2), F(1), F(2), F(9))[i % 4]
        inst = rand_instance(127001 + i, n, beta)
        pairs.append((inst, dp_min_makespan(inst)))
    bad = 0
    for inst, opt in pairs:
        if lb_release(inst) > opt or lb_combined(inst) > opt:
            bad += 1
    elapsed = time.monotonic() - t0
    ok = bad == 0
    line = verdict(
        "C12",
        ok,
        f"release and combined lower bounds <= optimal makespan on "
        f"{len(pairs)} oracle-solved instances, {elapsed:.1f}s"
        if ok
        else f"{bad} of {len(pairs)} lower-bound violations",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 13: cross-objective guarantees


def test_c13_cross_objective(verdict):
    t0 = time.monotonic()
    problems = []
    for i in range(500):
        n = 2 + i % 5
        beta = (F(1, 2), F(1), F(2))[i % 3]
        inst = rand_instance(131001 + i, n, beta)
        report = cross_objective_check(inst)
        if not report.all_hold:
            for chk in report.checks:
                if not chk.holds:
                    problems.append(
                        f"i={i} {chk.label}: {chk.lhs} > {chk.rhs}"
                    )
    elapsed = time.monotonic() - t0
    ok = not problems
    line = verdict(
        "C13",
        ok,
        f"all three cross-objective inequalities hold on 500 instances "
        f"(n<=6, beta in {{1/2, 1, 2}}), {elapsed:.1f}s"
        if ok
        else f"{len(problems)} cross-objective violations, first: "
        f"{problems[0]}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# criterion 14: experiment determinism


def test_c14_experiment_determinism(verdict, tmp_path, monkeypatch):
    monkeypatch.delenv("DETSCHED_SEED", raising=False)
    config = dict(
        family=Family.RANDOM,
        trials=30,
        n_min=2,
        n_max=6,
        betas=(F(1, 2), F(2)),
        seed=20260819,
        algorithms=(
            SchedulerChoice.NON_IDLING,
            SchedulerChoice.ECTF,
            SchedulerChoice.BEST_OF_TWO,
        ),
    )
    api_first = write_csv(run_experiment(ExperimentConfig(**config)))
    api_second = write_csv(run_experiment(ExperimentConfig(**config)))
    api_ok = api_first.encode() == api_second.encode()

    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    argv = [
        "experiment", "--family", "random", "--trials", "12",
        "--n-min", "2", "--n-max", "5", "--betas", "1/2,2",
        "--seed", "77", "--algorithms", "ectf,best-of-two",
    ]
    cli_ok = (
        cli_main(argv + ["--out", str(out_a)]) == 0
        and cli_main(argv + ["--out", str(out_b)]) == 0
        and out_a.read_bytes() == out_b.read_bytes()
    )
    ok = api_ok and cli_ok
    line = verdict(
        "C14",
        ok,
        "repeated experiment runs byte-identical (library call and CLI)"
        if ok
        else f"determinism broken: api_identical={api_ok} "
        f"cli_identical={cli_ok}",
    )
    assert ok, line
