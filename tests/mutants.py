"""A catalogue of hand-made mutants of the fast paths, and their runner.

Each entry names a source file, an exact snippet that occurs once in it,
the replacement that breaks it, and the test node ids that must then
fail.  pytest does not collect this file (its name does not start with
``test_``).  Tier-1 checks only that every snippet still occurs exactly
once in its file (``tests/test_mutant_catalogue.py``), so a change that
moves the code must update the entry here.

Run the catalogue, or some of its entries by name, from the root of a
checkout::

    python tests/mutants.py [name ...]

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a fresh
temporary directory for each run and runs pytest there in one subprocess,
one at a time, never in parallel.  A control run first checks that the
named tests pass on the unmutated copy.  Then each mutant gets its own
copy with its one replacement: it is killed when its tests fail or run
past ``TIMEOUT_S``, and it survives when they pass.  The exit status is 0
when every mutant was killed, and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the root of the checkout
    snippet: str
    replacement: str
    tests: tuple[str, ...]


CATALOGUE = (
    Mutant(
        "record-sorted-by-alpha",
        "src/detsched/model.py",
        "return tuple(sorted(self._prepared.keys))",
        "return tuple(sorted(self._prepared.keys, key=lambda k: (k[1], k[0], k[2])))",
        (
            "tests/test_oracle.py::TestPreparedRecord::test_keys",
            "tests/test_schedulers.py::TestMatchesReferenceLoops::test_same_schedules",
        ),
    ),
    Mutant(
        "record-scale-over-releases-only",
        "src/detsched/model.py",
        "d = math.lcm(*(v.denominator for j in jobs for v in (j.alpha, j.release)))",
        "d = math.lcm(*(j.release.denominator for j in jobs))",
        (
            "tests/test_oracle.py::TestPreparedRecord::test_keys",
            "tests/test_schedulers.py::TestMatchesReferenceLoops::test_same_schedules",
        ),
    ),
    Mutant(
        "scaled-one-power-of-q-short",
        "src/detsched/oracle.py",
        "weight = q**instance.n",
        "weight = q ** (instance.n - 1)",
        (
            "tests/test_oracle.py::TestPreparedRecord::test_scaled",
            "tests/test_oracle.py::TestDpMatchesFullTable::test_same_value",
        ),
    ),
    Mutant(
        "lb-fixed-descending",
        "src/detsched/oracle.py",
        "alphas = sorted(a for _, a, _ in prepared.keys)",
        "alphas = sorted((a for _, a, _ in prepared.keys), reverse=True)",
        ("tests/test_oracle.py::TestPreparedRecord::test_bounds",),
    ),
    Mutant(
        "optimum-walk-strict-bound",
        "src/detsched/oracle.py",
        "if _finish(lattice, done | bit, completion, best + 1) <= best:",
        "if _finish(lattice, done | bit, completion, best + 1) < best:",
        (
            "tests/test_oracle.py::TestOptimum::test_makespan_matches_brute_force",
            "tests/test_oracle.py::TestOrderMatchesBackwardTable::test_same_order",
        ),
    ),
    Mutant(
        "brute-force-tie-to-a-later-order",
        "src/detsched/oracle.py",
        "if best_value is None or value < best_value:",
        "if best_value is None or value <= best_value:",
        (
            "tests/test_oracle.py::TestBruteForceMatchesReference::test_only_the_id_breaks_the_tie",
            "tests/test_oracle.py::TestBruteForceMatchesReference::test_same_result",
        ),
    ),
    Mutant(
        "brute-force-children-in-instance-order",
        "src/detsched/oracle.py",
        "walk(sorted((job.id, job.alpha, job.release) for job in instance.jobs), ZERO, ZERO)",
        "walk([(job.id, job.alpha, job.release) for job in instance.jobs], ZERO, ZERO)",
        (
            "tests/test_oracle.py::TestBruteForceMatchesReference::test_only_the_id_breaks_the_tie",
            "tests/test_oracle.py::TestBruteForceMatchesReference::test_same_result",
        ),
    ),
    Mutant(
        "brute-force-total-not-carried",
        "src/detsched/oracle.py",
        "walk(left[:i] + left[i + 1 :], child, total + child)",
        "walk(left[:i] + left[i + 1 :], child, child)",
        (
            "tests/test_oracle.py::TestBruteForce::test_two_job_total_completion",
            "tests/test_oracle.py::TestBruteForceMatchesReference::test_same_result",
        ),
    ),
    Mutant(
        "parse-instance-bool-ids",
        "src/detsched/serialization.py",
        "if not isinstance(jid, int) or isinstance(jid, bool):",
        "if not isinstance(jid, int):",
        (
            "tests/test_serialization.py::TestInstanceDocuments::test_job_errors_and_their_precedence",
            "tests/test_reference_routes.py::TestInstanceRoutes::test_mutated_documents",
            "tests/test_reference_routes.py::TestRecordRoute::test_refusals",
        ),
    ),
    Mutant(
        "record-check-skips-duplicate-ids",
        "src/detsched/model.py",
        "if jid in seen:",
        "if False:",
        (
            "tests/test_reference_routes.py::TestRecordRoute::test_refusals",
            "tests/test_model.py::TestValidation::test_duplicate_ids_rejected",
        ),
    ),
    Mutant(
        "parse-p-over-q-as-its-numerator",
        "src/detsched/serialization.py",
        "return value.numerator, value.denominator",
        "return value.numerator, 1",
        (
            "tests/test_reference_routes.py::TestRecordRoute::test_parsed_record_matches_the_job_route",
            "tests/test_serialization.py::TestInstanceDocuments::test_plain_and_other_spellings_parse_alike",
        ),
    ),
    Mutant(
        "parse-scale-by-largest-denominator",
        "src/detsched/serialization.py",
        "d = math.lcm(*{den for _, den in values.values()})",
        "d = max({den for _, den in values.values()})",
        (
            "tests/test_reference_routes.py::TestRecordRoute::test_parsed_record_matches_the_job_route",
            "tests/test_reference_routes.py::TestInstanceRoutes::test_fuzzed_documents",
        ),
    ),
    Mutant(
        "digits-by-str-isdigit",
        "src/detsched/serialization.py",
        "return text.isascii() and text.encode().isdigit()",
        "return text.isdigit()",
        ("tests/test_serialization.py::TestInstanceDocuments::test_job_errors_and_their_precedence",),
    ),
    Mutant(
        "optimum-walk-probes-from-done",
        "src/detsched/oracle.py",
        "if _finish(lattice, done | bit, completion, best + 1) <= best:",
        "if _finish(lattice, done, completion, best + 1) <= best:",
        (
            "tests/test_oracle.py::TestOptimum::test_makespan_matches_brute_force",
            "tests/test_oracle.py::TestOrderMatchesBackwardTable::test_same_order",
        ),
    ),
    Mutant(
        "optimum-walk-probe-bound-tight",
        "src/detsched/oracle.py",
        "if _finish(lattice, done | bit, completion, best + 1) <= best:",
        "if _finish(lattice, done | bit, completion, best) <= best:",
        (
            "tests/test_oracle.py::TestPrunedDp::test_ectf_not_optimal",
            "tests/test_oracle.py::TestOrderMatchesBackwardTable::test_same_order",
        ),
    ),
    Mutant(
        "dp-floors-from-descending-alphas",
        "src/detsched/oracle.py",
        "for _, alpha, _ in by_alpha:",
        "for _, alpha, _ in reversed(by_alpha):",
        (
            "tests/test_oracle.py::TestPrunedDp::test_matches_reference_and_brute_force",
            "tests/test_oracle.py::TestPrunedDp::test_any_bound_is_an_incumbent",
        ),
    ),
    Mutant(
        "dp-floors-one-job-more",
        "src/detsched/oracle.py",
        "floor, qr, pqr = floors[left]",
        "floor, qr, pqr = floors[left + 1]",
        (
            "tests/test_oracle.py::TestPrunedDp::test_matches_reference_and_brute_force",
            "tests/test_oracle.py::TestPrunedDp::test_any_bound_is_an_incumbent",
        ),
    ),
    Mutant(
        "dp-floors-one-job-less",
        "src/detsched/oracle.py",
        "floor, qr, pqr = floors[left]",
        "floor, qr, pqr = floors[left - 1]",
        ("tests/test_oracle.py::TestPrunedDp::test_ectf_optimal_prunes_every_child",),
    ),
    Mutant(
        "dp-child-never-pruned",
        "src/detsched/oracle.py",
        "if candidate >= cutoff:",
        "if False:",
        ("tests/test_oracle.py::TestPrunedDp::test_ectf_optimal_prunes_every_child",),
    ),
    Mutant(
        "rho-pm-capacity-plus-one",
        "tests/lemmas.py",
        "if count > cap:",
        "if count > cap + 1:",
        (
            "tests/test_pseudomatching.py::TestVerifyRhoPm::test_capacity_violation_at_rho_one",
            "tests/test_pseudomatching.py::TestVerifyRhoPm::test_fractional_rho_floors_capacity",
        ),
    ),
    Mutant(
        "run-ectf-branch-raises",
        "src/detsched/schedulers.py",
        "elif estimate:",
        'elif estimate:\n            raise AssertionError("ectf")',
        (
            "tests/test_schedulers.py::TestEctf::test_two_job_example",
            "tests/test_schedulers.py::TestRunEntryPoint::test_every_choice_maps_to_run",
        ),
    ),
    Mutant(
        "ectf-pending-key-keeps-release",
        "src/detsched/schedulers.py",
        "heapq.heappush(pending, (a, 0 if estimate else r, jid))",
        "heapq.heappush(pending, (a, r, jid))",
        ("tests/test_schedulers.py::TestEctf::test_released_fixed_part_tie_goes_to_id_not_release",),
    ),
    Mutant(
        "ectf-jump-without-ties",
        "src/detsched/schedulers.py",
        "if (key * Q, a_j, j) < (completion, a, jid):",
        "if key * Q < completion:",
        (
            "tests/test_schedulers.py::TestEctf::test_estimate_tie_goes_to_smaller_alpha",
            "tests/test_schedulers.py::TestEctf::test_two_job_example",
        ),
    ),
    Mutant(
        "ectf-never-jumps",
        "src/detsched/schedulers.py",
        "if (key * Q, a_j, j) < (completion, a, jid):",
        "if False:",
        ("tests/test_schedulers.py::TestEctf::test_jumps_twice_before_the_first_start",),
    ),
    Mutant(
        "walk-step-unreduced",
        "src/detsched/serialization.py",
        "g = math.gcd(residue(x), m)",
        "g = 1",
        (
            "tests/test_reference_routes.py::TestWalkRoutes::test_fixed_walks",
            "tests/test_reference_routes.py::TestWalkRoutes::test_solve_document",
        ),
    ),
    Mutant(
        "solve-precheck-strict-bound",
        "src/detsched/serialization.py",
        "if start.numerator >= bound or start.denominator >= bound:",
        "if start.numerator > bound or start.denominator > bound:",
        ("tests/test_reference_routes.py::TestWalkRoutes::test_start_at_the_digit_bound",),
    ),
    Mutant(
        "derived-jump-unscaled",
        "src/detsched/serialization.py",
        "jumped = r * Q > T",
        "jumped = r > T",
        (
            "tests/test_reference_routes.py::TestWalkRoutes::test_solve_document",
            "tests/test_reference_routes.py::TestWalkRoutes::test_fixed_walks",
        ),
    ),
    Mutant(
        "canonical-writer-ignores-jumps",
        "src/detsched/serialization.py",
        "[_text(start) for start, _, _ in _walk(prepared, order, jumps)]",
        "[_text(start) for start, _, _ in _walk(prepared, order, [k == 0 for k in range(len(order))])]",
        (
            "tests/test_reference_routes.py::TestWalkRoutes::test_opt_document",
            "tests/test_reference_routes.py::TestWalkRoutes::test_solve_document",
        ),
    ),
    Mutant(
        "canonical-writer-walks-sorted-order",
        "src/detsched/serialization.py",
        "[_text(start) for start, _, _ in _walk(prepared, order, jumps)]",
        "[_text(start) for start, _, _ in _walk(prepared, sorted(order), jumps)]",
        (
            "tests/test_reference_routes.py::TestWalkRoutes::test_opt_document",
            "tests/test_reference_routes.py::TestWalkRoutes::test_fixed_walks",
        ),
    ),
    Mutant(
        "canonical-writer-skips-order-check",
        "src/detsched/serialization.py",
        'prepared = instance._prepared\n    _check_writable(order, lambda i: f"order[{i}]")',
        "prepared = instance._prepared",
        ("tests/test_serialization.py::TestWritersPastTheDigitLimit::test_write_schedule_names_the_order_position",),
    ),
    Mutant(
        "ratio-shortcut-on-greater-or-equal",
        "src/detsched/oracle.py",
        "if value == optimum:",
        "if value >= optimum:",
        (
            "tests/test_oracle.py::TestApproximationRatio::test_equal_values_share_one_ratio",
            "tests/test_experiment.py::TestRunExperiment::test_estimate_first_adversarial_ratios",
        ),
    ),
    Mutant(
        "dp-returns-ectf-value-when-beaten",
        "src/detsched/oracle.py",
        "return ectf if best == bound else Fraction(best, lattice.scale)",
        "return ectf if best <= bound else Fraction(best, lattice.scale)",
        (
            "tests/test_oracle.py::TestEctfAdversaryAgainstTheDp::test_closed_form",
            "tests/test_oracle.py::TestPrunedDp::test_ectf_value_returned_as_is",
        ),
    ),
    Mutant(
        "csv-cells-keyed-on-value-alone",
        "src/detsched/experiment.py",
        "pair = (id(value), id(ratio))",
        "pair = (id(value), 0)",
        (
            "tests/test_experiment.py::TestCsvContract::test_replaced_ratio_gets_its_own_cells",
            "tests/test_reference_routes.py::TestCsvRoutes::test_same_bytes",
        ),
    ),
)


def _run_tests(tests: tuple[str, ...], mutant: Mutant | None) -> str:
    """Run ``tests`` in a fresh copy of the checkout, with ``mutant``
    applied if given: ``"passed"``, ``"failed"``, ``"timeout"`` or
    ``"error (...)"``."""
    with tempfile.TemporaryDirectory(prefix="detsched-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, work / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        if mutant is not None:
            target = work / mutant.path
            source = target.read_text(encoding="utf-8")
            if source.count(mutant.snippet) != 1:
                return "error (snippet does not occur exactly once)"
            target.write_text(source.replace(mutant.snippet, mutant.replacement), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        try:
            proc = subprocess.run(
                command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return "timeout"
    if proc.returncode in (0, 1):
        return ("passed", "failed")[proc.returncode]
    return f"error (pytest exit {proc.returncode})"


def main(names: list[str]) -> int:
    chosen = [m for m in CATALOGUE if not names or m.name in names]
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
    control = _run_tests(tests, None)
    print(f"control: {control}", flush=True)
    if control != "passed":
        return 1
    verdicts = []
    for mutant in chosen:
        outcome = _run_tests(mutant.tests, mutant)
        if outcome in ("failed", "timeout"):
            verdict = "killed"
        elif outcome == "passed":
            verdict = "SURVIVED"
        else:
            verdict = "ERROR"
        verdicts.append(verdict)
        print(f"{mutant.name}: {verdict} ({outcome})", flush=True)
    killed, survived = verdicts.count("killed"), verdicts.count("SURVIVED")
    print(f"killed {killed} of {len(chosen)}, survived {survived}, errors {len(chosen) - killed - survived}")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
