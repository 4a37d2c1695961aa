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
        "d, keys, tuple(sorted(keys)))",
        "d, keys, tuple(sorted(keys, key=lambda k: (k[1], k[0], k[2]))))",
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
        "if _finish(jobs, q, pq, done | bit, completion) <= bound:",
        "if _finish(jobs, q, pq, done | bit, completion) < bound:",
        (
            "tests/test_oracle.py::TestOptimum::test_makespan_matches_brute_force",
            "tests/test_oracle.py::TestOrderMatchesBackwardTable::test_same_order",
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
        "if _finish(jobs, q, pq, done | bit, completion) <= bound:",
        "if _finish(jobs, q, pq, done, completion) <= bound:",
        (
            "tests/test_oracle.py::TestOptimum::test_makespan_matches_brute_force",
            "tests/test_oracle.py::TestOrderMatchesBackwardTable::test_same_order",
        ),
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
        "record = _ectf(instance)",
        'raise AssertionError("ectf")',
        (
            "tests/test_schedulers.py::TestEctf::test_two_job_example",
            "tests/test_schedulers.py::TestRunEntryPoint::test_every_choice_maps_to_run",
        ),
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
