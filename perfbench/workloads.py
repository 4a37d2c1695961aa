"""The three workloads: their inputs, their operations, and the checks
made on every output outside the timed region.

An operation is the unit a user waits for: one ``experiment`` call
(``sweep``), the four certifying commands on one instance (``certify``),
or one ``solve`` followed by an ``eval`` of its result
(``long-horizon``).  Every command goes through
``detsched.cli.main``, the function behind the ``detsched`` program.

The checks use their own exact arithmetic (``replay``), not the model's,
and parse numbers in chunks so that values of any size are read without
touching the interpreter's integer-string limit.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from detsched import generators, oracle, schedulers, serialization

CHUNK = 4000  # decimal digits per int() call, under the interpreter's limit


def exact_int(digits: str) -> int:
    sign = -1 if digits.startswith("-") else 1
    digits = digits.lstrip("-")
    value = 0
    for i in range(0, len(digits), CHUNK):
        part = digits[i : i + CHUNK]
        value = value * 10 ** len(part) + int(part)
    return sign * value


def exact(text: str) -> Fraction:
    """Parse ``"p"`` or ``"p/q"`` of any length."""
    num, _, den = text.partition("/")
    return Fraction(exact_int(num), exact_int(den) if den else 1)


def replay(instance, order, starts=None) -> list[Fraction]:
    """Completion times of ``order``; with ``starts``, checks that each is
    feasible, otherwise starts each job as early as it can.  Raises
    ``ValueError`` on an infeasible or malformed schedule."""
    jobs = {job.id: job for job in instance.jobs}
    if sorted(order) != sorted(jobs):
        raise ValueError("order is not a permutation of the job ids")
    growth = 1 + instance.beta
    completion = Fraction(0)
    completions = []
    for k, jid in enumerate(order):
        job = jobs[jid]
        earliest = max(job.release, completion)
        start = earliest if starts is None else starts[k]
        if start < earliest:
            raise ValueError(f"position {k + 1} (job {jid}) starts at {start} < {earliest}")
        completion = job.alpha + growth * start
        completions.append(completion)
    return completions


def _load(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@dataclass
class Op:
    """One operation: the commands it runs in order (it stops at the first
    that fails) and a name for each, the file each writes, and the check
    of its outputs.  The check gets the exit codes and returns a problem,
    or None."""

    kind: str
    jobs: int
    names: list[str]
    steps: list[list[str]]
    outputs: list[Path]
    check: Callable[[list[int]], str | None]


def _write_instance(path: Path, instance) -> None:
    path.write_text(serialization.write_instance(instance), encoding="utf-8")


class Sweep:
    """The paper's ratio sweep: one ``experiment`` call per operation.  The
    command generates its own instances; set-up generates the same ones for
    the check."""

    TRIALS = 52
    N_MIN, N_MAX = 2, 14
    BETAS = (Fraction(1, 2), Fraction(1), Fraction(2))
    ALGORITHMS = tuple(choice.value for choice in schedulers.SchedulerChoice)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.trials_per_pass = self.TRIALS
        self.instances = []
        self.ops: list[Op] = []

    def setup(self) -> None:
        span = self.N_MAX - self.N_MIN + 1
        self.instances = []
        for t in range(self.TRIALS):
            instance = generators.generate(
                generators.FamilySpec(
                    family=generators.Family.RANDOM,
                    n=self.N_MIN + t % span,
                    beta=self.BETAS[t % len(self.BETAS)],
                    seed=self.seed + t,
                )
            )
            self.instances.append(instance)
        out = self.work / "sweep.csv"
        argv = [
            "experiment", "--family", "random", "--trials", str(self.TRIALS),
            "--n-min", str(self.N_MIN), "--n-max", str(self.N_MAX),
            "--betas", ",".join(map(str, self.BETAS)), "--seed", str(self.seed),
            "--algorithms", ",".join(self.ALGORITHMS), "--objective", "makespan",
            "--max-bruteforce-n", str(self.N_MAX), "--out", str(out),
        ]
        jobs = sum(instance.n for instance in self.instances)
        self.ops = [
            Op("experiment", jobs, ["experiment"], [argv], [out], lambda codes: self.check(out))
        ]

    def check(self, out: Path) -> str | None:
        """Every optimum is at most each algorithm's value and at least
        both lower bounds; every trial has one row per algorithm."""
        with out.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        if len(rows) != self.TRIALS * len(self.ALGORITHMS):
            return f"{len(rows)} rows for {self.TRIALS} trials"
        for row in rows:
            trial = int(row["instance_id"].rsplit("-t", 1)[1])
            if int(row["n"]) != self.instances[trial].n:
                return f"{row['instance_id']}: n={row['n']}"
            if not row["opt_value"]:
                return f"{row['instance_id']}: no optimum"
            opt = exact(row["opt_value"])
            if opt > exact(row["value"]):
                return f"{row['instance_id']} {row['algorithm']}: optimum above value"
            if opt < exact(row["lb_release"]) or opt < exact(row["lb_fixed"]):
                return f"{row['instance_id']}: optimum below a lower bound"
        return None


class Certify:
    """Brute-force certification at n=7: one operation per instance runs
    ``opt`` for both objectives, ``cross-check`` and ``verify-pm``."""

    INSTANCES = 24
    N = 7
    BETAS = (Fraction(1, 2), Fraction(1), Fraction(2))

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.trials_per_pass = self.INSTANCES
        self.ops: list[Op] = []

    def setup(self) -> None:
        self.ops = []
        for i in range(self.INSTANCES):
            instance = generators.generate(
                generators.FamilySpec(
                    family=generators.Family.RANDOM,
                    n=self.N,
                    beta=self.BETAS[i % len(self.BETAS)],
                    seed=self.seed * 1000 + i,
                )
            )
            path = self.work / f"inst{i:02d}.json"
            _write_instance(path, instance)
            self.ops.append(self._op(i, instance, str(path)))

    def _op(self, i: int, instance, path: str) -> Op:
        commands = {
            "opt-makespan": (["opt", "--objective", "makespan"], self.check_opt_makespan),
            "opt-total": (["opt", "--objective", "total-completion"], self.check_opt_total),
            "cross-check": (["cross-check"], self.check_cross),
            "verify-pm": (["verify-pm"], self.check_pm),
        }
        outs = [self.work / f"inst{i:02d}.{name}.json" for name in commands]
        steps = [
            [*argv, "--instance", path, "--out", str(out)]
            for (argv, _), out in zip(commands.values(), outs)
        ]

        def check(codes: list[int]) -> str | None:
            for (name, (_, check_one)), out, code in zip(commands.items(), outs, codes):
                problem = check_one(instance, out, code)
                if problem is not None:
                    return f"{name}: {problem}"
            return None

        return Op("certify", instance.n, list(commands), steps, outs, check)

    @staticmethod
    def _opt_doc(instance, out: Path) -> tuple[dict, list[Fraction]]:
        doc = _load(out)
        starts = [exact(s) for s in doc["starts"]]
        return doc, replay(instance, doc["order"], starts)

    def check_opt_makespan(self, instance, out: Path, code: int) -> str | None:
        """The brute-force optimum equals the subset DP's."""
        doc, completions = self._opt_doc(instance, out)
        value = exact(doc["value"])
        if value != completions[-1]:
            return "reported makespan differs from its schedule's"
        if value != oracle.dp_min_makespan(instance):
            return "brute-force makespan differs from the subset DP"
        return None

    def check_opt_total(self, instance, out: Path, code: int) -> str | None:
        """The optimum total completion is at most every policy's."""
        doc, completions = self._opt_doc(instance, out)
        value = exact(doc["value"])
        if value != sum(completions):
            return "reported total differs from its schedule's"
        for choice, policy in schedulers.SCHEDULERS.items():
            schedule = policy(instance)
            if value > sum(replay(instance, schedule.order, schedule.starts)):
                return f"optimum total above {choice.value}'s"
        return None

    def check_cross(self, instance, out: Path, code: int) -> str | None:
        doc = _load(out)
        for check in doc["checks"]:
            if check["holds"] != (exact(check["lhs"]) <= exact(check["rhs"])):
                return f"{check['label']}: 'holds' contradicts its sides"
        if (code == 0) != doc["all_hold"]:
            return f"exit {code} with all_hold={doc['all_hold']}"
        return None

    def check_pm(self, instance, out: Path, code: int) -> str | None:
        """A certificate's every stage has load lhs <= rhs; a violation is
        a finding and exits 2."""
        doc = _load(out)
        if doc["verdict"] == "violation":
            return None if code == 2 else f"violation with exit {code}"
        for stage in doc["stages"]:
            if exact(stage["load_lhs"]) > exact(stage["load_rhs"]):
                return f"stage {stage['k']}: lhs > rhs"
        return None


class LongHorizon:
    """One n=1600 instance through ``solve`` then ``eval`` for each policy
    whose loop is O(n^2) on big rationals."""

    N = 1600
    BETA = Fraction(1, N)
    R_MAX = 6400
    ALGORITHMS = ("non-idling", "non-interfering", "ectf")

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work
        self.trials_per_pass = 1
        self.instance = None
        self.ops: list[Op] = []

    def setup(self) -> None:
        self.instance = generators.generate(
            generators.FamilySpec(
                family=generators.Family.RANDOM,
                n=self.N,
                beta=self.BETA,
                seed=self.seed,
                r_max=self.R_MAX,
            )
        )
        path = self.work / "instance.json"
        _write_instance(path, self.instance)
        self.ops = []
        for algorithm in self.ALGORITHMS:
            schedule = self.work / f"{algorithm}.schedule.json"
            report = self.work / f"{algorithm}.eval.json"
            steps = [
                ["solve", "--instance", str(path), "--algorithm", algorithm,
                 "--out", str(schedule)],
                ["eval", "--instance", str(path), "--schedule", str(schedule),
                 "--out", str(report)],
            ]
            self.ops.append(
                Op(
                    algorithm,
                    self.N,
                    [f"solve {algorithm}", f"eval {algorithm}"],
                    steps,
                    [schedule, report],
                    lambda codes, s=schedule, r=report: self.check(s, r),
                )
            )

    def check(self, schedule: Path, report: Path) -> str | None:
        """The written schedule, parsed back, is feasible, and ``eval``
        reports its makespan and total completion."""
        doc = _load(schedule)
        completions = replay(self.instance, doc["order"], [exact(s) for s in doc["starts"]])
        result = _load(report)
        if exact(result["makespan"]) != completions[-1]:
            return "eval makespan differs from the replayed schedule's"
        if exact(result["total_completion"]) != sum(completions):
            return "eval total completion differs from the replayed schedule's"
        return None


WORKLOADS = {"sweep": Sweep, "certify": Certify, "long-horizon": LongHorizon}
