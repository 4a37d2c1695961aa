"""Ratio experiments over generated instance families, and the
cross-objective inequality checks.

The harness generates one instance per trial (cycling through the size
range and the β set), runs each requested algorithm, and compares
against the exact optimum whenever the instance is within the oracle
cap.  Within a trial each policy loop runs at most once: the non-idling,
non-interfering and best-of-two rows share the two greedy runs.  Each
loop returns its exact makespan, so a makespan sweep builds and
evaluates no schedule; a total-completion sweep builds and evaluates
each distinct run's schedule once.
Everything that feeds a comparison stays an exact rational; the CSV
carries exact "p/q" strings next to a display-only decimal rendering.

Determinism contract: a fixed config produces byte-identical CSV.  Wall
times are only measured under ``timings=True``, which deliberately
breaks that contract for the one column that cannot be deterministic.
A row's time covers only the work it did first in its trial, so a row
whose loops an earlier row already ran (best-of-two after non-idling and
non-interfering, say) times the pick and nothing else.  Under the
makespan objective no row's time includes an evaluation, and the trial's
optimum, when the instance is within the cap, runs ECTF's loop for its
bound before any row: ECTF's row then times only the lookup of that run.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass, fields
from fractions import Fraction

from .generators import MAX_N, Family, FamilySpec, generate
from .model import (
    Instance,
    InvalidArgument,
    _show,
    evaluate,
    rational,
)
from .oracle import (
    BRUTE_FORCE_MAX_N,
    InstanceTooLarge,
    Objective,
    OptResult,
    _lb_fixed,
    check_optimum_cap,
    dp_min_makespan,
    lb_release,
    optimum,
    value_ratio,
)
from .schedulers import PolicyRun, SchedulerChoice, run
from .serialization import decimal_string, format_rational


# The most trials one run may plan.  A run holds every row until it
# returns, and trial ids are ``t%05d``, so up to this cap the ids sort in
# trial order.
MAX_TRIALS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; two equal configs give identical output.

    Every field is checked as the config is built, so before any trial
    runs: the counts must be ints (bools refused), ``trials`` from 0 to
    :data:`MAX_TRIALS`, ``max_bruteforce_n`` at least 0, ``family``,
    ``objective`` and each of ``algorithms`` members of their enums,
    ``timings`` a bool, each of ``betas`` above 0, and ``n_max`` at most
    the family's cap in :data:`~detsched.generators.MAX_N` (each trial's
    size is the family spec's ``n``).  A bad field raises
    :class:`InvalidArgument`.
    """

    family: Family
    trials: int
    n_min: int
    n_max: int
    betas: tuple[Fraction, ...]
    seed: int
    algorithms: tuple[SchedulerChoice, ...]
    objective: Objective = Objective.MAKESPAN
    alpha_max: int = 8
    r_max: int = 12
    b: Fraction | None = None
    max_bruteforce_n: int = BRUTE_FORCE_MAX_N
    timings: bool = False

    def __post_init__(self) -> None:
        for name in ("trials", "n_min", "n_max", "seed", "alpha_max", "r_max", "max_bruteforce_n"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidArgument(f"{name} must be an int, got {type(value).__name__}")
        for name, kind in (("family", Family), ("objective", Objective), ("timings", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise InvalidArgument(f"{name} must be of type {kind.__name__}, got {type(value).__name__}")
        if self.trials < 0:
            raise InvalidArgument("trials must be >= 0")
        if self.trials > MAX_TRIALS:
            raise InvalidArgument(f"trials must be <= {MAX_TRIALS}, got {self.trials}")
        if self.max_bruteforce_n < 0:
            raise InvalidArgument("max_bruteforce_n must be >= 0")
        if self.n_min < 1 or self.n_max < self.n_min:
            raise InvalidArgument("need 1 <= n_min <= n_max")
        cap = MAX_N[self.family]
        if self.n_max > cap:
            raise InvalidArgument(
                f"n_max must be <= {cap} for the {self.family.value} family, got {self.n_max}"
            )
        if not self.betas:
            raise InvalidArgument("betas must be nonempty")
        if not self.algorithms:
            raise InvalidArgument("algorithms must be nonempty")
        object.__setattr__(self, "betas", tuple(rational(b) for b in self.betas))
        for beta in self.betas:
            if beta <= 0:
                raise InvalidArgument(f"beta must be > 0, got {_show(beta)}")
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        for i, algorithm in enumerate(self.algorithms):
            if not isinstance(algorithm, SchedulerChoice):
                raise InvalidArgument(
                    f"algorithms must be of type SchedulerChoice, got {type(algorithm).__name__}"
                )
            if algorithm in self.algorithms[:i]:
                raise InvalidArgument(f"algorithm {algorithm.value!r} is named twice")
        if self.b is not None:
            object.__setattr__(self, "b", rational(self.b))


@dataclass(frozen=True)
class ExperimentRow:
    """One (instance, algorithm) measurement.

    ``opt_value`` and ``ratio`` are None when the instance exceeded the
    oracle cap.  ``wall_time_ms`` is already a string: empty unless the
    run opted into timings.  :func:`run_experiment` builds each row by
    filling its ``vars()``, as :func:`~detsched.model._record` does for an
    instance, not through the frozen ``__init__``.  The rows of one trial
    share their beta, optimum and bound objects, the rows of one policy
    run share its makespan object, and every row whose value equals the
    optimum holds the one ratio object that
    :func:`~detsched.oracle.value_ratio` returns for it.
    """

    instance_id: str
    n: int
    beta: Fraction
    family: str
    seed: int
    algorithm: str
    objective: str
    value: Fraction
    opt_value: Fraction | None
    ratio: Fraction | None
    lb_release: Fraction
    lb_fixed: Fraction
    wall_time_ms: str


# Header is the row's field order, with the exact ratio and its decimal
# rendering as adjacent columns.
CSV_HEADER = (
    "instance_id",
    "n",
    "beta",
    "family",
    "seed",
    "algorithm",
    "objective",
    "value",
    "opt_value",
    "ratio",
    "ratio_decimal",
    "lb_release",
    "lb_fixed",
    "wall_time_ms",
)

assert CSV_HEADER[:10] + CSV_HEADER[11:] == tuple(
    f.name for f in fields(ExperimentRow)
)


def _shared_cells(row: ExperimentRow) -> tuple[str, str, str, str]:
    """The cells every row of a trial shares: beta, the optimum and the
    two lower bounds."""
    return (
        decimal_string(row.beta),
        "" if row.opt_value is None else format_rational(row.opt_value),
        format_rational(row.lb_release),
        format_rational(row.lb_fixed),
    )


def _measured_cells(value: Fraction, ratio: Fraction | None) -> tuple[str, str, str]:
    """The cells of a row's value, its exact ratio and the ratio's
    decimal rendering."""
    if ratio is None:
        return format_rational(value), "", ""
    return format_rational(value), format_rational(ratio), decimal_string(ratio)


def _optimum(
    instance: Instance,
    objective: Objective,
    cap: int,
    runs: dict[SchedulerChoice, PolicyRun],
) -> Fraction | None:
    """The trial's optimum, or None past the cap :func:`check_optimum_cap`
    applies: ``cap`` or the route's own ceiling, whichever is lower.  The
    makespan DP takes its bound from ECTF's run in ``runs``, the trial's
    one dict of runs."""
    try:
        check_optimum_cap(instance, objective, cap)
    except InstanceTooLarge:
        return None
    if objective is Objective.MAKESPAN:
        # subset DP: same answer as brute force, exponentially cheaper
        return dp_min_makespan(instance, runs)
    return optimum(instance, objective, max_n=cap).best_value


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """Run the configured sweep; rows come back sorted by
    (instance_id, algorithm) regardless of execution order.

    Per trial, each policy loop runs at most once: every row calls
    :func:`~detsched.schedulers.run` with the trial's one dict of runs, and
    so does the makespan DP, which takes its bound from ECTF's run.
    Under the makespan objective a row's value is its run's makespan, so
    no schedule is built or evaluated.  Under total completion each
    distinct run's schedule is built and evaluated once: best-of-two's run
    is the winning greedy run's own record, so its value is found by
    identity, not by comparing or hashing Fractions.

    Each row is built by filling its ``vars()`` (see
    :class:`ExperimentRow`), and the names of the family, the objective
    and the algorithms are read once per run."""
    span = config.n_max - config.n_min + 1
    family_name, objective_name = config.family.value, config.objective.value
    makespan = config.objective is Objective.MAKESPAN
    timings = config.timings
    algorithms = [(algorithm, algorithm.value) for algorithm in config.algorithms]
    rows: list[ExperimentRow] = []
    for trial in range(config.trials):
        spec = FamilySpec(
            family=config.family,
            n=config.n_min + trial % span,
            beta=config.betas[trial % len(config.betas)],
            b=config.b,
            seed=config.seed + trial,
            alpha_max=config.alpha_max,
            r_max=config.r_max,
        )
        instance = generate(spec)
        lbr = lb_release(instance)
        lbf = _lb_fixed(instance)
        runs: dict[SchedulerChoice, PolicyRun] = {}
        opt = _optimum(instance, config.objective, config.max_bruteforce_n, runs)
        shared = {
            "instance_id": f"{family_name}-t{trial:05d}",
            "n": instance.n,
            "beta": instance.beta,
            "family": family_name,
            "seed": spec.seed,
            "objective": objective_name,
            "opt_value": opt,
            "lb_release": lbr,
            "lb_fixed": lbf,
        }
        evaluated: list[tuple[PolicyRun, Fraction]] = []
        for algorithm, name in algorithms:
            started = time.perf_counter() if timings else 0.0
            record = run(instance, algorithm, runs)
            if makespan:
                value = record.makespan
            else:
                value = next((v for r, v in evaluated if r is record), None)
                if value is None:
                    value = evaluate(instance, record.schedule).total_completion
                    evaluated.append((record, value))
            elapsed = f"{(time.perf_counter() - started) * 1000.0:.3f}" if timings else ""
            row = ExperimentRow.__new__(ExperimentRow)
            vars(row).update(
                shared,
                algorithm=name,
                value=value,
                ratio=None if opt is None else value_ratio(value, opt),
                wall_time_ms=elapsed,
            )
            rows.append(row)
    rows.sort(key=lambda r: (r.instance_id, r.algorithm))
    return rows


def write_csv(rows: list[ExperimentRow]) -> str:
    """CSV text: fixed header, LF line endings, deterministic.

    The rows of one trial share their beta, optimum and bound objects
    (see :func:`run_experiment`), so those cells are formatted once per
    run of rows that hold the very same objects.  Within such a run, the
    value, ratio and ratio-decimal cells are formatted once per distinct
    pair of value and ratio objects, keyed on both: a row whose ratio was
    replaced keeps its value object but gets its own cells.  The objects
    are told apart by ``id``, which is sound because ``rows`` keeps every
    one of them alive.  All the rows go to the writer in one
    ``writerows`` call."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    lines = []
    last = None
    for row in rows:
        key = (id(row.beta), id(row.opt_value), id(row.lb_release), id(row.lb_fixed))
        if key != last:
            last = key
            beta, opt_value, lb_release, lb_fixed = _shared_cells(row)
            measured: dict[tuple[int, int], tuple[str, str, str]] = {}
        value, ratio = row.value, row.ratio
        pair = (id(value), id(ratio))
        cells = measured.get(pair)
        if cells is None:
            cells = measured[pair] = _measured_cells(value, ratio)
        value_cell, ratio_cell, decimal_cell = cells
        lines.append(
            (
                row.instance_id,
                str(row.n),
                beta,
                row.family,
                str(row.seed),
                row.algorithm,
                row.objective,
                value_cell,
                opt_value,
                ratio_cell,
                decimal_cell,
                lb_release,
                lb_fixed,
                row.wall_time_ms,
            )
        )
    writer.writerows(lines)
    return buffer.getvalue()


@dataclass(frozen=True)
class InequalityCheck:
    label: str
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class CrossObjectiveReport:
    makespan_opt: OptResult
    total_completion_opt: OptResult
    checks: tuple[InequalityCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)


def cross_objective_check(
    instance: Instance, max_n: int = BRUTE_FORCE_MAX_N
) -> CrossObjectiveReport:
    """How well each objective's optimum serves the other objective.

    Three inequalities, each with exact sides:
      a. the total-completion optimum's makespan is at most twice the
         optimal makespan;
      b. the makespan optimum's total completion is at most (1 + 1/β)
         times the optimal total completion;
      c. the estimate-first heuristic's total completion is at most
         (1 + 1/β)(3 + 1/β) times the optimal total completion.
    """
    # the total-completion cap is the tighter one, so it is the one named
    for objective in (Objective.TOTAL_COMPLETION, Objective.MAKESPAN):
        check_optimum_cap(instance, objective, max_n)
    t_opt = optimum(instance, Objective.MAKESPAN, max_n=max_n)
    c_opt = optimum(instance, Objective.TOTAL_COMPLETION, max_n=max_n)
    inv_beta = Fraction(1) / instance.beta

    sum_opt_makespan = evaluate(instance, c_opt.best_schedule).makespan
    makespan_opt_sum = evaluate(instance, t_opt.best_schedule).total_completion
    ectf_sum = evaluate(instance, run(instance, SchedulerChoice.ECTF).schedule).total_completion

    checks = (
        InequalityCheck(
            "sum-optimum-makespan", sum_opt_makespan, 2 * t_opt.best_value
        ),
        InequalityCheck(
            "makespan-optimum-sum",
            makespan_opt_sum,
            (1 + inv_beta) * c_opt.best_value,
        ),
        InequalityCheck(
            "ectf-sum",
            ectf_sum,
            (1 + inv_beta) * (3 + inv_beta) * c_opt.best_value,
        ),
    )
    return CrossObjectiveReport(t_opt, c_opt, checks)
