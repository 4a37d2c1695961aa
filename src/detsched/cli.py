"""Command-line surface.

Subcommands: gen, solve, opt, eval, experiment, verify-pm, cross-check.
Exit codes: 0 success, 1 validation or parse errors, 2 when a checked
bound fails to hold (a finding, not a usage error).

DETSCHED_SEED in the environment supplies the default seed.  The argument
parser is built once per process, on the first call to :func:`main`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    cross_objective_check,
    run_experiment,
    write_csv,
)
from .generators import Family, FamilySpec, generate
from .model import SchedulingError
from .oracle import BRUTE_FORCE_MAX_N, DP_MAX_N, Objective, optimum
from .pseudomatching import ConstructionFailed, construct_two_pm
from .schedulers import SchedulerChoice, run
from .serialization import (
    _canonical_schedule,
    _dumps,
    _eval_report,
    decimal_string,
    format_rational,
    parse_instance,
    parse_rational,
    write_instance,
)

FOUND_VIOLATION = 2

_MAX_N_HELP = (
    "largest n for an exact optimum (default %(default)s): the makespan "
    f"optimum runs on the subset DP up to {DP_MAX_N} jobs, the "
    f"total-completion optimum on brute force up to {BRUTE_FORCE_MAX_N} jobs, "
    "whatever this cap"
)


def _default_seed() -> int:
    raw = os.environ.get("DETSCHED_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise SchedulingError(f"DETSCHED_SEED must be an integer, got {raw!r}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SchedulingError(f"cannot write {out}: {exc}") from None


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchedulingError(f"cannot read {path}: {exc}") from None


def _json(doc: object) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _parse_betas(text: str) -> tuple[Fraction, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise SchedulingError("--betas needs at least one value")
    return tuple(parse_rational(p, "beta") for p in parts)


def _parse_algorithms(text: str) -> tuple[SchedulerChoice, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise SchedulingError("--algorithms needs at least one name")
    try:
        return tuple(SchedulerChoice(p) for p in parts)
    except ValueError as exc:
        names = ", ".join(c.value for c in SchedulerChoice)
        raise SchedulingError(f"{exc}; choose from: {names}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="detsched",
        description="Solvers, exact oracles, and ratio experiments for "
        "single-machine scheduling with uniformly deteriorating jobs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in Family]
    algorithms = [c.value for c in SchedulerChoice]
    objectives = [o.value for o in Objective]

    p_gen = sub.add_parser("gen", help="generate an instance from a family")
    p_gen.add_argument("--family", choices=families, default=Family.RANDOM.value)
    p_gen.add_argument(
        "--n", "--k", dest="n", type=int, default=5,
        help="size (job count, or the adversarial families' k parameter)",
    )
    p_gen.add_argument("--beta", default="1", help="rational, e.g. 1 or 3/2")
    p_gen.add_argument("--b", default=None, help="family scale parameter, rational")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--alpha-max", type=int, default=8)
    p_gen.add_argument("--r-max", type=int, default=12)
    p_gen.add_argument("--out", default=None)

    p_solve = sub.add_parser("solve", help="run one approximation algorithm")
    p_solve.add_argument("--instance", required=True)
    p_solve.add_argument("--algorithm", choices=algorithms, required=True)
    p_solve.add_argument("--out", default=None)

    p_opt = sub.add_parser(
        "opt",
        help="exact optimum: subset DP for makespan, brute force for total completion",
    )
    p_opt.add_argument("--instance", required=True)
    p_opt.add_argument(
        "--objective", choices=objectives, default=Objective.MAKESPAN.value
    )
    p_opt.add_argument(
        "--max-bruteforce-n", type=int, default=BRUTE_FORCE_MAX_N, help=_MAX_N_HELP
    )
    p_opt.add_argument("--out", default=None)

    p_eval = sub.add_parser("eval", help="evaluate a schedule against an instance")
    p_eval.add_argument("--instance", required=True)
    p_eval.add_argument("--schedule", required=True)
    p_eval.add_argument("--out", default=None)

    p_exp = sub.add_parser("experiment", help="run a ratio sweep, emit CSV")
    p_exp.add_argument("--family", choices=families, default=Family.RANDOM.value)
    p_exp.add_argument("--trials", type=int, default=100)
    p_exp.add_argument("--n-min", type=int, default=2)
    p_exp.add_argument("--n-max", type=int, default=8)
    p_exp.add_argument("--betas", default="1/2,1,2", help="comma-separated rationals")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument(
        "--algorithms", default=",".join(algorithms),
        help="comma-separated algorithm names",
    )
    p_exp.add_argument(
        "--objective", choices=objectives, default=Objective.MAKESPAN.value
    )
    p_exp.add_argument("--alpha-max", type=int, default=8)
    p_exp.add_argument("--r-max", type=int, default=12)
    p_exp.add_argument("--b", default=None)
    p_exp.add_argument(
        "--max-bruteforce-n", type=int, default=BRUTE_FORCE_MAX_N, help=_MAX_N_HELP
    )
    p_exp.add_argument(
        "--timings", action="store_true",
        help="fill wall_time_ms (breaks byte-identical reruns)",
    )
    p_exp.add_argument("--out", default=None)

    p_pm = sub.add_parser(
        "verify-pm",
        help="build and check the stage-by-stage bounding certificate",
    )
    p_pm.add_argument("--instance", required=True)
    p_pm.add_argument(
        "--max-bruteforce-n", type=int, default=BRUTE_FORCE_MAX_N, help=_MAX_N_HELP
    )
    p_pm.add_argument(
        "--no-reduce", action="store_true",
        help="run the construction directly even when the schedule has gaps",
    )
    p_pm.add_argument("--out", default=None)

    p_cross = sub.add_parser(
        "cross-check", help="check the cross-objective inequalities"
    )
    p_cross.add_argument("--instance", required=True)
    p_cross.add_argument(
        "--max-bruteforce-n", type=int, default=BRUTE_FORCE_MAX_N, help=_MAX_N_HELP
    )
    p_cross.add_argument("--out", default=None)

    return parser


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    spec = FamilySpec(
        family=Family(args.family),
        n=args.n,
        beta=parse_rational(args.beta, "beta"),
        b=None if args.b is None else parse_rational(args.b, "b"),
        seed=seed,
        alpha_max=args.alpha_max,
        r_max=args.r_max,
    )
    _emit(write_instance(generate(spec)), args.out)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    record = run(instance, SchedulerChoice(args.algorithm))
    _emit(_dumps(_canonical_schedule(instance, record.order)), args.out)
    return 0


def _cmd_opt(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    result = optimum(instance, Objective(args.objective), max_n=args.max_bruteforce_n)
    doc = {
        "objective": result.objective.value,
        **_canonical_schedule(instance, result.best_schedule.order),
        "value": format_rational(result.best_value, "value"),
    }
    _emit(_dumps(doc), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    _emit(_dumps(_eval_report(_read(args.schedule), instance)), args.out)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    config = ExperimentConfig(
        family=Family(args.family),
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        betas=_parse_betas(args.betas),
        seed=seed,
        algorithms=_parse_algorithms(args.algorithms),
        objective=Objective(args.objective),
        alpha_max=args.alpha_max,
        r_max=args.r_max,
        b=None if args.b is None else parse_rational(args.b, "b"),
        max_bruteforce_n=args.max_bruteforce_n,
        timings=args.timings,
    )
    _emit(write_csv(run_experiment(config)), args.out)
    return 0


def _cmd_verify_pm(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    ni = run(instance, SchedulerChoice.NON_INTERFERING).schedule
    optimal = optimum(
        instance, Objective.MAKESPAN, max_n=args.max_bruteforce_n
    ).best_schedule
    try:
        report = construct_two_pm(
            instance, ni, optimal, reduce_gaps=not args.no_reduce
        )
    except ConstructionFailed as exc:
        _emit(_json({"verdict": "violation", "detail": str(exc)}), args.out)
        return FOUND_VIOLATION
    stages = [
        {
            "k": k,
            "edges": [list(edge) for edge in report.per_k_matchings[k].edges],
            "load_lhs": format_rational(lhs, f"stages[{idx}].load_lhs"),
            "load_rhs": format_rational(rhs, f"stages[{idx}].load_rhs"),
        }
        for idx, (k, lhs, rhs) in enumerate(zip(
            sorted(report.per_k_matchings),
            report.per_k_bound_lhs,
            report.per_k_bound_rhs,
        ))
    ]
    doc = {
        "verdict": "ok",
        "last_critical_index": report.last_critical_index,
        "reduced": report.reduced,
        "stages": stages,
    }
    _emit(_json(doc), args.out)
    return 0


def _cmd_cross_check(args: argparse.Namespace) -> int:
    instance = parse_instance(_read(args.instance))
    report = cross_objective_check(instance, max_n=args.max_bruteforce_n)
    doc = {
        "checks": [
            {
                "label": check.label,
                "lhs": format_rational(check.lhs, f"checks[{idx}].lhs"),
                "rhs": format_rational(check.rhs, f"checks[{idx}].rhs"),
                "lhs_decimal": decimal_string(check.lhs),
                "rhs_decimal": decimal_string(check.rhs),
                "holds": check.holds,
            }
            for idx, check in enumerate(report.checks)
        ],
        "all_hold": report.all_hold,
    }
    _emit(_json(doc), args.out)
    return 0 if report.all_hold else FOUND_VIOLATION


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "opt": _cmd_opt,
    "eval": _cmd_eval,
    "experiment": _cmd_experiment,
    "verify-pm": _cmd_verify_pm,
    "cross-check": _cmd_cross_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SchedulingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
