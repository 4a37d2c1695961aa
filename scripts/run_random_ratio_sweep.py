#!/usr/bin/env python3
"""Random-instance ratio sweep: worst observed ratio per guarantee regime.

Each algorithm is run in the parameter regime its guarantee addresses:

* non-idling on beta <= 1/n, bound 1 + e;
* non-interfering on beta >= n + 1, bound 3 + e;
* estimate-first at the sampled beta, bound 3 + 1/beta;
* best-of-two on two-release instances, bound 2.

Every instance stays within the subset DP's cap (``DP_MAX_N``) so each
trial compares against the exact optimum.  Prints the worst ratio and
margin per regime; exit code 2 if any trial exceeds its bound.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from detsched import (
    Family,
    FamilySpec,
    SchedulerChoice,
    dp_min_makespan,
    generate,
    run,
    value_ratio,
)
from detsched.oracle import DP_MAX_N
from detsched.serialization import decimal_string, parse_rational

# rational over-approximation of e, good to 10 decimal digits
E_UPPER = Fraction(27182818285, 10**10)


def regime_specs(args):
    betas = [parse_rational(b, "beta") for b in args.betas.split(",") if b.strip()]
    return [
        (
            "non-idling, beta <= 1/n",
            SchedulerChoice.NON_IDLING,
            Family.RANDOM,
            lambda n, base: Fraction(1, n) if base >= 1 else Fraction(1, 2 * n),
            lambda n, beta: 1 + E_UPPER,
        ),
        (
            "non-interfering, beta >= n+1",
            SchedulerChoice.NON_INTERFERING,
            Family.RANDOM,
            lambda n, base: Fraction(n + 1) + base,
            lambda n, beta: 3 + E_UPPER,
        ),
        (
            "estimate-first, any beta",
            SchedulerChoice.ECTF,
            Family.RANDOM,
            lambda n, base: base,
            lambda n, beta: 3 + 1 / beta,
        ),
        (
            "best-of-two, two release times",
            SchedulerChoice.BEST_OF_TWO,
            Family.TWO_RELEASE,
            lambda n, base: base,
            lambda n, beta: Fraction(2),
        ),
    ], betas


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=200, help="trials per regime")
    parser.add_argument("--n-min", type=int, default=2)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--betas", default="1/2,1,2", help="base rates, comma-separated rationals")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.n_max > DP_MAX_N:
        parser.error(f"--n-max beyond {DP_MAX_N} would leave trials without an exact optimum")

    regimes, betas = regime_specs(args)
    span = args.n_max - args.n_min + 1
    any_violation = False

    for label, algorithm, family, pick_beta, bound_for in regimes:
        worst = Fraction(0)
        worst_seed = None
        violations = 0
        for trial in range(args.trials):
            n = args.n_min + trial % span
            base = betas[trial % len(betas)]
            beta = pick_beta(n, base)
            spec = FamilySpec(
                family=family, n=n, beta=beta, seed=args.seed + trial
            )
            inst = generate(spec)
            ratio = value_ratio(run(inst, algorithm).makespan, dp_min_makespan(inst))
            if ratio > worst:
                worst, worst_seed = ratio, spec.seed
            if ratio > bound_for(n, beta):
                violations += 1
                any_violation = True
        print(
            f"{label}: worst ratio {decimal_string(worst, 6)}"
            f" (seed {worst_seed}), {violations} violations over {args.trials} trials"
        )

    if any_violation:
        print("\nBOUND VIOLATIONS FOUND")
        return 2
    print("\nall ratios within their guarantees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
