#!/usr/bin/env python3
"""Sweep the three adversarial families and print observed vs predicted ratios.

For each size in the requested range this prints one line per family:

* nonidling-adv: non-idling makespan over the true optimum, which at the
  default scale B = (1+beta)**(k+1) is exactly (1+beta)**k / 2;
* noninterfering-adv: non-interfering makespan over the earliest-release
  benchmark schedule, expected to exceed (1+beta)**(n-1) / 4 and grow;
* ectf-adv: the estimate-first makespan over the longs-first reference
  schedule, predicted 1 + 1/(1+beta)**k, plus the ratio over the true
  optimum where the oracle cap allows (the true optimum interleaves and
  is strictly better than the reference once k >= 2).

Exit code 2 if any observed value falls below its predicted bound.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from detsched import (
    Family,
    FamilySpec,
    SchedulerChoice,
    canonical_starts,
    dp_min_makespan,
    earliest_release_order,
    evaluate,
    generate,
    run,
)
from detsched.serialization import decimal_string, format_rational, parse_rational


def fmt(value: Fraction) -> str:
    return f"{format_rational(value)} ({decimal_string(value, 6)})"


def sweep_nonidling(k_max: int, beta: Fraction, oracle_cap: int) -> list[str]:
    failures = []
    print("nonidling-adv: non-idling vs optimum, predicted (1+beta)^k / 2")
    for k in range(1, k_max + 1):
        inst = generate(FamilySpec(family=Family.NONIDLING_ADV, n=k, beta=beta))
        value = run(inst, SchedulerChoice.NON_IDLING).makespan
        predicted = (1 + beta) ** k / 2
        if inst.n <= oracle_cap:
            opt = dp_min_makespan(inst)
            ratio = value / opt
            note = "" if ratio == predicted else "  <- MISMATCH"
            if ratio != predicted:
                failures.append(f"nonidling-adv k={k}: {ratio} != {predicted}")
            print(f"  k={k}: ratio {fmt(ratio)}  predicted {fmt(predicted)}{note}")
        else:
            print(f"  k={k}: n={inst.n} beyond oracle cap; predicted {fmt(predicted)}")
    return failures


def sweep_noninterfering(n_max: int, beta: Fraction) -> list[str]:
    failures = []
    print("noninterfering-adv: non-interfering vs earliest-release benchmark,")
    print("  must exceed (1+beta)^(n-1) / 4 and increase with n")
    previous = None
    for n in range(2, n_max + 1):
        inst = generate(FamilySpec(family=Family.NONINTERFERING_ADV, n=n, beta=beta))
        value = run(inst, SchedulerChoice.NON_INTERFERING).makespan
        benchmark = evaluate(inst, earliest_release_order(inst)).makespan
        ratio = value / benchmark
        floor = (1 + beta) ** (n - 1) / 4
        ok = ratio > floor and (previous is None or ratio > previous)
        if not ok:
            failures.append(f"noninterfering-adv n={n}: ratio {ratio} vs floor {floor}")
        print(f"  n={n}: ratio {fmt(ratio)}  floor {fmt(floor)}{'' if ok else '  <- BELOW'}")
        previous = ratio
    return failures


def sweep_ectf(k_max: int, beta: Fraction, oracle_cap: int) -> list[str]:
    failures = []
    print("ectf-adv: estimate-first vs longs-first reference, predicted 1 + 1/(1+beta)^k;")
    print("  the true optimum interleaves, so the optimum ratio is at least that")
    for k in range(1, k_max + 1):
        inst = generate(FamilySpec(family=Family.ECTF_ADV, n=k, beta=beta))
        value = run(inst, SchedulerChoice.ECTF).makespan
        longs_first = tuple(range(1, 2 * k + 1))
        reference = evaluate(inst, canonical_starts(inst, longs_first)).makespan
        predicted = 1 + 1 / (1 + beta) ** k
        ref_ratio = value / reference
        line = f"  k={k}: vs reference {fmt(ref_ratio)}  predicted {fmt(predicted)}"
        if ref_ratio != predicted:
            failures.append(f"ectf-adv k={k}: {ref_ratio} != {predicted}")
            line += "  <- MISMATCH"
        if inst.n <= oracle_cap:
            opt_ratio = value / dp_min_makespan(inst)
            line += f"  vs optimum {fmt(opt_ratio)}"
            if opt_ratio < predicted:
                failures.append(f"ectf-adv k={k}: optimum ratio {opt_ratio} < {predicted}")
        print(line)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=5, help="largest k / n to sweep")
    parser.add_argument("--beta", default="1", help="deterioration rate, rational")
    parser.add_argument("--max-bruteforce-n", type=int, default=10)
    args = parser.parse_args(argv)
    beta = parse_rational(args.beta, "beta")

    failures: list[str] = []
    failures += sweep_nonidling(args.max_size, beta, args.max_bruteforce_n)
    print()
    failures += sweep_noninterfering(max(args.max_size, 2), beta)
    print()
    failures += sweep_ectf(args.max_size, beta, args.max_bruteforce_n)

    if failures:
        print("\nPREDICTION FAILURES:")
        for line in failures:
            print(f"  {line}")
        return 2
    print("\nall observed ratios match their predictions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
