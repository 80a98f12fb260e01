#!/usr/bin/env python3
"""Bench-regression gate for CI, stdlib only.

Compares one or more `--json` result files emitted by the bench binaries
against the checked-in baseline (tools/bench_baseline.json). Every metric
named in the baseline is a GATED higher-is-better ratio (speedups, never
absolute seconds — ratios are stable across runner core counts, which is
why absolute throughput and latency numbers stay informational): the
gate FAILS (exit 1) when a current value drops below (1 - tolerance) x
baseline, i.e. regresses by more than 20% by default.
Metrics present in a result file but absent from the baseline are reported
as informational and never fail the gate; a baseline metric missing from
every result file fails it (the bench stopped reporting the number the
gate exists to watch).

A baseline entry may instead be {"floor": X}: a hard lower bound with no
tolerance (the SIMD-vs-scalar kernel speedups use floor 1.0 — vectorized
must never lose to scalar, on any core count). Floor metrics missing from
every result file are SKIPPED, not failed: the bench omits them when the
host lacks the ISA level.

Usage: tools/check_bench.py [--baseline FILE] [--tolerance 0.2] RESULTS...
"""

import argparse
import json
import os
import sys


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load(path, allow_floors=False):
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a flat JSON object")
    for name, value in data.items():
        if is_number(value):
            continue
        if (allow_floors and isinstance(value, dict)
                and set(value) == {"floor"} and is_number(value["floor"])):
            continue
        raise ValueError(f"{path}: metric {name!r} is not a number"
                         + (" or {'floor': X}" if allow_floors else ""))
    return data


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("results", nargs="+", metavar="RESULTS",
                        help="--json output files from the bench binaries")
    parser.add_argument("--baseline",
                        default=os.path.join(os.path.dirname(__file__),
                                             "bench_baseline.json"))
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional drop below baseline "
                             "(default: 0.2)")
    args = parser.parse_args()

    baseline = load(args.baseline, allow_floors=True)

    # Collect EVERY problem before deciding the exit code: a red CI run
    # should name all regressed metrics and all broken result files at
    # once, not reveal them one re-run at a time.
    failures = 0
    skipped = 0
    current = {}
    for path in args.results:
        try:
            loaded = load(path)
        except (OSError, ValueError) as error:
            print(f"FAIL  cannot load results file: {error}")
            failures += 1
            continue
        for name, value in loaded.items():
            if name in current:
                print(f"FAIL  metric {name!r} appears in more than one "
                      f"results file")
                failures += 1
                continue
            current[name] = value

    for name in sorted(baseline):
        spec = baseline[name]
        if isinstance(spec, dict):
            floor = spec["floor"]
            if name not in current:
                # Loud on purpose: a floor-gated metric that vanished from
                # the JSON must be visible in the log, not quietly green —
                # only the final summary line says whether that is expected
                # (host lacks the ISA level) or a bench stopped reporting.
                print(f"SKIPPED (metric missing)  {name}: floor-gated in "
                      f"the baseline but absent from every results file")
                skipped += 1
            elif current[name] < floor:
                print(f"FAIL  {name}: {current[name]:.3f} < hard floor "
                      f"{floor:.3f}")
                failures += 1
            else:
                margin = current[name] / floor if floor else float("inf")
                print(f"ok    {name}: {current[name]:.3f} "
                      f"(hard floor {floor:.3f}, {margin:.2f}x of floor)")
            continue
        floor = spec * (1.0 - args.tolerance)
        if name not in current:
            print(f"FAIL  {name}: in baseline but missing from results")
            failures += 1
        elif current[name] < floor:
            print(f"FAIL  {name}: {current[name]:.3f} < floor "
                  f"{floor:.3f} (baseline {spec:.3f}, "
                  f"tolerance {args.tolerance:.0%})")
            failures += 1
        else:
            ratio = current[name] / spec if spec else float("inf")
            print(f"ok    {name}: {current[name]:.3f} "
                  f"(baseline {spec:.3f}, floor {floor:.3f}, "
                  f"{ratio:.2f}x of baseline)")
    for name in sorted(set(current) - set(baseline)):
        print(f"info  {name}: {current[name]:.3f} (not gated)")

    if failures:
        print(f"{failures} bench check(s) failed (tolerance "
              f"{args.tolerance:.0%})", file=sys.stderr)
        return 1
    if skipped:
        print(f"all gated bench metrics within tolerance "
              f"({skipped} floor metric(s) SKIPPED: missing from results)")
    else:
        print("all gated bench metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
