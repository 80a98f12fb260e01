#!/usr/bin/env python3
"""Self-test of the listen benchmark at the small input scale.

    python3 listenbench/test_run.py

Runs every workload of BENCHMARK.json with --trace 0 and --trace 1 on a
3000-node network, checks that each result line carries exactly the
metric names and units BENCHMARK.json declares and no failed operation,
that each traced run's spans cover at least run.MIN_COVERAGE of its
replay with the workload's stressed layers holding the largest share,
and that an altered reference line is counted as a failure. Exits
non-zero on the first violation.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "listenbench"))
import run as bench  # noqa: E402  (the driver's own design checks)


def run(workload, trace, *extra):
    cmd = [sys.executable, str(ROOT / "listenbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--scale", "small", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit {proc.returncode}\n"
                 f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(condition, message):
    if not condition:
        sys.exit(f"FAIL {message}")


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            result = run(workload, trace)
            label = f"{workload} trace={trace}"
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{label}: result keys")
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] >= 1, f"{label}: failed operations")
            want = {m["name"]: m["unit"] for m in declared}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{label}: metrics {sorted(set(got) ^ set(want))}"
                               " differ from BENCHMARK.json")
            for name, metric in result["metrics"].items():
                check(isinstance(metric["value"], (int, float)),
                      f"{label}: {name} is not a number")
            if trace == 0:
                for name, metric in result["metrics"].items():
                    check(metric["value"] > 0, f"{label}: {name} is 0")
            else:
                warnings = bench.trace_warnings(workload, {
                    name: (m["value"], m["unit"])
                    for name, m in result["metrics"].items()})
                check(not warnings, f"{label}: {'; '.join(warnings)}")
            print(f"ok {label}: {len(got)} metrics, "
                  f"{result['attempted']} attempted")

    corrupted = run("present", 0, "--corrupt-reference")
    check(not corrupted["correct"] and corrupted["failed"] >= 1,
          "an altered reference line was not counted as a failure")
    print(f"ok corrupted reference: {corrupted['failed']} failed of "
          f"{corrupted['attempted']}")


if __name__ == "__main__":
    main()
