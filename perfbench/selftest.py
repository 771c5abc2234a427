"""Self-test of the benchmark at a tiny size with a fixed seed.

Usage, from the root of a source checkout (about six minutes, most of it
the two traced ``verify-all`` runs, whose size is fixed)::

    python3 perfbench/selftest.py

It checks that

- every metric ``BENCHMARK.json`` names is printed with its unit, on every
  workload, traced and untraced, and every run is correct;
- the counts of the traced run (every metric in unit ``count``: calls,
  terms, retries, reports, ...) repeat exactly across two runs;
- the traced ``verify-all`` spends at least 80% of its time in the double
  sums of ``closedforms``.

It exits with 1 and names each failed check, or exits with 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
SECONDS = 1
DOUBLE_SUM_SHARE = 0.8


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_printed(spec, result, where, errors):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"]:
        errors.append(f"{where}: not correct")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in spec}:
        errors.append(f"{where}: metrics {sorted(set(metrics) ^ {m['name'] for m in spec})} "
                      "printed or missing unexpectedly")
    for m in spec:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: {m['name']} printed as {got}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    errors = []
    for workload in (w["name"] for w in bench["workloads"]):
        _details, result = run(workload, 0)
        check_printed(bench["end_to_end"], result, f"{workload} trace 0", errors)
        traced = [run(workload, 1) for _ in range(2)]
        for i, (_details, result) in enumerate(traced):
            check_printed(bench["per_layer"], result, f"{workload} trace 1 #{i}",
                          errors)
        counts = [{name: m["value"] for name, m in result["metrics"].items()
                   if m["unit"] == "count"} for _details, result in traced]
        if counts[0] != counts[1]:
            differ = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            errors.append(f"{workload}: traced counts differ between runs: {differ}")
        if workload == "verify-all":
            for details, result in traced:
                share = (result["metrics"]["closedforms.double_sum.busy_s"]["value"]
                         / details["traced_wall_s"])
                print(f"verify-all: double sums take {share:.1%} of the traced run")
                if share < DOUBLE_SUM_SHARE:
                    errors.append(f"verify-all: double sums take {share:.1%} "
                                  f"< {DOUBLE_SUM_SHARE:.0%} of the traced run")
    for error in errors:
        print("FAIL", error)
    print("selftest:", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
