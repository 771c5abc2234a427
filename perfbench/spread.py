"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py --workload NAME [--runs 10] [--first-seed 1]
        [--seconds 20] [--out FILE]

Runs ``perfbench/run.py`` once per seed, one after another, and prints for
each end-to-end metric its median, quartiles and the distance between the
quartiles as a share of the median (``statistics.quantiles(values, n=4)``).
With ``--out`` it also writes every run's details and result as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summarize(results):
    """name -> {median, q1, q3, iqr_frac, unit} over a list of results."""
    summary = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": median, "q1": q1, "q3": q3,
                         "iqr_frac": (q3 - q1) / median if median else None,
                         "unit": results[0]["metrics"][name]["unit"]}
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            check=True, capture_output=True, text=True).stdout.splitlines()
        details, result = json.loads(out[-2]), json.loads(out[-1])
        runs.append({"details": details, "result": result})
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    summary = summarize([run["result"] for run in runs]) if len(runs) > 1 else {}
    if args.trace == 0:
        for name, s in summary.items():
            print(f"{name}: median {s['median']:.6g} {s['unit']}, "
                  f"quartiles {s['q1']:.6g}..{s['q3']:.6g}, "
                  f"spread {s['iqr_frac']:.2%}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary, "runs": runs},
                      handle, indent=1)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
