#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 fsibench/spread.py [--runs 10] [--workload NAME ...] [--trace 0]

Runs run.py once per seed (1..runs) for each workload, each in a fresh
process, and prints per metric the median, the quartile spread
(Q3 - Q1) / median from statistics.quantiles(values, n=4), and the
metric's bound. A spread under a third of its bound is steady; setup_s is
reported but exempt. Exit status 1 when any run fails or a spread (other
than setup_s) exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    args = parser.parse_args()

    metrics = bench["per_layer" if args.trace else "end_to_end"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    ok = True
    for workload in workloads:
        values = {m["name"]: [] for m in metrics}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "fsibench" / "run.py"),
                 "--workload", workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 else None
            if not result or not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {proc.returncode})")
                ok = False
                continue
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload} ({args.runs} runs)")
        for m in metrics:
            v = values[m["name"]]
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            verdict = ""
            if bound is not None:
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                if spread > bound and m["name"] != "setup_s":
                    ok = False
            print(f"  {m['name']:26s} median {med:12.5g} {m['unit']:8s} "
                  f"spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}  {verdict}" if bound else ""))
            print("    runs: " + " ".join(f"{x:.5g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
