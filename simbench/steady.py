#!/usr/bin/env python3
"""Measures how steady the benchmark's end-to-end metrics are.

Runs the command in BENCHMARK.json once per seed on each workload, in
`--sets` separate sets of `--runs` seeds each, and prints for every
metric its median, its spread (interquartile distance over median) and,
from the second set on, how far the set's median moved from the first
set's. Run from the repository root:

    python3 simbench/steady.py --runs 10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10, help="seeds per set")
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--first-seed", type=int, default=100)
    p.add_argument("--workloads", help="comma-separated; default all")
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    print(f"{'workload':<16} {'metric':<14} {'set':>3} {'median':>12} "
          f"{'spread':>8} {'moved':>8} {'bound':>6}")
    for workload in workloads:
        medians = {}
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs,
                          args.first_seed + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                runs.append(run_once(bench["command"], workload, seed,
                                     bench["run_seconds"]))
                print(f"# {workload} seed {seed}: " + " ".join(
                    f"{k}={v:.4g}" for k, v in runs[-1].items()), flush=True)
            for name, bound in bounds.items():
                median, iqr = spread([r[name] for r in runs])
                first = medians.setdefault(name, median)
                moved = abs(median - first) / first
                print(f"{workload:<16} {name:<14} {s:>3} {median:>12.4f} "
                      f"{iqr:>8.4f} {moved:>8.4f} {bound:>6.2f}", flush=True)


if __name__ == "__main__":
    main()
