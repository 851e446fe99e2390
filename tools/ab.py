#!/usr/bin/env python3
"""Parent-vs-change A/B runner for the benchmark in BENCHMARK.json.

Builds simbench twice, once from a git revision (the parent) and once
from the working tree (the change), each into its own target directory,
then runs the benchmark command in ten alternating pairs: pair k runs the
parent first when k is even and the change first when k is odd. Every
run uses the same workload, seed and `run_seconds`. A run that is not
`correct` or has failed jobs stops the comparison.

For each workload and end-to-end metric it prints both sides' median
and quartiles and the change's wins (ties count for neither), then two
verdicts:

- gain: the change wins at least 9 in 10 pairs, and the medians differ,
  in the metric's better direction, by more than the parent's
  interquartile distance;
- regression: the change's median is worse than the parent's by more
  than the metric's `bound` (a fraction of the parent's median).

Workloads, metrics, directions, bounds and the command all come from
BENCHMARK.json. Run from the repository root:

    python3 tools/ab.py --base HEAD --seed 1
    python3 tools/ab.py --base HEAD~1 --workloads world_cochannel --seed 29

The parent's source is exported with `git archive` into the work
directory (default: a fresh temporary one), so the repository's git
state is left alone. Both builds run `--offline`, each from inside its
own source tree, so each side is built with its own `.cargo/config.toml`
release profile (Cargo's default profile where a side has none). Cargo
also reads every `.cargo/config.toml` above its working directory, so a
`--work` inside the repository is refused: the parent would inherit the
working tree's profile.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10


def export_revision(rev, dest):
    """Writes the tree of `rev` into `dest`."""
    os.makedirs(dest, exist_ok=True)
    archive = subprocess.run(["git", "archive", rev], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def build(src, target):
    """Builds simbench from `src` into `target`, returning the env to run it.

    Runs inside `src`, as `run_once` does, so Cargo applies that tree's
    `.cargo/config.toml`.
    """
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    subprocess.run(["cargo", "build", "--release", "--offline", "--quiet",
                    "--manifest-path", os.path.join(src, "simbench", "Cargo.toml")],
                   cwd=src, check=True, env=env)
    return env


def run_once(side, command, workload, seed, seconds):
    """One benchmark run; returns its end-to-end metric values."""
    out = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"],
        cwd=side["src"], env=side["env"], check=True, capture_output=True,
        text=True, timeout=30 * seconds + 600,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{side['name']} {workload} seed {seed}: incorrect run "
                 f"(correct={result['correct']}, failed={result['failed']})\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdicts(metric, parent, change):
    """(wins, gain?, regression?, worse-by fraction) for one metric."""
    higher = metric["better"] == "higher"
    better = (lambda c, p: c > p) if higher else (lambda c, p: c < p)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    gap = (cm - pm) if higher else (pm - cm)
    gain = 10 * wins >= 9 * len(parent) and gap > p3 - p1
    worse = -gap / pm if pm else 0.0
    return wins, gain, worse > metric["bound"], worse


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True,
                   help="git revision of the parent side, e.g. HEAD")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--workloads", help="comma-separated; default all")
    p.add_argument("--work", help="directory for the parent's source and "
                   "both target dirs; default a fresh temporary directory")
    args = p.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    known = {w["name"] for w in bench["workloads"]}
    for w in workloads:
        if w not in known:
            sys.exit(f"unknown workload `{w}`; BENCHMARK.json has {sorted(known)}")
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]

    work = args.work or tempfile.mkdtemp(prefix="ab-")
    repo = os.path.realpath(os.getcwd())
    if os.path.commonpath([os.path.realpath(work), repo]) == repo:
        sys.exit("--work must lie outside the repository: Cargo reads every "
                 ".cargo/config.toml above its working directory, so the "
                 "parent would be built with this tree's release profile")
    parent_src = os.path.join(work, "parent")
    print(f"# parent {args.base} -> {parent_src}; change: working tree; "
          f"builds under {work}", flush=True)
    export_revision(args.base, parent_src)
    sides = {
        "parent": {"name": "parent", "src": parent_src,
                   "env": build(parent_src, os.path.join(work, "target-parent"))},
        "change": {"name": "change", "src": os.getcwd(),
                   "env": build(os.getcwd(), os.path.join(work, "target-change"))},
    }

    runs = {}
    for workload in workloads:
        got = {"parent": [], "change": []}
        for k in range(PAIRS):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for name in order:
                got[name].append(run_once(sides[name], bench["command"],
                                          workload, args.seed, seconds))
            print(f"# {workload} pair {k + 1}/{PAIRS} ({order[0]} first): " +
                  " ".join(f"{m['name']}={got['parent'][-1][m['name']]:.4g}"
                           f"->{got['change'][-1][m['name']]:.4g}"
                           for m in metrics), flush=True)
        runs[workload] = got

    print(f"\nseed {args.seed}, {PAIRS} pairs, {seconds} s per run")
    print(f"{'workload':<16} {'metric':<13} {'parent q1/median/q3':>28} "
          f"{'change q1/median/q3':>28} {'wins':>6} {'worse':>7} "
          f"{'bound':>5}  verdict")
    for workload, got in runs.items():
        for m in metrics:
            parent = [r[m["name"]] for r in got["parent"]]
            change = [r[m["name"]] for r in got["change"]]
            wins, gain, regression, worse = verdicts(m, parent, change)
            fmt = "/".join
            side = lambda v: fmt(f"{x:.4g}" for x in quartiles(v))
            verdict = ("REGRESSION" if regression else
                       "gain" if gain else "no gain shown")
            print(f"{workload:<16} {m['name']:<13} {side(parent):>28} "
                  f"{side(change):>28} {wins:>3}/{len(parent):<2} "
                  f"{worse:>+7.3f} {m['bound']:>5.2f}  {verdict}")


if __name__ == "__main__":
    main()
