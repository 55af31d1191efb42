#!/usr/bin/env python3
"""Run one workload N times (seeds S, S+1, ...) and summarise each metric.

    python3 perfbench/repeat.py --workload serve_warm --runs 10 [--seed 1]
        [--trace 0] [--save results.json]

Every run lasts BENCHMARK.json's run_seconds, the length the bounds were
measured at.

Prints, per metric, the median, the quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median. With --trace 0 each end-to-end spread is
checked against its bound in BENCHMARK.json: "steady" below a third of the
bound, "WIDE" above the bound. --save writes every run's result line; two
saved sets can be compared with compare.py --files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(root, workload, seed, seconds, trace):
    """One run.py invocation in checkout `root`; returns the result dict."""
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL)
    lines = done.stdout.decode().strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"run failed: {' '.join(cmd)} (exit {done.returncode})")
    return json.loads(lines[-1])


def summarise(values):
    """(median, q1, q3, spread) as the acceptance check computes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    args = parser.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for k in range(args.runs):
        seed = args.seed + k
        result = run_once(ROOT, args.workload, seed, seconds, args.trace)
        runs.append({"seed": seed, "result": result})
        print(f"run {k + 1}/{args.runs} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    names = list(runs[0]["result"]["metrics"])
    print(f"{args.workload}: {args.runs} runs, trace={args.trace}, {seconds} s each")
    print(f"{'metric':36} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  verdict")
    for name in names:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med, q1, q3, spread = summarise(values)
        verdict = ""
        bound = bounds.get(name) if args.trace == 0 else None
        if bound is not None:
            verdict = ("steady" if spread < bound / 3
                       else "WIDE" if spread > bound else "within bound")
        print(f"{name:36} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {verdict}")
    if not all(r["result"]["correct"] for r in runs):
        print("SOME RUNS FAILED THEIR OUTPUT CHECKS", file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": seconds, "runs": runs}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
