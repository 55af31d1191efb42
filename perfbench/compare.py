#!/usr/bin/env python3
"""Compare the benchmark on two checkouts (parent vs change).

    python3 perfbench/compare.py --parent DIR --change DIR [--pairs 10]
        [--workloads serve_warm,serve_cold,solve_batch] [--seed 1]
        [--trace 0] [--save pairs.json]
    python3 perfbench/compare.py --files PARENT.json CHANGE.json

The first form runs each checkout's perfbench/run.py on the same seeds,
alternating which side runs first in each pair, each run lasting
BENCHMARK.json's run_seconds. The second compares two result sets saved by
repeat.py --save (runs are paired by seed).

Per workload and metric it prints each side's median and quartiles, the
change's wins out of the pairs (ties count for neither), the median delta
against the metric's bound in BENCHMARK.json, and a verdict:
  REGRESSION  the change's median is worse than the parent's by more than the bound
  gain        the change won >= 9/10 of the pairs and the medians differ by
              more than the parent's own spread (Q3 - Q1) / median
  unresolved  the parent's spread exceeds the bound, so "no change" cannot be
              told apart from a regression (unless every change run beat
              every parent run)
  same        none of the above
"""

import argparse
import json
import os
import statistics
import sys

from repeat import ROOT, load_spec, run_once


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Returns (wins, pairs, worse_delta, spread, verdict) for paired runs."""
    sign = 1.0 if better == "lower" else -1.0  # >0 means "change is worse"
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pairs = min(len(parent), len(change))
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    worse = sign * (cmed - pmed) / pmed if pmed else 0.0
    spread = (pq3 - pq1) / pmed if pmed else float("inf")
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if bound is not None and spread > bound and not all_better:
        v = "unresolved"
    elif bound is not None and worse > bound:
        v = "REGRESSION"
    elif wins >= 0.9 * pairs and -worse > spread:
        v = "gain"
    else:
        v = "same"
    return wins, pairs, worse, spread, v


def report(workload, parent_runs, change_runs, spec, trace):
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    by_seed = {r["seed"]: r["result"] for r in change_runs}
    paired = [(r["result"], by_seed[r["seed"]]) for r in parent_runs
              if r["seed"] in by_seed]
    if not paired:
        print(f"{workload}: no paired seeds")
        return False
    print(f"\n{workload}: {len(paired)} pairs")
    print(f"{'metric':34} {'parent med [q1, q3]':>34} {'change med [q1, q3]':>34}"
          f" {'wins':>6} {'delta':>8} {'bound':>6}  verdict")
    regressed = False
    for m in metrics:
        name = m["name"]
        try:
            pv = [p["metrics"][name]["value"] for p, _ in paired]
            cv = [c["metrics"][name]["value"] for _, c in paired]
        except KeyError:
            print(f"{name:34} missing from a result")
            continue
        wins, pairs, worse, spread, v = verdict(pv, cv, m["better"], m.get("bound"))
        regressed |= v == "REGRESSION"
        pq1, pmed, pq3 = quartiles(pv)
        cq1, cmed, cq3 = quartiles(cv)
        bound = m.get("bound")
        print(f"{name:34} {pmed:12.5g} [{pq1:9.4g}, {pq3:9.4g}]"
              f" {cmed:12.5g} [{cq1:9.4g}, {cq3:9.4g}] {wins:3d}/{pairs:<2d}"
              f" {100 * worse:+7.1f}% {'' if bound is None else f'{bound:.2f}':>6}  {v}")
    failed = [r for pair in paired for r in pair if not r["correct"]]
    if failed:
        print(f"  {len(failed)} runs failed their output checks")
    return regressed or bool(failed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--files", nargs=2, metavar=("PARENT", "CHANGE"))
    parser.add_argument("--workloads")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save")
    args = parser.parse_args()

    if args.files:
        sides = []
        for path in args.files:
            with open(path) as f:
                sides.append(json.load(f))
        if sides[0]["workload"] != sides[1]["workload"]:
            sys.exit("the two files hold different workloads")
        spec = load_spec()
        bad = report(sides[0]["workload"], sides[0]["runs"], sides[1]["runs"],
                     spec, sides[0].get("trace", 0))
        return 1 if bad else 0

    if not (args.parent and args.change):
        parser.error("give --parent and --change, or --files")
    parent, change = os.path.abspath(args.parent), os.path.abspath(args.change)
    spec = load_spec(change if os.path.exists(os.path.join(change, "BENCHMARK.json"))
                     else ROOT)
    seconds = spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    results = {"parent": {}, "change": {}}
    bad = False
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.seed + k
            order = [("parent", parent), ("change", change)]
            if k % 2:
                order.reverse()
            for side, root in order:
                result = run_once(root, workload, seed, seconds, args.trace)
                runs[side].append({"seed": seed, "result": result})
            print(f"{workload}: pair {k + 1}/{args.pairs} done", file=sys.stderr)
        results["parent"][workload] = runs["parent"]
        results["change"][workload] = runs["change"]
        bad |= report(workload, runs["parent"], runs["change"], spec, args.trace)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
