#!/usr/bin/env python3
"""Compare two sets of benchmark runs: a parent (A) and a change (B).

    python3 benchmarks/e2e/compare.py DIR_A DIR_B

Each directory holds result JSONs written by ``run.py --out`` (searched
recursively; traced runs are ignored).  Run both sides with the same
seconds, alternating which side runs first, at least five runs each.  For
every workload and end-to-end metric the table gives each side's median
and quartiles, the change of the median (positive = worse), the metric's
bound from ``BENCHMARK.json``, the fraction of pairs B wins (A's i-th
run against B's i-th run, by start time; ties count for neither) and a
verdict:

* ``better``     — B wins at least 9 of 10 pairs and the medians differ
  by more than A's own quartile spread;
* ``unresolved`` — A's quartile spread is wider than the bound, so the
  runs cannot tell (unless every B run beats every A run: ``better``);
* ``worse``      — B's median is worse than A's by more than the bound;
* ``within``     — none of the above.

Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys
from typing import Dict, List

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def load_runs(directory: str) -> Dict[str, List[dict]]:
    """Untraced results per workload, in the order they were started."""
    runs: Dict[str, List[dict]] = {}
    pattern = os.path.join(directory, "**", "*.json")
    for path in glob.glob(pattern, recursive=True):
        with open(path, "r", encoding="utf-8") as handle:
            result = json.load(handle)
        if "workload" not in result or result.get("trace"):
            continue
        runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda result: result["started_at"])
    return runs


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(a: List[float], b: List[float], better: str, bound: float) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    a_low, a_median, a_high = quartiles(a)
    b_low, b_median, b_high = quartiles(b)
    change = sign * (b_median - a_median) / a_median if a_median else 0.0
    spread = (a_high - a_low) / a_median if a_median else 0.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    clearly = win_fraction >= 0.9 and abs(b_median - a_median) > (a_high - a_low)
    dominates = all(sign * (y - x) < 0 for x in a for y in b)
    if dominates and clearly:
        outcome = "better"
    elif spread > bound:
        outcome = "unresolved"
    elif change > bound:
        outcome = "worse"
    elif clearly and change < 0:
        outcome = "better"
    else:
        outcome = "within"
    return {
        "a": (a_low, a_median, a_high),
        "b": (b_low, b_median, b_high),
        "change": change,
        "spread": spread,
        "win_fraction": win_fraction,
        "pairs": len(pairs),
        "verdict": outcome,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", help="runs of the parent")
    parser.add_argument("dir_b", help="runs of the change")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    runs_a, runs_b = load_runs(args.dir_a), load_runs(args.dir_b)
    worse = False
    for workload in [entry["name"] for entry in benchmark["workloads"]]:
        a_runs, b_runs = runs_a.get(workload, []), runs_b.get(workload, [])
        if not a_runs or not b_runs:
            print(f"{workload}: no runs in {'A' if not a_runs else 'B'}; skipped")
            continue
        print(f"{workload}: {len(a_runs)} runs in A, {len(b_runs)} in B")
        print(f"  {'metric':16s} {'A median [q1, q3]':>30s} {'B median [q1, q3]':>30s}"
              f" {'change':>8s} {'bound':>6s} {'A iqr':>6s} {'wins':>6s}  verdict")
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            result = verdict(a, b, metric["better"], metric["bound"])
            worse = worse or result["verdict"] == "worse"
            cells = [
                "{:.4g} [{:.4g}, {:.4g}]".format(result[side][1], result[side][0],
                                                result[side][2])
                for side in ("a", "b")
            ]
            print(f"  {name:16s} {cells[0]:>30s} {cells[1]:>30s}"
                  f" {100 * result['change']:+7.1f}% {100 * metric['bound']:5.0f}%"
                  f" {100 * result['spread']:5.1f}%"
                  f" {result['win_fraction']:6.2f}  {result['verdict']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
