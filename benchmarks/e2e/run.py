#!/usr/bin/env python3
"""End-to-end benchmark of the uncertain time-series similarity stack.

All four workloads, untraced, one result JSON per workload in DIR::

    python3 benchmarks/e2e/run.py --seed 2012 --out DIR

One workload (the form a benchmark driver uses); the last stdout line is
``{"correct", "attempted", "failed", "metrics"}``::

    python3 benchmarks/e2e/run.py --workload serve-daemon --seed 7 \\
        --seconds 15 --trace 0

``--trace 1`` reports the per-layer metrics instead of the end-to-end
ones; ``--quick`` shrinks every input for a smoke run.  Sources are taken
from ``src/`` of the checkout this file lives in; the command fails
(exit 2, no result line) when they are missing.  Workloads, sizes and the
metric catalog are in ``spec.json``; metric names, units and bounds in
``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import deploy  # noqa: E402

QUICK_SECONDS = 1.5


def load_benchmark() -> dict:
    with open(os.path.join(deploy.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def build_parser(workloads) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads, default=None,
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=2012,
                        help="workload seed; inputs and op streams derive from it")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: "
                        "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", default=None,
                        help="directory for one result JSON per workload")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs and one set-up (smoke test)")
    parser.add_argument("--write-reference", action="store_true",
                        help="record the paper-figures tables of --seed as the "
                        "committed reference, then exit")
    return parser


def run_one(args, seconds: float, benchmark: dict) -> int:
    import workloads

    workdir = deploy.make_workdir(args.workload)
    started_at = time.time()
    try:
        result = workloads.RUNNERS[args.workload](
            args.seed, seconds, bool(args.trace), args.quick, workdir
        )
    finally:
        deploy.remove_workdir(workdir)
    correct = result["failed"] == 0 and not result.get("span_problem_count")
    catalog = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    values = result["layers"] if args.trace else result["metrics"]
    metrics = {
        entry["name"]: {"value": float(values[entry["name"]]), "unit": entry["unit"]}
        for entry in catalog
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        suffix = "-trace" if args.trace else ""
        path = os.path.join(args.out, f"{args.workload}{suffix}.json")
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": seconds,
            "trace": args.trace,
            "quick": args.quick,
            "started_at": started_at,
            "correct": correct,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
            "end_to_end": result["metrics"],
            "layers": result.get("layers"),
            "span_problem_count": result.get("span_problem_count", 0),
            "span_problems": result.get("span_problems", []),
            "diagnostics": result["diagnostics"],
            "environment": workloads.environment(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
    print(f"{args.workload} (seed {args.seed}, {seconds:g} s, "
          f"trace {args.trace}): {result['attempted']} ops attempted, "
          f"{result['failed']} failed, checks {result['diagnostics']['checks']}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)
    return 0 if correct else 1


def run_all(args, seconds: float, benchmark: dict) -> int:
    """Each workload in its own process, then one table of every metric."""
    names = [entry["name"] for entry in benchmark["workloads"]]
    results, status = {}, 0
    for name in names:
        command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
        if args.out:
            command += ["--out", args.out]
        if args.quick:
            command.append("--quick")
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                                   cwd=deploy.ROOT)
        sys.stdout.write(completed.stdout)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            status = 1
        if lines and lines[-1].startswith("{"):
            results[name] = json.loads(lines[-1])
    catalog = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    print("\nmetric".ljust(34) + "".join(n.rjust(16) for n in names) + "  unit")
    for entry in catalog:
        cells = "".join(
            f"{results[n]['metrics'][entry['name']]['value']:16.5g}"
            if n in results else " " * 12 + "FAIL" for n in names
        )
        print(f"{entry['name']:33s}{cells}  {entry['unit']}")
    print("correct: " + ", ".join(
        f"{n}={results[n]['correct'] if n in results else False}" for n in names))
    return status


def main(argv=None) -> int:
    benchmark = load_benchmark()
    names = [entry["name"] for entry in benchmark["workloads"]]
    args = build_parser(names).parse_args(argv)
    if not deploy.source_present():
        print(f"error: no repro sources at {deploy.SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    deploy.pin_environment()
    sys.path.insert(0, deploy.SRC)
    # Unwind on SIGTERM too, so daemons and child processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.write_reference:
        import workloads

        print(f"wrote {workloads.write_reference(args.seed)}")
        return 0
    seconds = args.seconds
    if seconds is None:
        seconds = QUICK_SECONDS if args.quick else float(benchmark["run_seconds"])
    if args.workload is None:
        return run_all(args, seconds, benchmark)
    return run_one(args, seconds, benchmark)


if __name__ == "__main__":
    raise SystemExit(main())
