#!/usr/bin/env python
"""Perf-regression smoke gate: compare a fresh benchmark JSON to baseline.

CI runs each benchmark in ``--quick`` mode and then calls::

    python benchmarks/check_regression.py fresh.json baseline.json

For every ``results`` row (matched by ``technique`` + ``kind``), every
timing key ending in ``_seconds_per_query`` is compared.  The gate fails
(exit 1) when a fresh timing exceeds ``baseline * machine_scale *
factor`` (default 2x) *and* the absolute slowdown is above
``--min-seconds`` (sub-millisecond kernels are all jitter; a floor keeps
the gate stable across runners).  ``machine_scale`` is the median
fresh/baseline ratio over every common timing — baselines are recorded
on one machine and CI runners are another, so a *uniform* slowdown is
read as hardware speed, while a *single* kernel regressing against the
rest still trips the gate.  The scale never drops below 1, so a faster
runner is not held to a tighter bar; pass ``--no-normalize`` for raw
absolute comparison.  Any correctness flag carried by the fresh payload
(:data:`CORRECTNESS_FLAGS`) failing is always fatal.

The baselines live in ``benchmarks/baselines/`` and were generated with
the same deterministic seeds the benchmarks hard-code, so a rerun on
comparable hardware reproduces them.  A missing fresh or baseline file
is a hard error (exit 2) — a benchmark must never silently drop out of
the gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Tuple

#: Timing keys are auto-discovered: any per-query seconds measurement.
TIMING_SUFFIX = "_seconds_per_query"


def _rows_by_key(payload: Dict) -> Dict[Tuple[str, str], Dict]:
    return {
        (row.get("technique"), row.get("kind")): row
        for row in payload.get("results", [])
    }


#: ``(payload key, ok field)`` for every correctness flag a benchmark
#: may record; a present flag that is false always fails the gate.
CORRECTNESS_FLAGS = (
    ("parity", "all_ok"),
    ("index", "all_ok"),
    ("service", "all_ok"),
)


def _correctness_failures(payload: Dict) -> List[str]:
    """Any parity/correctness flags the benchmark recorded as failing."""
    failures = []
    for key, field in CORRECTNESS_FLAGS:
        section = payload.get(key)
        if section is not None and not section.get(field, True):
            failures.append(f"{key}.{field} is false")
    return failures


def _timing_pairs(fresh: Dict, baseline: Dict):
    """``(key, name, fresh_value, base_value)`` for every common timing."""
    baseline_rows = _rows_by_key(baseline)
    for key, row in _rows_by_key(fresh).items():
        reference = baseline_rows.get(key)
        if reference is None:
            continue  # new technique/row: nothing to regress against
        for name, value in row.items():
            if not name.endswith(TIMING_SUFFIX):
                continue
            base = reference.get(name)
            if not isinstance(base, (int, float)) or not isinstance(
                value, (int, float)
            ):
                continue
            yield key, name, float(value), float(base)


#: Ceiling on the estimated hardware gap: a runner slower than this is
#: indistinguishable from a uniform real regression, so the gate trips.
MAX_MACHINE_SCALE = 4.0


def machine_scale(fresh: Dict, baseline: Dict) -> float:
    """Median fresh/baseline timing ratio, clamped to [1, 4].

    The baseline machine and the current runner differ; the median ratio
    over all common timings estimates that hardware gap so the gate only
    trips on *relative* regressions.  Floored at 1 so a faster runner is
    never held to a tighter bar, and capped at
    :data:`MAX_MACHINE_SCALE` so a change that slows *every* kernel down
    cannot masquerade as slow hardware forever.
    """
    ratios = [
        value / base
        for _, _, value, base in _timing_pairs(fresh, baseline)
        if base > 0
    ]
    if not ratios:
        return 1.0
    ratios.sort()
    middle = len(ratios) // 2
    if len(ratios) % 2:
        median = ratios[middle]
    else:
        median = 0.5 * (ratios[middle - 1] + ratios[middle])
    return min(MAX_MACHINE_SCALE, max(1.0, median))


def compare(
    fresh: Dict,
    baseline: Dict,
    factor: float,
    min_seconds: float,
    normalize: bool = True,
) -> List[str]:
    """Regression messages (empty when the gate passes)."""
    problems = _correctness_failures(fresh)
    scale = machine_scale(fresh, baseline) if normalize else 1.0
    for key, name, value, base in _timing_pairs(fresh, baseline):
        bar = base * scale * factor
        if value > bar and value - base * scale > min_seconds:
            problems.append(
                f"{key[0]} ({key[1]}) {name}: "
                f"{value * 1e3:.3f} ms vs baseline "
                f"{base * 1e3:.3f} ms "
                f"(> {factor:g}x at machine scale {scale:.2f})"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="benchmark JSON produced by this run")
    parser.add_argument("baseline", help="checked-in baseline JSON")
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when fresh > baseline * factor (default 2.0)",
    )
    parser.add_argument(
        "--min-seconds",
        type=float,
        default=2e-3,
        help="ignore regressions smaller than this many seconds per query "
        "(jitter floor, default 0.002)",
    )
    parser.add_argument(
        "--no-normalize",
        action="store_true",
        help="compare absolute timings without the machine-scale estimate",
    )
    args = parser.parse_args(argv)

    # A missing file must fail loudly: silently skipping a benchmark
    # because its baseline was never committed (or a fresh run never
    # produced output) would let regressions ride green CI.
    for role, path in (("fresh", args.fresh), ("baseline", args.baseline)):
        if not os.path.isfile(path):
            print(
                f"PERF GATE ERROR: {role} benchmark file not found: {path}\n"
                f"  (for baselines: run the benchmark with --quick and "
                f"commit the JSON under benchmarks/baselines/)",
                file=sys.stderr,
            )
            return 2

    with open(args.fresh, "r", encoding="utf-8") as handle:
        fresh = json.load(handle)
    with open(args.baseline, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)

    problems = compare(
        fresh,
        baseline,
        args.factor,
        args.min_seconds,
        normalize=not args.no_normalize,
    )
    if problems:
        print(f"PERF GATE FAILED ({args.fresh} vs {args.baseline}):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(
        f"perf gate ok: {args.fresh} within {args.factor:g}x of "
        f"{args.baseline}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
