#!/usr/bin/env python
"""Query-planner benchmark: adaptive MC stopping, τ grid, rolling DTW.

Three workloads exercise the planner's machinery:

* **MUNICH-DTW adaptive decision workload** — a kNN-calibrated
  probabilistic decision query: each query's ε is its 10th-nearest-
  neighbor distance (the paper's calibration protocol) and the match
  set is ``Pr(DTW <= ε) >= τ``.  Before: the fixed-sample plan (bound
  stage + full ``s``-draw Monte Carlo refinement, the PR 4 path).
  After: the same plan with the ``AdaptiveMCStage`` — escalating sample
  rounds, sequential stopping against τ.  Decisions are asserted
  identical cell for cell; the full run enforces the ≥2× speedup floor
  that adaptive stopping buys on the dominant draw-stack DP cost.

* **MUNICH-DTW τ-grid sweep** — the optimal-τ calibration loop: one
  adaptive pass per grid τ versus one bracketing pass that settles the
  whole grid.  Decisions are asserted identical at every grid τ; the
  full run enforces a ≥1.3× floor on per-τ over grid seconds.

* **Rolling-diagonal DTW, length 1024** — long-series banded DTW
  through the rolling three-diagonal wavefront state.  The kernel is
  asserted bit-identical to the full-state wavefront on a subset of
  pairs, and the payload records the state-memory ratio: ``3·B·(n+1)``
  rolling elements versus the ``B·(n+1)·(m+1)`` tensor the full-state
  kernel would materialize (~340× at length 1024) — long series run
  first class instead of falling to one pair per block.

All workloads are seeded (SEED=2012): reruns are deterministic.  The
Monte Carlo legs hand every timed plan one prebuilt candidate side
(``candidate_side=``), so they time the plans, not the building of the
collection's dense arrays.

Run:  PYTHONPATH=src python benchmarks/bench_planner.py
      PYTHONPATH=src python benchmarks/bench_planner.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict

import numpy as np

from repro.core import spawn
from repro.datasets import generate_dataset
from repro.distances import dtw_distance_matrix, rolling_dtw_paired
from repro.distances.dtw_batch import banded_dtw_from_costs
from repro.munich import Munich
from repro.queries import CollectionMaterialization, MunichDtwTechnique

SEED = 2012
PARITY_TOL = 1e-9
ADAPTIVE_SPEEDUP_FLOOR = 2.0
SWEEP_SPEEDUP_FLOOR = 1.3
ROLLING_LENGTH = 1024
TAU_GRID = (0.2, 0.4, 0.6, 0.8, 0.9)
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_planner.json",
)


def _build_multisample(n_series: int, length: int, munich_samples: int):
    exact = generate_dataset(
        "GunPoint", seed=SEED, n_series=n_series, length=length
    )
    from repro.perturbation import ConstantScenario

    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(
            series, munich_samples, spawn(SEED, "ms", index)
        )
        for index, series in enumerate(exact)
    ]


def _best_of(callable_, repeats: int) -> float:
    callable_()  # warm caches (materializations, envelopes, tables)
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return float(best)


def _bench_adaptive_mc(
    multisample,
    n_queries: int,
    k: int,
    tau: float,
    n_samples: int,
    window: int,
    repeats: int,
) -> Dict:
    """Fixed-``s`` vs adaptive Monte Carlo on a kNN-calibrated PRQ."""
    munich = Munich(
        tau=0.5, method="montecarlo", n_samples=n_samples, rng=SEED
    )
    technique = MunichDtwTechnique(window=window, munich=munich)
    queries = multisample[:n_queries]

    # kNN calibration in the workload's own measure: each query's ε is
    # its k-th nearest-neighbor *banded DTW* distance on the
    # observations (column-0 samples), so roughly k candidates sit
    # inside ε and the rest spread across the miss side — the regime a
    # kNN-calibrated PRQ actually runs in.
    column0 = np.vstack([series.samples[:, 0] for series in multisample])
    calibration = dtw_distance_matrix(
        column0[:n_queries], column0, window=window
    )
    epsilons = np.sort(calibration, axis=1)[:, k]
    candidates = CollectionMaterialization(multisample)

    def fixed():
        return technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilons,
            candidate_side=candidates,
        )

    def adaptive():
        return technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilons, tau=tau,
            candidate_side=candidates,
        )

    fixed_values, fixed_stats = fixed()
    adaptive_values, adaptive_stats = adaptive()
    decisions_identical = bool(
        np.array_equal(fixed_values >= tau, adaptive_values >= tau)
    )

    fixed_seconds = _best_of(fixed, repeats)
    adaptive_seconds = _best_of(adaptive, repeats)
    speedup = (
        fixed_seconds / adaptive_seconds
        if adaptive_seconds > 0
        else float("inf")
    )
    row = {
        "technique": "MUNICH-DTW",
        "kind": "adaptive-decision",
        "fixed_seconds_per_query": fixed_seconds / n_queries,
        "adaptive_seconds_per_query": adaptive_seconds / n_queries,
        "speedup": speedup,
        "decisions_identical": decisions_identical,
        "tau": tau,
        "n_samples": n_samples,
        "window": window,
        "k": k,
        "samples_fixed": fixed_stats.samples_drawn,
        "samples_adaptive": adaptive_stats.samples_drawn,
        "bound_decided_fraction": (
            fixed_stats.decided_by("bounds") / fixed_stats.total_cells
        ),
    }
    print(
        f"  MUNICH-DTW (adaptive-decision): fixed "
        f"{row['fixed_seconds_per_query'] * 1e3:9.3f} ms/q   adaptive "
        f"{row['adaptive_seconds_per_query'] * 1e3:9.3f} ms/q   "
        f"speedup {speedup:5.2f}x   samples "
        f"{row['samples_fixed']} -> {row['samples_adaptive']}   "
        f"decisions identical: {decisions_identical}"
    )
    return row


def _bench_tau_sweep(
    multisample,
    n_queries: int,
    tau_grid,
    n_samples: int,
    window: int,
    repeats: int,
) -> Dict:
    """One-pass τ-grid bracketing vs one adaptive pass per grid τ.

    The workload is the paper's optimal-τ calibration loop over
    MUNICH-DTW.  The per-τ sweep runs one adaptive-MC pass per grid
    threshold; the grid sweep runs one bracketing pass whose sequential
    rule covers the whole grid.  Decisions are asserted identical to
    the full-sample reference at *every* grid τ (the never-flips
    guarantee, per τ).
    """
    munich = Munich(
        tau=0.5, method="montecarlo", n_samples=n_samples, rng=SEED
    )
    technique = MunichDtwTechnique(window=window, munich=munich)
    queries = multisample[:n_queries]
    column0 = np.vstack([series.samples[:, 0] for series in multisample])
    calibration = dtw_distance_matrix(
        column0[:n_queries], column0, window=window
    )
    epsilons = np.median(calibration, axis=1)
    grid = tuple(float(tau) for tau in tau_grid)
    candidates = CollectionMaterialization(multisample)

    def sweep_fixed():
        return [
            technique.matrix_with_stats(
                "probability", queries, multisample, epsilon=epsilons,
                tau=tau, candidate_side=candidates,
            )[0]
            for tau in grid
        ]

    def sweep_grid():
        return technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilons, tau=grid,
            candidate_side=candidates,
        )[0]

    reference = technique.matrix_with_stats(
        "probability", queries, multisample, epsilon=epsilons
    )[0]
    per_tau_values = sweep_fixed()
    grid_values = sweep_grid()
    sweep_parity = all(
        np.array_equal(per_values >= tau, reference >= tau)
        and np.array_equal(grid_values >= tau, reference >= tau)
        for tau, per_values in zip(grid, per_tau_values)
    )
    sweep_fixed_seconds = _best_of(sweep_fixed, repeats)
    sweep_grid_seconds = _best_of(sweep_grid, repeats)
    speedup = (
        sweep_fixed_seconds / sweep_grid_seconds
        if sweep_grid_seconds > 0
        else float("inf")
    )
    row = {
        "technique": "MUNICH-DTW",
        "kind": "tau-grid-sweep",
        "sweep_fixed_seconds": sweep_fixed_seconds,
        "sweep_grid_seconds": sweep_grid_seconds,
        "speedup": speedup,
        "sweep_decisions_identical": bool(sweep_parity),
        "tau_grid": list(grid),
    }
    print(
        f"  MUNICH-DTW (tau-grid-sweep): per-tau "
        f"{sweep_fixed_seconds * 1e3:9.3f} ms   grid "
        f"{sweep_grid_seconds * 1e3:9.3f} ms   speedup {speedup:5.2f}x   "
        f"decisions identical at every tau: {bool(sweep_parity)}"
    )
    return row


def _bench_rolling_dtw(
    n_pairs: int, length: int, window: int, parity_pairs: int, repeats: int
) -> Dict:
    """Rolling three-diagonal state vs the full-state wavefront."""
    rng = np.random.default_rng(SEED)
    x_stack = rng.normal(size=(n_pairs, length))
    y_stack = rng.normal(size=(n_pairs, length))

    # Bit-parity against the full-state kernel on a subset (its
    # (B, n+1, m+1) accumulator is exactly what the rolling state
    # avoids, so the subset keeps the reference tractable).
    subset = min(parity_pairs, n_pairs)
    costs = (
        x_stack[:subset, :, None] - y_stack[:subset, None, :]
    ) ** 2
    reference = banded_dtw_from_costs(costs, window)
    rolled = rolling_dtw_paired(
        x_stack[:subset], y_stack[:subset], window=window
    )
    max_diff = float(np.max(np.abs(rolled - reference)))

    def rolling():
        return rolling_dtw_paired(x_stack, y_stack, window=window)

    rolling_seconds = _best_of(rolling, repeats)
    state_rolling = 3 * n_pairs * (length + 1)
    state_full = n_pairs * (length + 1) * (length + 1)
    row = {
        "technique": "rolling-DTW",
        "kind": "distance",
        "rolling_seconds_per_query": rolling_seconds / n_pairs,
        "max_abs_diff": max_diff,
        "length": length,
        "window": window,
        "n_pairs": n_pairs,
        "state_elements_rolling": state_rolling,
        "state_elements_full": state_full,
        "state_memory_ratio": state_full / state_rolling,
    }
    print(
        f"  rolling-DTW (length {length}): "
        f"{row['rolling_seconds_per_query'] * 1e3:9.3f} ms/pair   "
        f"state {state_rolling} vs {state_full} elements "
        f"({row['state_memory_ratio']:.0f}x less)   "
        f"max|diff| {max_diff:.2e}"
    )
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-series", type=int, default=40)
    parser.add_argument("--length", type=int, default=32)
    parser.add_argument("--queries", type=int, default=12)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--tau", type=float, default=0.9)
    parser.add_argument("--mc-samples", type=int, default=192)
    parser.add_argument("--rolling-pairs", type=int, default=8)
    parser.add_argument("--rolling-window", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (parity + decision "
        "identity only, no speedup floor)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.n_series, args.length = 16, 16
        args.queries, args.k = 4, 4
        args.mc_samples, args.repeats = 32, 1
        args.rolling_pairs, args.rolling_window = 2, 32

    munich_samples = 3
    window = max(1, args.length // 10)
    multisample = _build_multisample(
        args.n_series, args.length, munich_samples
    )
    print(
        f"workload: {args.n_series} series x {args.length} timestamps, "
        f"normal sigma=0.4, {munich_samples} samples/timestamp, "
        f"tau={args.tau:g}, {args.mc_samples} MC samples, "
        f"rolling length {ROLLING_LENGTH}"
    )
    adaptive_row = _bench_adaptive_mc(
        multisample,
        args.queries,
        args.k,
        args.tau,
        args.mc_samples,
        window,
        args.repeats,
    )
    sweep_row = _bench_tau_sweep(
        multisample,
        args.queries,
        TAU_GRID,
        args.mc_samples,
        window,
        args.repeats,
    )
    rolling_row = _bench_rolling_dtw(
        args.rolling_pairs,
        ROLLING_LENGTH,
        args.rolling_window,
        parity_pairs=2,
        repeats=args.repeats,
    )
    results = [adaptive_row, sweep_row, rolling_row]

    parity_ok = bool(
        adaptive_row["decisions_identical"]
        and sweep_row["sweep_decisions_identical"]
        and rolling_row["max_abs_diff"] <= PARITY_TOL
    )
    floor_ok = args.quick or (
        adaptive_row["speedup"] >= ADAPTIVE_SPEEDUP_FLOOR
        and sweep_row["speedup"] >= SWEEP_SPEEDUP_FLOOR
    )
    payload = {
        "benchmark": "query planner: adaptive MC stopping + "
        "rolling-diagonal DTW",
        "workload": {
            "n_series": args.n_series,
            "length": args.length,
            "munich_samples": munich_samples,
            "mc_samples": args.mc_samples,
            "tau": args.tau,
            "k": args.k,
            "window": window,
            "rolling_length": ROLLING_LENGTH,
            "rolling_window": args.rolling_window,
            "scenario": "normal sigma=0.4",
            "seed": SEED,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "results": results,
        "parity": {"tolerance": PARITY_TOL, "all_ok": parity_ok},
        "speedup_floor": {
            "required": None if args.quick else ADAPTIVE_SPEEDUP_FLOOR,
            "sweep_required": None if args.quick else SWEEP_SPEEDUP_FLOOR,
            "all_ok": floor_ok,
        },
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[written to {args.out}]")

    if not parity_ok:
        print(
            "FAIL: adaptive or tau-grid decisions, or rolling-DTW "
            "distances, deviate from the fixed paths",
            file=sys.stderr,
        )
        return 1
    if not floor_ok:
        print(
            f"FAIL: adaptive speedup below the "
            f"{ADAPTIVE_SPEEDUP_FLOOR:g}x floor or tau-grid speedup below "
            f"the {SWEEP_SPEEDUP_FLOOR:g}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
