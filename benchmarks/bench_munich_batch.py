#!/usr/bin/env python
"""Batched MUNICH convolution + banded vectorized DTW kernels vs per-pair.

Three kernel workloads, each timed against the exact per-pair path the
batch kernels replace, plus one decision-mode row:

* **MUNICH (convolution)** — an *undecided-heavy* probabilistic range
  workload: ε sits at the median pairwise distance, so the minimal-
  bounding-interval filter decides few candidates and most pairs pay the
  histogram convolution.  Before: the PR 1–3 path (vectorized bounds +
  one `convolved_probability` per undecided pair).  After: the stacked
  shared-bin batch evaluator (`repro.munich.batch`).
* **DUST-DTW (kNN)** — the full k-nearest-neighbor workload under
  DUST-DTW.  Before: the per-pair Python dynamic program
  (`Dust.dtw_distance`, one interpreter iteration per DP cell).  After:
  the anti-diagonal wavefront kernel behind
  `DustDtwTechnique.distance_matrix`.
* **MUNICH-DTW (probability)** — Monte Carlo `Pr(DTW <= ε)` profiles.
  Before: one Python DP per drawn materialization pair.  After: the
  collection-level envelope and span bounds, then the seeded draws,
  gathered once per refine call, through one rolling wavefront DP.
* **MUNICH (prob_range)** — the convolution workload's decision query
  `prob_range(ε, τ)` against the τ-free `profile_matrix(ε)`
  thresholded at τ.  Its refine stage decides most cells from a
  Hoeffding bound, then a Berry–Esseen bound from each cell's exact
  atoms, and runs the DP on the rest.  The match sets must be
  identical (`decisions_identical`) at τ = 0.1, 0.5 and 0.9, so both
  bounds are checked against low, central and high thresholds; the
  timings and speedup are at τ = 0.5, reported without a floor.

Every batch result is asserted to match its per-pair reference to
**1e-9** (DTW paths are bit-identical), the decision row's match sets
must equal the thresholded matrix's, and the full run additionally
enforces the ≥3× speedup floor per kernel workload; the exit code is
non-zero on any violation.  Results land in ``BENCH_munich.json`` at the
repo root; CI smoke-runs ``--quick`` (parity + regression gate only —
tiny workloads are all jitter, so no floor there).  Each batch leg
hands the plan one prebuilt candidate side (``candidate_side=``), so
its repeats time the kernels, not the building of the collection's
dense arrays.

All workloads are seeded (SEED=2012): reruns are deterministic.

Run:  PYTHONPATH=src python benchmarks/bench_munich_batch.py
      PYTHONPATH=src python benchmarks/bench_munich_batch.py --quick
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
from repro.munich import Munich, interval_gap_and_span
from repro.queries import (
    CollectionMaterialization,
    DustDtwTechnique,
    MunichDtwTechnique,
    MunichTechnique,
    SimilaritySession,
)

SEED = 2012
PARITY_TOL = 1e-9
SPEEDUP_FLOOR = 3.0
DECISION_TAU = 0.5
#: Every τ whose decision-mode match sets must equal the τ-free matrix's.
DECISION_TAUS = (0.1, DECISION_TAU, 0.9)
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_munich.json",
)


def _build_workload(n_series: int, length: int, munich_samples: int):
    exact = generate_dataset(
        "GunPoint", seed=SEED, n_series=n_series, length=length
    )
    scenario_sigma = 0.4
    from repro.perturbation import ConstantScenario

    scenario = ConstantScenario("normal", scenario_sigma)
    pdf = [
        scenario.apply(series, spawn(SEED, "pdf", index))
        for index, series in enumerate(exact)
    ]
    multisample = [
        scenario.apply_multisample(
            series, munich_samples, spawn(SEED, "ms", index)
        )
        for index, series in enumerate(exact)
    ]
    return pdf, multisample


def _best_of(callable_, repeats: int) -> float:
    callable_()  # warm caches (materializations, DUST tables, envelopes)
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return float(best)


def _row(
    name: str,
    kind: str,
    per_pair_seconds: float,
    batch_seconds: float,
    n_queries: int,
    max_diff: float,
    extra: Dict = None,
) -> Dict:
    row = {
        "technique": name,
        "kind": kind,
        "per_pair_seconds_per_query": per_pair_seconds / n_queries,
        "batch_seconds_per_query": batch_seconds / n_queries,
        "speedup": (
            per_pair_seconds / batch_seconds
            if batch_seconds > 0
            else float("inf")
        ),
        "max_abs_diff": max_diff,
        "parity_ok": bool(max_diff <= PARITY_TOL),
    }
    if extra:
        row.update(extra)
    print(
        f"  {name:14s} ({kind}): per-pair "
        f"{row['per_pair_seconds_per_query'] * 1e3:9.3f} ms/q   batch "
        f"{row['batch_seconds_per_query'] * 1e3:9.3f} ms/q   "
        f"speedup {row['speedup']:6.1f}x   max|diff| {max_diff:.2e}"
    )
    return row


def _bench_munich_convolution(
    multisample, n_queries: int, n_bins: int, repeats: int
) -> Dict:
    """Undecided-heavy PRQ: per-pair convolution loop vs batch kernel."""
    munich = Munich(tau=0.5, n_bins=n_bins)
    technique = MunichTechnique(munich)
    queries = multisample[:n_queries]

    # ε at the median pairwise column-0 distance: the bounding filter
    # decides few pairs, so the convolution dominates — the regime the
    # ROADMAP names "matrix path ≈ 1× on undecided-heavy workloads".
    column0 = np.vstack([series.samples[:, 0] for series in multisample])
    pairwise = np.sqrt(
        ((column0[:, None, :] - column0[None, :, :]) ** 2).sum(-1)
    )
    epsilon = float(np.median(pairwise[pairwise > 0]))

    materialized = CollectionMaterialization(multisample)
    low, high = materialized.bounding_matrices()

    def per_pair():
        out = np.empty((len(queries), len(multisample)))
        for row, query in enumerate(queries):
            query_low, query_high = query.bounding_intervals()
            gap, span = interval_gap_and_span(
                low, high, query_low, query_high
            )
            lower = np.sqrt((gap * gap).sum(axis=1))
            upper = np.sqrt((span * span).sum(axis=1))
            out[row, lower > epsilon] = 0.0
            out[row, upper <= epsilon] = 1.0
            for index in np.flatnonzero(
                (lower <= epsilon) & (upper > epsilon)
            ):
                out[row, index] = munich.probability(
                    query, multisample[index], epsilon
                )
        return out

    def batch():
        return technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilon,
            candidate_side=materialized,
        )[0]

    reference = per_pair()
    result = batch()
    max_diff = float(np.max(np.abs(result - reference)))

    # How undecided-heavy is this workload really?
    undecided = 0
    for query in queries:
        query_low, query_high = query.bounding_intervals()
        gap, span = interval_gap_and_span(low, high, query_low, query_high)
        lower = np.sqrt((gap * gap).sum(axis=1))
        upper = np.sqrt((span * span).sum(axis=1))
        undecided += int(((lower <= epsilon) & (upper > epsilon)).sum())
    undecided_fraction = undecided / (len(queries) * len(multisample))

    per_pair_seconds = _best_of(per_pair, repeats)
    batch_seconds = _best_of(batch, repeats)
    return _row(
        "MUNICH",
        "probability",
        per_pair_seconds,
        batch_seconds,
        len(queries),
        max_diff,
        extra={
            "epsilon": epsilon,
            "n_bins": n_bins,
            "undecided_fraction": undecided_fraction,
        },
    )


def _bench_munich_decision(
    multisample, n_queries: int, n_bins: int, repeats: int
) -> Dict:
    """``prob_range(ε, τ)`` vs the τ-free matrix thresholded at τ.

    Match sets are compared at every :data:`DECISION_TAUS`; the timings
    are at :data:`DECISION_TAU`.
    """
    technique = MunichTechnique(Munich(tau=0.5, n_bins=n_bins))
    column0 = np.vstack([series.samples[:, 0] for series in multisample])
    pairwise = np.sqrt(
        ((column0[:, None, :] - column0[None, :, :]) ** 2).sum(-1)
    )
    epsilon = float(np.median(pairwise[pairwise > 0]))
    session = SimilaritySession(multisample)
    query_set = session.queries(list(range(n_queries))).using(technique)

    def full_dp(tau=DECISION_TAU):
        return query_set.profile_matrix(epsilon=epsilon).result_sets(tau)

    def decision(tau=DECISION_TAU):
        return query_set.prob_range(epsilon, tau).matches

    identical = all(
        np.array_equal(expected, got)
        for tau in DECISION_TAUS
        for expected, got in zip(full_dp(tau), decision(tau))
    )
    full_seconds = _best_of(full_dp, repeats)
    decision_seconds = _best_of(decision, repeats)
    session.close()
    row = {
        "technique": "MUNICH",
        "kind": "prob_range",
        "full_dp_seconds_per_query": full_seconds / n_queries,
        "decision_seconds_per_query": decision_seconds / n_queries,
        "speedup": full_seconds / decision_seconds,
        "decisions_identical": bool(identical),
        "parity_ok": bool(identical),
        "epsilon": epsilon,
        "tau": DECISION_TAU,
        "identity_taus": list(DECISION_TAUS),
        "n_bins": n_bins,
    }
    print(
        f"  {'MUNICH':14s} (prob_range): full DP "
        f"{row['full_dp_seconds_per_query'] * 1e3:9.3f} ms/q   decision "
        f"{row['decision_seconds_per_query'] * 1e3:9.3f} ms/q   "
        f"speedup {row['speedup']:6.1f}x   identical {identical}"
    )
    return row


def _bench_dust_dtw_knn(pdf, n_queries: int, k: int, window: int, repeats: int) -> Dict:
    """kNN under DUST-DTW: per-pair Python DP vs wavefront matrix kernel."""
    technique = DustDtwTechnique(window=window)
    queries = pdf[:n_queries]
    candidates = CollectionMaterialization(pdf)

    def per_pair():
        matrix = np.empty((len(queries), len(pdf)))
        for row, query in enumerate(queries):
            for column, candidate in enumerate(pdf):
                matrix[row, column] = technique.dust.dtw_distance(
                    query, candidate, window=window
                )
        return matrix

    def batch():
        return technique.matrix_with_stats(
            "distance", queries, pdf, candidate_side=candidates
        )[0]

    reference = per_pair()
    result = batch()
    max_diff = float(np.max(np.abs(result - reference)))

    per_pair_seconds = _best_of(per_pair, repeats)
    batch_seconds = _best_of(batch, repeats)

    # The actual kNN verb rides the same kernel through the session API.
    session = SimilaritySession(pdf)
    knn = session.queries(list(range(n_queries))).using(technique).knn(k)
    return _row(
        "DUST-DTW",
        "distance",
        per_pair_seconds,
        batch_seconds,
        len(queries),
        max_diff,
        extra={"window": window, "k": k, "knn_rows": int(knn.indices.shape[0])},
    )


def _bench_munich_dtw(
    multisample, n_queries: int, n_samples: int, window: int, repeats: int
) -> Dict:
    """Pr(DTW <= ε) profiles: per-sample Python DPs vs pruned draw stacks."""
    munich = Munich(
        tau=0.5, method="montecarlo", n_samples=n_samples, rng=SEED
    )
    technique = MunichDtwTechnique(window=window, munich=munich)
    queries = multisample[:n_queries]
    column0 = np.vstack([series.samples[:, 0] for series in multisample])
    pairwise = np.sqrt(
        ((column0[:, None, :] - column0[None, :, :]) ** 2).sum(-1)
    )
    epsilon = float(np.median(pairwise[pairwise > 0]))
    candidates = CollectionMaterialization(multisample)

    def per_pair():
        return np.vstack([
            [
                munich.dtw_probability(
                    query, candidate, epsilon, window=window
                )
                for candidate in multisample
            ]
            for query in queries
        ])

    def batch():
        return technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilon,
            candidate_side=candidates,
        )[0]

    reference = per_pair()
    result = batch()
    max_diff = float(np.max(np.abs(result - reference)))

    per_pair_seconds = _best_of(per_pair, repeats)
    batch_seconds = _best_of(batch, repeats)
    return _row(
        "MUNICH-DTW",
        "probability",
        per_pair_seconds,
        batch_seconds,
        len(queries),
        max_diff,
        extra={
            "epsilon": epsilon,
            "window": window,
            "n_samples": n_samples,
        },
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-series", type=int, default=64)
    parser.add_argument("--length", type=int, default=48)
    parser.add_argument("--munich-queries", type=int, default=24)
    parser.add_argument("--dtw-queries", type=int, default=10)
    parser.add_argument("--n-bins", type=int, default=512)
    parser.add_argument("--mc-samples", type=int, default=60)
    parser.add_argument("--window-fraction", type=float, default=0.1)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (parity only, no "
        "speedup floor)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.n_series, args.length = 24, 20
        args.munich_queries, args.dtw_queries = 8, 4
        args.mc_samples, args.repeats = 20, 1

    munich_samples = 3
    window = max(1, int(args.window_fraction * args.length))
    pdf, multisample = _build_workload(
        args.n_series, args.length, munich_samples
    )
    print(
        f"workload: {args.n_series} series x {args.length} timestamps, "
        f"normal sigma=0.4, {munich_samples} samples/timestamp, "
        f"band half-width {window}"
    )
    kernel_rows = [
        _bench_munich_convolution(
            multisample, args.munich_queries, args.n_bins, args.repeats
        ),
        _bench_dust_dtw_knn(
            pdf, args.dtw_queries, 10, window, args.repeats
        ),
        _bench_munich_dtw(
            multisample,
            args.dtw_queries,
            args.mc_samples,
            window,
            args.repeats,
        ),
    ]
    results = kernel_rows + [
        _bench_munich_decision(
            multisample, args.munich_queries, args.n_bins, args.repeats
        ),
    ]

    parity_ok = all(row["parity_ok"] for row in results)
    floor_ok = args.quick or all(
        row["speedup"] >= SPEEDUP_FLOOR for row in kernel_rows
    )
    payload = {
        "benchmark": "batched MUNICH convolution + banded DTW kernels "
        "vs per-pair paths",
        "workload": {
            "n_series": args.n_series,
            "length": args.length,
            "munich_samples": munich_samples,
            "n_bins": args.n_bins,
            "mc_samples": args.mc_samples,
            "window": window,
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
            "required": None if args.quick else SPEEDUP_FLOOR,
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
            f"FAIL: batch kernels deviate from the per-pair paths beyond "
            f"{PARITY_TOL}, or decision-mode match sets differ from the "
            f"thresholded matrix",
            file=sys.stderr,
        )
        return 1
    if not floor_ok:
        print(
            f"FAIL: speedup below the {SPEEDUP_FLOOR:g}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
