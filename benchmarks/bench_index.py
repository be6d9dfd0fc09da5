#!/usr/bin/env python
"""Summarization-index scaling study: sub-linear retrieval at 10⁶ series.

Two halves:

* **Scaling** — streams a Fourier-mixture collection to disk
  (:func:`repro.datasets.stream_fourier_collection`), builds the PAA
  index tables next to the mmap manifest (:func:`repro.core.build_index`),
  and answers the same k-nearest-neighbour workload (8 query rows,
  k=10) at growing prefixes N ∈ {10⁴, 10⁵, 10⁶} of the *same* mapped
  collection, indexed vs a ``PlanPolicy(mode="fixed")`` session.  The
  indexed path must (a) beat the unindexed path by ≥5× at the largest N
  and (b) grow sub-linearly across the whole measured range: from the
  smallest to the largest N,
  indexed wall time may grow by at most ``0.8 ×`` the N growth.  The
  unindexed path scans every candidate row, so its growth is the linear
  yardstick the index is measured against.

* **Parity** — on an in-memory workload, every technique family
  (Euclidean, UMA, UEMA, DUST, PROUD, MUNICH, and both DTW techniques)
  answers kNN / range / prob_range with the index on and off; the
  neighbour sets must be identical and distances within 1e-9.  The
  index is a pruning structure, never an approximation.

Exit code is non-zero on any parity or scaling failure; results land in
``BENCH_index.json`` at the repo root (CI smoke-runs ``--quick``).

Run:  PYTHONPATH=src python benchmarks/bench_index.py
      PYTHONPATH=src python benchmarks/bench_index.py --quick  (CI smoke)
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from typing import Dict, List

import numpy as np

from repro.core import build_index, load_collection, spawn
from repro.datasets import generate_dataset, stream_fourier_collection
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichDtwTechnique,
    MunichTechnique,
    PlanPolicy,
    ProudTechnique,
    SimilaritySession,
)

SEED = 2012
PARITY_TOL = 1e-9
SPEEDUP_FLOOR = 5.0
#: Indexed wall time may grow by at most this fraction of the N growth
#: across the full measured range (smallest to largest N).
SUBLINEAR_FACTOR = 0.8
#: PAA segments for the scaling study: length 256 over 32 segments keeps
#: an 8-point segment granularity, tight enough to retire >99% of the
#: candidate cells on the Fourier-mixture workload.
SEGMENTS = 32
N_QUERIES = 8
K = 10
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_index.json",
)


def _best_of(callable_, repeats: int) -> float:
    callable_()  # warm caches (mapped adoption, summaries, plans)
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return float(best)


# ---------------------------------------------------------------------------
# Scaling half
# ---------------------------------------------------------------------------


def _knn_at_scale(collection, indexed: bool, repeats: int):
    """kNN wall time for the fixed 8-query workload; returns the result
    of the last run so callers can compare neighbour sets."""
    policy = PlanPolicy(mode="auto" if indexed else "fixed")
    holder: Dict = {}

    def run():
        # A fresh session per run: the unindexed path must not coast on
        # summaries cached by the indexed one (and vice versa).
        session = SimilaritySession(collection, policy=policy)
        holder["result"] = (
            session.queries(list(range(N_QUERIES)))
            .using(EuclideanTechnique(index_segments=SEGMENTS))
            .knn(K)
        )

    seconds = _best_of(run, repeats)
    return seconds, holder["result"]


def _scaling_study(
    directory: str, sizes: List[int], length: int, repeats: int
) -> List[Dict]:
    largest = sizes[-1]
    print(
        f"streaming {largest} x {length} Fourier collection "
        f"to {directory} ..."
    )
    started = time.perf_counter()
    manifest = stream_fourier_collection(
        directory, n_series=largest, length=length, seed=SEED
    )
    stream_seconds = time.perf_counter() - started
    started = time.perf_counter()
    build_index(manifest, n_segments=SEGMENTS)
    build_seconds = time.perf_counter() - started
    print(
        f"  streamed in {stream_seconds:.1f}s, "
        f"index built in {build_seconds:.1f}s"
    )
    full = load_collection(manifest)

    rows = []
    for n_series in sizes:
        prefix = full if n_series == largest else full.shard(0, n_series)
        indexed_seconds, indexed_result = _knn_at_scale(
            prefix, True, repeats
        )
        unindexed_seconds, unindexed_result = _knn_at_scale(
            prefix, False, repeats
        )
        identical = bool(
            np.array_equal(
                indexed_result.indices, unindexed_result.indices
            )
        )
        max_diff = float(
            np.max(
                np.abs(indexed_result.scores - unindexed_result.scores)
            )
        )
        row = {
            "technique": "Euclidean",
            "kind": f"knn@{n_series}",
            "n_series": n_series,
            "indexed_seconds_per_query": indexed_seconds / N_QUERIES,
            "unindexed_seconds_per_query": unindexed_seconds / N_QUERIES,
            "speedup": (
                unindexed_seconds / indexed_seconds
                if indexed_seconds > 0
                else float("inf")
            ),
            "identical_neighbors": identical,
            "max_abs_diff": max_diff,
            "stream_seconds": stream_seconds if n_series == largest else None,
            "index_build_seconds": (
                build_seconds if n_series == largest else None
            ),
        }
        rows.append(row)
        print(
            f"  N={n_series:>9d}  indexed "
            f"{row['indexed_seconds_per_query'] * 1e3:9.3f} ms/q   "
            f"unindexed {row['unindexed_seconds_per_query'] * 1e3:9.3f} "
            f"ms/q   speedup {row['speedup']:6.2f}x   "
            f"neighbors {'identical' if identical else 'MISMATCH'}"
        )
    return rows


def _scaling_verdict(rows: List[Dict], enforce: bool) -> Dict:
    """Sub-linear growth + speedup floor + exact neighbour parity."""
    parity_ok = all(
        row["identical_neighbors"] and row["max_abs_diff"] <= PARITY_TOL
        for row in rows
    )
    growth_checks = [
        {
            "from_n": previous["n_series"],
            "to_n": current["n_series"],
            "n_ratio": current["n_series"] / previous["n_series"],
            "indexed_time_ratio": (
                current["indexed_seconds_per_query"]
                / previous["indexed_seconds_per_query"]
            ),
        }
        for previous, current in zip(rows, rows[1:])
    ]
    # Gate on the aggregate smallest-to-largest ratio: per-decade ratios
    # are informational (a single noisy small-N point would dominate
    # them), the end-to-end growth is what sub-linear scaling claims.
    n_ratio = rows[-1]["n_series"] / rows[0]["n_series"]
    time_ratio = (
        rows[-1]["indexed_seconds_per_query"]
        / rows[0]["indexed_seconds_per_query"]
    )
    sublinear_ok = bool(time_ratio <= SUBLINEAR_FACTOR * n_ratio)
    speedup_at_max = rows[-1]["speedup"]
    speedup_ok = speedup_at_max >= SPEEDUP_FLOOR
    verdict = {
        "parity_ok": parity_ok,
        "growth": growth_checks,
        "aggregate_n_ratio": n_ratio,
        "aggregate_time_ratio": time_ratio,
        "sublinear_factor": SUBLINEAR_FACTOR,
        "sublinear_ok": sublinear_ok,
        "speedup_at_max": speedup_at_max,
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_ok": speedup_ok,
        "enforced": enforce,
        # Quick mode gates on parity only: at smoke scale the fixed
        # per-plan overheads swamp the per-candidate savings, so the
        # timing assertions only bind on the full workload.
        "all_ok": parity_ok
        and (not enforce or (sublinear_ok and speedup_ok)),
    }
    return verdict


# ---------------------------------------------------------------------------
# Parity half (all technique families)
# ---------------------------------------------------------------------------


def _build_parity_workload(n_series: int, length: int):
    exact = generate_dataset(
        "GunPoint", seed=SEED, n_series=n_series, length=length
    )
    scenario = ConstantScenario("normal", 0.4)
    pdf = [
        scenario.apply(series, spawn(SEED, "pdf", index))
        for index, series in enumerate(exact)
    ]
    multisample = [
        scenario.apply_multisample(series, 3, spawn(SEED, "ms", index))
        for index, series in enumerate(exact)
    ]
    return pdf, multisample


def _parity_case(name: str, collection, technique, query) -> Dict:
    indexed, baseline = (
        query(
            SimilaritySession(collection, policy=PlanPolicy(mode=mode))
            .queries()
            .using(technique)
        )
        for mode in ("auto", "fixed")
    )
    if hasattr(indexed, "indices"):  # KnnResult
        identical = bool(np.array_equal(indexed.indices, baseline.indices))
        max_diff = float(np.max(np.abs(indexed.scores - baseline.scores)))
    else:  # RangeResult
        identical = all(
            np.array_equal(a, b)
            for a, b in zip(indexed.matches, baseline.matches)
        )
        max_diff = 0.0 if identical else float("inf")
    ok = identical and max_diff <= PARITY_TOL
    print(
        f"  {name:34s} "
        + ("identical" if ok else f"MISMATCH (max|diff| {max_diff:.2e})")
    )
    return {
        "case": name,
        "identical": identical,
        "max_abs_diff": max_diff,
        "ok": ok,
    }


def _parity_suite(n_series: int, length: int) -> List[Dict]:
    pdf, multisample = _build_parity_workload(n_series, length)
    knn = lambda q: q.knn(4)  # noqa: E731
    cases = [
        ("Euclidean knn", multisample, EuclideanTechnique(), knn),
        ("Euclidean range", multisample, EuclideanTechnique(),
         lambda q: q.range(3.0)),
        ("UMA knn", pdf, FilteredTechnique.uma(), knn),
        ("UEMA knn", pdf, FilteredTechnique.uema(), knn),
        ("DUST knn", pdf, DustTechnique(), knn),
        ("PROUD prob_range", pdf, ProudTechnique(assumed_std=0.4),
         lambda q: q.prob_range(2.5, 0.3)),
        ("MUNICH prob_range", multisample,
         MunichTechnique(Munich(tau=0.5, n_bins=256)),
         lambda q: q.prob_range(2.5, 0.3)),
        ("MUNICH-DTW prob_range", multisample,
         MunichDtwTechnique(
             munich=Munich(
                 tau=0.5, method="montecarlo", n_samples=24, rng=SEED
             )
         ),
         lambda q: q.prob_range(2.5, 0.3)),
    ]
    return [
        _parity_case(name, collection, technique, query)
        for name, collection, technique, query in cases
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=[10_000, 100_000, 1_000_000],
        help="collection prefix sizes for the scaling study",
    )
    parser.add_argument("--length", type=int, default=256)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--parity-series",
        type=int,
        default=48,
        help="series count for the all-families parity suite",
    )
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (parity-gated only: the "
        "sub-linear/speedup assertions need the full collection)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.sizes = [2_000, 8_000]
        args.length = 32
        args.repeats = 1
        args.parity_series = 20
    args.sizes = sorted(args.sizes)

    print(
        f"scaling workload: Euclidean kNN, {N_QUERIES} queries, k={K}, "
        f"N in {args.sizes}, length {args.length}, seed {SEED}"
    )
    with tempfile.TemporaryDirectory() as directory:
        scaling_rows = _scaling_study(
            directory, args.sizes, args.length, args.repeats
        )
    index_verdict = _scaling_verdict(scaling_rows, enforce=not args.quick)

    print(
        f"parity workload: all technique families, "
        f"{args.parity_series} series, indexed vs mode='fixed'"
    )
    parity_rows = _parity_suite(args.parity_series, 24)
    parity_ok = all(row["ok"] for row in parity_rows)

    payload = {
        "benchmark": "PAA summarization index: scaling + parity",
        "workload": {
            "sizes": args.sizes,
            "length": args.length,
            "n_queries": N_QUERIES,
            "k": K,
            "parity_series": args.parity_series,
            "seed": SEED,
            "quick": bool(args.quick),
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "results": scaling_rows,
        "parity_cases": parity_rows,
        "parity": {"tolerance": PARITY_TOL, "all_ok": parity_ok},
        "index": index_verdict,
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[written to {args.out}]")

    failed = False
    if not parity_ok:
        print(
            "FAIL: indexed results deviate from the unindexed path",
            file=sys.stderr,
        )
        failed = True
    if not index_verdict["all_ok"]:
        print(
            "FAIL: index scaling assertions (sub-linear growth / "
            f">= {SPEEDUP_FLOOR}x speedup / neighbor parity) not met",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
