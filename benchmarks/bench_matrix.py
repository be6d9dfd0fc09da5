#!/usr/bin/env python
"""All-pairs matrix kernels vs looped one-row matrices.

Times the paper's full evaluation protocol — *every* series of the
collection queried against all others (Section 4.1.2), the Figure 11–12
workload — two ways per technique:

* **looped**: one single-row ``distance_matrix([q], collection)`` /
  ``probability_matrix([q], collection, eps)`` call per query — the
  ``M = 1`` plan every single-row query (e.g. a daemon request) runs,
  kept under the regression gate here;
* **matrix**: a single ``distance_matrix`` /
  ``probability_matrix`` kernel for the whole ``(M, N)`` grid — the
  session-API path (GEMM identity for Euclidean/UMA/UEMA, grouped table
  application for DUST, broadcast moments for PROUD, batched bounds for
  MUNICH).

Results land in ``BENCH_matrix.json`` at the repo root.

Run:  PYTHONPATH=src python benchmarks/bench_matrix.py
      PYTHONPATH=src python benchmarks/bench_matrix.py --quick  (CI smoke)
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
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichTechnique,
    ProudTechnique,
)

SEED = 2012
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_matrix.json",
)

#: Techniques the acceptance target (>= 3x) applies to.
TARGET_TECHNIQUES = ("Euclidean", "UMA(w=2)", "UEMA(w=2, lambda=1)", "DUST")
TARGET_SPEEDUP = 3.0


def _build_workload(n_series: int, length: int, munich_samples: int):
    exact = generate_dataset(
        "GunPoint", seed=SEED, n_series=n_series, length=length
    )
    scenario = ConstantScenario("normal", 0.4)
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
    callable_()  # warm caches (materializations, DUST tables, filters)
    best = np.inf
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return float(best)


def _bench_distance(technique, collection, repeats) -> Dict:
    looped = _best_of(
        lambda: [
            technique.distance_matrix([query], collection)
            for query in collection
        ],
        repeats,
    )
    matrix = _best_of(
        lambda: technique.distance_matrix(collection, collection), repeats
    )
    return _row(technique.name, "distance", looped, matrix, len(collection))


def _bench_probability(technique, collection, epsilons, repeats) -> Dict:
    looped = _best_of(
        lambda: [
            technique.probability_matrix([query], collection, float(eps))
            for query, eps in zip(collection, epsilons)
        ],
        repeats,
    )
    matrix = _best_of(
        lambda: technique.probability_matrix(
            collection, collection, epsilons
        ),
        repeats,
    )
    return _row(
        technique.name, "probability", looped, matrix, len(collection)
    )


def _row(
    name: str, kind: str, looped: float, matrix: float, n_queries: int
) -> Dict:
    speedup = looped / matrix if matrix > 0 else float("inf")
    print(
        f"  {name:22s} looped {looped / n_queries * 1e3:9.3f} ms/query   "
        f"matrix {matrix / n_queries * 1e3:9.3f} ms/query   "
        f"speedup {speedup:6.1f}x"
    )
    return {
        "technique": name,
        "kind": kind,
        "looped_seconds_per_query": looped / n_queries,
        "matrix_seconds_per_query": matrix / n_queries,
        "speedup": speedup,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-series", type=int, default=200)
    parser.add_argument("--length", type=int, default=64)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (skips the speedup target)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.n_series, args.length, args.repeats = 40, 32, 1

    munich_samples = 3
    pdf, multisample = _build_workload(
        args.n_series, args.length, munich_samples
    )
    # Per-query thresholds around the 10th-NN band, as the protocol
    # calibrates them.
    sample = np.vstack([series.observations for series in pdf])
    pivot = sample[: min(30, args.n_series)]
    epsilon = float(
        np.median(
            np.sqrt(((pivot[:, None, :] - pivot[None, :, :]) ** 2).sum(-1))
        )
        * 0.6
    )
    epsilons = np.full(args.n_series, epsilon)

    print(
        f"workload: full protocol, {args.n_series} queries x "
        f"{args.n_series} series x {args.length} timestamps, "
        f"normal sigma=0.4, epsilon={epsilon:.2f}"
    )
    results = [
        _bench_distance(EuclideanTechnique(), pdf, args.repeats),
        _bench_distance(DustTechnique(), pdf, args.repeats),
        _bench_distance(FilteredTechnique.uma(), pdf, args.repeats),
        _bench_distance(FilteredTechnique.uema(), pdf, args.repeats),
        _bench_probability(
            ProudTechnique(assumed_std=0.7), pdf, epsilons, args.repeats
        ),
    ]
    if args.quick:
        print("  (MUNICH skipped in --quick mode)")
    else:
        results.append(
            _bench_probability(
                MunichTechnique(Munich(tau=0.5, n_bins=512)),
                multisample,
                np.full(args.n_series, epsilon),
                args.repeats,
            )
        )

    target = {
        row["technique"]: row["speedup"] >= TARGET_SPEEDUP
        for row in results
        if row["technique"] in TARGET_TECHNIQUES
    }
    payload = {
        "benchmark": "all-pairs matrix kernels vs looped one-row matrices",
        "workload": {
            "protocol": "full (every series is a query)",
            "n_series": args.n_series,
            "length": args.length,
            "scenario": "normal sigma=0.4",
            "munich_samples": munich_samples,
            "epsilon": epsilon,
            "seed": SEED,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "speedup_target": {
            "threshold": TARGET_SPEEDUP,
            "met": target,
        },
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[written to {args.out}]")

    if not args.quick and not all(target.values()):
        missed = [name for name, ok in target.items() if not ok]
        print(
            f"WARNING: speedup below {TARGET_SPEEDUP}x for: {missed}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
