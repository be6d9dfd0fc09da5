#!/usr/bin/env python
"""Similarity-service benchmark: warm-start vs cold, plus answer parity.

Measures the promise the serving tier makes on top of the library:

* **warm start** — a daemon restarted over a persistent catalog answers
  its first query from a preloaded, kernel-primed session, so the
  client pays the kernel and the wire, never collection load or
  materialization warmup.  Compared against the cold library path
  (``load_collection`` + ``SimilaritySession`` + the same query) on the
  same manifest; the full (non ``--quick``) run **fails** unless the
  warm first query is at least :data:`WARM_SPEEDUP_FLOOR` x faster.

Daemon answers are also checked for parity against the in-process
session (kNN neighbor sets, range and prob-range match sets); the
result lands under the payload's ``service`` key, which
``check_regression.py`` treats as fatal when false.  Concurrent serving
is measured end to end by ``benchmarks/e2e`` (workload
``serve-daemon``).

Results are written to ``BENCH_service.json`` at the repository root.

Run:  PYTHONPATH=src python benchmarks/bench_service.py
      PYTHONPATH=src python benchmarks/bench_service.py --quick  (CI smoke)
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import tempfile
import threading
import time
from typing import Dict, List

import numpy as np

from repro.core import build_index, load_collection, save_collection, spawn
from repro.datasets import generate_dataset, stream_fourier_collection
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession
from repro.service import ServiceCatalog, ServiceClient, SimilarityDaemon
from repro.service.protocol import build_technique

SEED = 2012
DEFAULT_OUT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_service.json",
)
#: The serving-tier contract: a preloaded daemon answers its first
#: query at least this many times faster than a cold library start.
WARM_SPEEDUP_FLOOR = 5.0


class _DaemonThread:
    """A live daemon on a background event-loop thread."""

    def __init__(self, catalog_path: str, **kwargs) -> None:
        self.daemon: SimilarityDaemon = None  # type: ignore[assignment]
        self.loop: asyncio.AbstractEventLoop = None  # type: ignore
        ready = threading.Event()

        def _serve() -> None:
            async def _main() -> None:
                self.daemon = SimilarityDaemon(catalog_path, **kwargs)
                await self.daemon.start()
                self.loop = asyncio.get_running_loop()
                ready.set()
                await self.daemon.serve_forever()

            asyncio.run(_main())

        self.thread = threading.Thread(target=_serve, daemon=True)
        self.thread.start()
        if not ready.wait(timeout=600.0):
            raise RuntimeError("daemon did not come up")

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.daemon.port, timeout=600.0)

    def stop(self) -> None:
        self.loop.call_soon_threadsafe(
            lambda: asyncio.ensure_future(self.daemon.stop())
        )
        self.thread.join(timeout=120.0)


def _build_workloads(base: str, n_series: int, length: int, n_pdf: int):
    """One big exact collection (indexed) + one small pdf collection."""
    main = stream_fourier_collection(
        os.path.join(base, "main"), n_series, length, seed=SEED
    )
    build_index(os.path.join(base, "main"), n_segments=8)
    exact = generate_dataset(
        "GunPoint", seed=SEED, n_series=n_pdf, length=32
    )
    scenario = ConstantScenario("normal", 0.4)
    pdf = [
        scenario.apply(series, spawn(SEED, "pdf", index))
        for index, series in enumerate(exact)
    ]
    pdf_manifest = save_collection(pdf, os.path.join(base, "pdf"))
    return main, pdf_manifest


def _cold_first_query(manifest: str, k: int) -> float:
    """The library path from nothing: load + session + one kNN query."""
    started = time.perf_counter()
    collection = load_collection(manifest)
    with SimilaritySession(collection) as session:
        session.queries([0]).using(build_technique("euclidean")).knn(k)
    return time.perf_counter() - started


def _measure_cold(manifest: str, k: int, repeats: int) -> float:
    return min(_cold_first_query(manifest, k) for _ in range(repeats))


def _measure_warm(
    catalog_path: str, k: int, repeats: int
) -> Dict[str, float]:
    """First-query and steady-state latency of a freshly started daemon."""
    service = _DaemonThread(catalog_path)
    try:
        with service.client() as client:
            started = time.perf_counter()
            client.query("knn", "main", {"k": k}, "euclidean", [0])
            first = time.perf_counter() - started
            steady = np.inf
            for _ in range(repeats):
                started = time.perf_counter()
                client.query("knn", "main", {"k": k}, "euclidean", [0])
                steady = min(steady, time.perf_counter() - started)
    finally:
        service.stop()
    return {"first": first, "steady": float(steady)}


def _check_parity(
    catalog_path: str, main_manifest: str, pdf_manifest: str, k: int
) -> Dict:
    """Daemon answers vs the in-process session on the same manifests."""
    checks: List[Dict] = []
    service = _DaemonThread(catalog_path)
    try:
        with service.client() as client:
            collection = load_collection(main_manifest)
            probe = [0, len(collection) // 2, len(collection) - 1]
            with SimilaritySession(collection) as session:
                expected = (
                    session.queries(probe)
                    .using(build_technique("euclidean"))
                    .knn(k)
                )
            answer = client.query("knn", "main", {"k": k}, "euclidean", probe)
            checks.append(
                {
                    "check": "knn_euclidean_main",
                    "ok": answer.indices == expected.indices.tolist()
                    and bool(
                        np.allclose(
                            answer.scores, expected.scores, atol=1e-9
                        )
                    ),
                }
            )

            pdf = load_collection(pdf_manifest)
            with SimilaritySession(pdf) as session:
                dust = (
                    session.queries()
                    .using(build_technique("dust"))
                    .knn(5)
                )
                prq = (
                    session.queries()
                    .using(build_technique("proud"))
                    .prob_range(4.0, 0.4)
                )
            dust_answer = client.query("knn", "pdf", {"k": 5}, "dust")
            checks.append(
                {
                    "check": "knn_dust_pdf",
                    "ok": dust_answer.indices == dust.indices.tolist(),
                }
            )
            prq_answer = client.query(
                "prob_range", "pdf", {"epsilon": 4.0, "tau": 0.4}, "proud"
            )
            checks.append(
                {
                    "check": "prob_range_proud_pdf",
                    "ok": prq_answer.matches == prq.sets(),
                }
            )
    finally:
        service.stop()
    return {"all_ok": all(c["ok"] for c in checks), "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-series", type=int, default=100_000)
    parser.add_argument("--length", type=int, default=64)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload for CI smoke runs (no warm-speedup floor)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.n_series, args.length, args.repeats = 2000, 32, 2
    n_pdf = 60

    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        print(
            f"workload: {args.n_series} series x {args.length} timestamps "
            f"(exact, indexed) + {n_pdf} pdf series"
        )
        main_manifest, pdf_manifest = _build_workloads(
            tmp, args.n_series, args.length, n_pdf
        )
        catalog_path = os.path.join(tmp, "catalog.db")
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("main", main_manifest)
            catalog.register("pdf", pdf_manifest)

        cold = _measure_cold(main_manifest, args.k, args.repeats)
        warm = _measure_warm(catalog_path, args.k, args.repeats)
        warm_speedup = cold / warm["first"]
        print(
            f"  cold library start {cold * 1e3:9.1f} ms/query   "
            f"warm daemon first {warm['first'] * 1e3:7.1f} ms   "
            f"steady {warm['steady'] * 1e3:7.1f} ms   "
            f"speedup {warm_speedup:6.1f}x"
        )

        parity = _check_parity(
            catalog_path, main_manifest, pdf_manifest, args.k
        )
        print(f"  parity: {'ok' if parity['all_ok'] else 'FAILED'}")

    results = [
        {
            "technique": "Euclidean",
            "kind": "warm-start",
            "cold_seconds_per_query": cold,
            "warm_first_seconds_per_query": warm["first"],
            "warm_steady_seconds_per_query": warm["steady"],
            "warm_speedup": warm_speedup,
        },
    ]
    payload = {
        "benchmark": "similarity service: warm-start + answer parity",
        "workload": {
            "n_series": args.n_series,
            "length": args.length,
            "k": args.k,
            "n_pdf": n_pdf,
            "seed": SEED,
        },
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "results": results,
        "service": parity,
    }
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"[written to {args.out}]")

    if not parity["all_ok"]:
        print("FAIL: daemon answers differ from the in-process session")
        return 1
    if not args.quick and warm_speedup < WARM_SPEEDUP_FLOOR:
        print(
            f"FAIL: warm first query is only {warm_speedup:.1f}x faster "
            f"than a cold start (floor {WARM_SPEEDUP_FLOOR:.0f}x)"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
