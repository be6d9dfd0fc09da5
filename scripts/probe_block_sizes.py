"""Measure streamed bandwidth against the repo's cache-blocking constants.

The engine's hot loops are tiled by five hand-tuned element budgets:

* ``repro.queries.techniques.MATRIX_BLOCK_ELEMENTS`` — the ``(B, N, n)``
  broadcast blocks of the tensor matrix kernels;
* ``repro.queries.techniques.MC_BATCH_ELEMENTS`` — Monte Carlo
  refinement batches;
* ``repro.distances.dtw_batch.DTW_BLOCK_ELEMENTS`` — rolling DTW
  blocks, charged per pair by ``rolling_stack_blocks``;
* ``repro.munich.batch.BATCH_BLOCK_ELEMENTS`` / ``DP_CHUNK_ELEMENTS`` —
  the MUNICH convolution's difference-tensor blocks and DP state chunks.

This probe times a proxy of each loop across a sweep of block sizes on
the current machine and prints effective GB/s per size, so the committed
constants can be audited against measured bandwidth instead of folklore.
It also measures the raw single-thread stream bandwidth (a triad of one
read and one write per element): the ceiling the end-to-end benchmark's
``plan.<stage>.gbps`` per-layer metrics are read against.

Usage::

    PYTHONPATH=src python scripts/probe_block_sizes.py [--quick]

Pure measurement — nothing in the repo is modified.  Re-run after a
hardware change and commit any constant retune together with the
numbers this prints.
"""

from __future__ import annotations

import argparse
import time

import numpy as np


def _best_of(fn, repeats: int = 3) -> float:
    fn()  # warm-up: faults pages, primes caches
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _report(title: str, current: int, rows) -> None:
    print(f"\n{title} (current constant: 2^{int(np.log2(current))}"
          f" = {current})")
    best = max(rate for _, rate in rows)
    for size, rate in rows:
        marker = " <-- current" if size == current else ""
        flag = " *best*" if rate == best else ""
        print(f"  2^{int(np.log2(size)):2d} = {size:>9d} elements: "
              f"{rate:7.2f} GB/s{flag}{marker}")


def probe_stream(quick: bool) -> None:
    """Raw streamed triad bandwidth — the ceiling for ``plan.*.gbps``."""
    n = 1 << (24 if quick else 26)
    a = np.random.default_rng(0).random(n)
    b = np.empty_like(a)
    seconds = _best_of(lambda: np.multiply(a, 2.0, out=b))
    rate = 2 * 8 * n / seconds / 1e9
    print(f"raw stream (read+write float64): {rate:.2f} GB/s "
          f"(the ceiling for the e2e benchmark's plan.<stage>.gbps)")


def probe_matrix_block(quick: bool) -> None:
    """Tensor matrix-kernel proxy: a dozen elementwise passes per block."""
    from repro.queries.techniques import MATRIX_BLOCK_ELEMENTS

    n, total = 256, 1 << (21 if quick else 23)
    queries = np.random.default_rng(1).random((4, n))
    matrix = np.random.default_rng(2).random((total // (4 * n), n))
    rows = []
    for exponent in (12, 14, 16, 18, 20):
        block_elements = 1 << exponent
        per_query = matrix.shape[0] * n
        block = max(1, block_elements // per_query)

        def run() -> None:
            for start in range(0, queries.shape[0], block):
                stop = min(start + block, queries.shape[0])
                diff = queries[start:stop, None, :] - matrix[None, :, :]
                np.square(diff, out=diff)
                diff.sum(axis=2)

        seconds = _best_of(run)
        streamed = 8 * 3 * queries.shape[0] * matrix.shape[0] * n
        rows.append((block_elements, streamed / seconds / 1e9))
    _report("MATRIX_BLOCK_ELEMENTS proxy", MATRIX_BLOCK_ELEMENTS, rows)


def probe_dtw_block(quick: bool) -> None:
    """Rolling-DTW proxy: banded per-diagonal updates over pair blocks.

    Blocks are sized the way ``rolling_stack_blocks`` charges the
    budget — three ``(n + 1)`` state rows plus one cost row per pair.
    The state is ``(3, n + 1, B)`` with the pair axis innermost, as in
    the rolling kernel: each diagonal reads three contiguous ``(k, B)``
    slices of the two previous diagonals, computes a ``(k, B)`` cost
    slice from the transposed ``(n, B)`` stacks and writes one slice,
    for a band of ``k`` rows sliding down the diagonal.
    """
    from repro.distances.dtw_batch import DTW_BLOCK_ELEMENTS

    n, band = 128, 4
    pairs = 1 << (12 if quick else 14)
    xs = np.random.default_rng(5).random((n, pairs))
    ys = np.random.default_rng(6).random((n, pairs))
    per_pair = 3 * (n + 1) + n + 1
    rows = []
    for exponent in (16, 18, 20, 22):
        block_elements = 1 << exponent
        block = max(1, block_elements // per_pair)

        def run() -> None:
            for start in range(0, pairs, block):
                stop = min(start + block, pairs)
                x = np.ascontiguousarray(xs[:, start:stop])
                y = np.ascontiguousarray(ys[:, start:stop])
                state = np.zeros((3, n + 1, stop - start))
                for diagonal in range(2, 2 * n + 1):
                    low = min(max(1, diagonal // 2 - band // 2), n + 1 - band)
                    high = low + band - 1
                    prev1 = state[(diagonal - 1) % 3]
                    prev2 = state[(diagonal - 2) % 3]
                    best = state[diagonal % 3, low:high + 1]
                    np.minimum(prev1[low - 1:high], prev1[low:high + 1], out=best)
                    np.minimum(prev2[low - 1:high], best, out=best)
                    cost = x[low - 1:high] - y[high - 1::-1][:band]
                    np.multiply(cost, cost, out=cost)
                    np.add(cost, best, out=best)

        seconds = _best_of(run)
        # Per band cell: three state reads, two stack reads, one write.
        streamed = 8 * 6 * pairs * band * (2 * n - 1)
        rows.append((block_elements, streamed / seconds / 1e9))
    _report("DTW_BLOCK_ELEMENTS proxy", DTW_BLOCK_ELEMENTS, rows)


def probe_dp_chunk(quick: bool) -> None:
    """MUNICH DP proxy: row-chunked multiply-add over a (rows, width) state."""
    from repro.munich.batch import DP_CHUNK_ELEMENTS

    width = 64
    n_rows = 1 << (12 if quick else 14)
    state = np.random.default_rng(7).random((n_rows, width))
    kernel = np.random.default_rng(8).random((n_rows, 1))
    rows = []
    for exponent in (12, 14, 15, 17, 19):
        chunk_elements = 1 << exponent
        chunk_rows = max(4, chunk_elements // width)

        def run() -> None:
            for start in range(0, n_rows, chunk_rows):
                stop = min(start + chunk_rows, n_rows)
                for _ in range(8):  # eight convolution offsets
                    state[start:stop] * kernel[start:stop]

        seconds = _best_of(run)
        rows.append(
            (chunk_elements, 8 * 8 * 2 * n_rows * width / seconds / 1e9)
        )
    _report("DP_CHUNK_ELEMENTS proxy", DP_CHUNK_ELEMENTS, rows)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller sweeps (~seconds)"
    )
    args = parser.parse_args()
    print(f"numpy {np.__version__}")
    probe_stream(args.quick)
    probe_matrix_block(args.quick)
    probe_dtw_block(args.quick)
    probe_dp_chunk(args.quick)
    print(
        "\nIf a sweep's best size differs from the committed constant by "
        ">20% bandwidth, retune the constant and commit these numbers "
        "with it."
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
