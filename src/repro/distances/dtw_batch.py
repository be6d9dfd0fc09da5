"""Batched banded DTW: anti-diagonal wavefront kernels over candidate stacks.

:func:`repro.distances.dtw.dtw_distance` evaluates one pair with a
Python-level dynamic program — ``O(n·m)`` interpreter iterations per pair,
the last per-pair hot path left after the batch query engine vectorized
every Lp-based technique.  This module removes it by restructuring the DP
around two axes of data parallelism:

* **candidate stacking** — a whole stack of ``B`` candidate alignments
  advances through one shared DP state (three rolling diagonals of a
  contiguous ``(3, n+1, B)`` array in every production kernel; the full
  ``(B, n+1, m+1)`` state of :func:`banded_dtw_from_costs` is the
  reference);
* **anti-diagonal wavefronts** — cells on anti-diagonal ``d = i + j``
  depend only on diagonals ``d-1`` and ``d-2``, so each wavefront is one
  vectorized ``min``/``add`` over every stacked candidate at once.  The
  interpreter loop shrinks from ``B·n·m`` iterations to ``n + m - 1``.

Within a Sakoe–Chiba band only in-band cells are touched: the in-band
rows of every diagonal form one contiguous range, so with the pair axis
innermost each wavefront step reads and writes contiguous slices of
``(rows, B)`` — memory traffic proportional to the band, not to the
series length.  Cell-level arithmetic matches the per-pair program
operation for operation, so distances are bit-identical to
:func:`~repro.distances.dtw.dtw_distance` — not merely close.

:func:`dtw_hits_paired` answers "is ``dtw(x, y) <= ε``?" for stacks of
*paired* rows (MUNICH-DTW's Monte Carlo draws) with the exact DP
verdict.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from .dtw import _band_limits

#: Element budget for one rolling-kernel block (~32 MB of float64),
#: charged per pair by :func:`rolling_stack_blocks`.  Re-swept for the
#: ``(3, n+1, B)`` layout on a 2-vCPU VM: the banded proxy of
#: ``scripts/probe_block_sizes.py`` put ``1 << 20`` 14% ahead
#: (15.3 vs 13.4 GB/s, under its 20% retune bar), and MUNICH-DTW's
#: prob-range ops ran no faster at ``1 << 20``.
DTW_BLOCK_ELEMENTS = 1 << 22

#: Relative slack on bound-based verdicts: a bound only decides a cell when
#: it clears the threshold by more than this margin, so batched float
#: reorderings (GEMM-style sums vs ``np.dot``) cannot flip a decision the
#: exact DP would have made the other way.  MUNICH-DTW's collection-level
#: bound and index stages run with it.
PRUNE_SLACK = 1e-12


def banded_dtw_from_costs(
    costs: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """DTW distances for a stacked ``(B, n, m)`` point-cost tensor.

    ``costs[b, i, j]`` is candidate ``b``'s cost of aligning ``x[i]``
    with ``y_b[j]`` (squared difference for classic DTW, ``dust²`` for
    DUST-DTW).  Returns the ``(B,)`` square-rooted accumulated costs,
    bit-identical to running :func:`~repro.distances.dtw.dtw_distance`
    per pair with the same band.  No production path builds the cost
    tensor any more; this full-state kernel is the reference the
    rolling kernel is tested against.
    """
    costs = np.asarray(costs, dtype=np.float64)
    if costs.ndim != 3:
        raise InvalidParameterError(
            f"costs must be a (B, n, m) tensor, got shape {costs.shape}"
        )
    n_pairs, n, m = costs.shape
    if n == 0 or m == 0:
        raise InvalidParameterError("DTW requires non-empty series")
    if n_pairs == 0:
        return np.empty(0)
    starts, stops = _band_limits(n, m, window)
    accumulated = np.full((n_pairs, n + 1, m + 1), np.inf)
    accumulated[:, 0, 0] = 0.0
    all_rows = np.arange(n + 1)
    for diagonal in range(2, n + m + 1):
        rows = all_rows[max(1, diagonal - m): min(n, diagonal - 1) + 1]
        cols = diagonal - rows
        # Clip the wavefront to the band: exactly the cells the per-pair
        # program visits; everything else stays +inf (unreachable).
        in_band = (cols - 1 >= starts[rows - 1]) & (cols - 1 < stops[rows - 1])
        if not np.all(in_band):
            rows = rows[in_band]
            cols = cols[in_band]
            if rows.size == 0:
                continue
        best = np.minimum(
            accumulated[:, rows - 1, cols - 1],
            np.minimum(
                accumulated[:, rows - 1, cols],
                accumulated[:, rows, cols - 1],
            ),
        )
        accumulated[:, rows, cols] = costs[:, rows - 1, cols - 1] + best
    totals = accumulated[:, n, m]
    if np.any(np.isinf(totals)):
        raise InvalidParameterError(
            f"no warping path exists within window={window} "
            f"for lengths {n} and {m}"
        )
    return np.sqrt(totals)


def rolling_stack_blocks(n_pairs: int, n: int, m: int):
    """Candidate blocks for the rolling kernel.

    The rolling state is ``O(B · n)`` — independent of ``m`` — so the
    budget is charged per pair as three state rows of width ``n + 1``
    plus one per-diagonal cost row (at most ``min(n, m) + 1`` wide),
    not per full ``(n, m)`` cost tensor, so long series still get wide
    blocks.
    """
    per_pair = 3 * (n + 1) + min(n, m) + 1
    block = max(1, DTW_BLOCK_ELEMENTS // per_pair)
    for start in range(0, n_pairs, block):
        yield start, min(start + block, n_pairs)


@lru_cache(maxsize=64)
def _diagonal_rows(
    n: int, m: int, window: Optional[int]
) -> Tuple[List[int], List[int]]:
    """In-band DP rows ``[low[d], high[d]]`` of every anti-diagonal ``d``.

    DP cell ``(i, j)`` (1-based, on diagonal ``d = i + j``) is in band
    when ``starts[i-1] + i + 1 <= d <= stops[i-1] + i``.  Both ends
    strictly increase in ``i``, so each diagonal's in-band rows are one
    contiguous range, found by two ``searchsorted`` calls; ``low > high``
    marks a diagonal with no in-band cell.
    """
    starts, stops = _band_limits(n, m, window)
    rows = np.arange(1, n + 1)
    first = starts + rows + 1
    last = stops + rows
    diagonals = np.arange(n + m + 1)
    low = np.searchsorted(last, diagonals, side="left") + 1
    high = np.searchsorted(first, diagonals, side="right")
    return low.tolist(), high.tolist()


def rolling_dtw_from_cost_fn(
    n_pairs: int,
    n: int,
    m: int,
    cost_fn,
    window: Optional[int] = None,
) -> np.ndarray:
    """Banded DTW with a rolling three-diagonal state.

    A wavefront cell on anti-diagonal ``d`` reads only diagonals
    ``d-1`` and ``d-2``, so the full ``(B, n+1, m+1)`` accumulator of
    :func:`banded_dtw_from_costs` collapses to three diagonals of a
    contiguous ``(3, n+1, B)`` array reused cyclically — ``O(B·n)``
    memory however long the series.  With the pair axis innermost, a
    diagonal's in-band rows ``[a, b]`` (one range, computed once per
    ``(n, m, window)``) are read as the slices ``prev1[a-1:b]``,
    ``prev1[a:b+1]`` and ``prev2[a-1:b]`` and written as
    ``current[a:b+1]``; only rows ``a-1`` and ``b+1`` — the cells the
    next two diagonals read beyond it — are reset to +inf.

    Point costs are produced per diagonal by
    ``cost_fn(rows, cols) -> (len(rows), B)`` (0-based series indices:
    ``rows`` ascends and ``cols`` descends in steps of one), so the
    ``(B, n, m)`` cost tensor is never materialized either.
    Cell arithmetic and min-nesting match the full-state kernel
    operation for operation: distances are bit-identical to it (and
    therefore to the per-pair program).
    """
    if n == 0 or m == 0:
        raise InvalidParameterError("DTW requires non-empty series")
    if n_pairs == 0:
        return np.empty(0)
    lows, highs = _diagonal_rows(n, m, window)
    # Only the cells the first wavefronts read need a value: the (0, 0)
    # origin and diagonal 1's rows 0 and 1 (no in-band cell).  Every
    # later read lands on a row the diagonal wrote or reset.
    state = np.empty((3, n + 1, n_pairs))
    state[0, 0] = 0.0
    state[1, :2] = np.inf
    all_rows = np.arange(n + 1)
    for diagonal in range(2, n + m + 1):
        current = state[diagonal % 3]
        low, high = lows[diagonal], highs[diagonal]
        if low > high:
            current.fill(np.inf)
            continue
        prev1 = state[(diagonal - 1) % 3]
        prev2 = state[(diagonal - 2) % 3]
        best = current[low:high + 1]
        np.minimum(prev1[low - 1:high], prev1[low:high + 1], out=best)
        np.minimum(prev2[low - 1:high], best, out=best)
        rows = all_rows[low - 1:high]
        np.add(cost_fn(rows, diagonal - 2 - rows), best, out=best)
        current[low - 1] = np.inf
        if high < n:
            current[high + 1] = np.inf
    totals = state[(n + m) % 3, n]
    if np.any(np.isinf(totals)):
        raise InvalidParameterError(
            f"no warping path exists within window={window} "
            f"for lengths {n} and {m}"
        )
    return np.sqrt(totals)


def diagonal_slices(rows: np.ndarray, cols: np.ndarray) -> Tuple[slice, slice]:
    """Slices for one wavefront's ``(rows, cols)`` index runs.

    Returns ``(row_slice, col_slice)``: for the runs a wavefront passes
    (``rows`` ascending, ``cols`` descending), ``values[row_slice]`` and
    ``values[col_slice]`` equal ``values[rows]`` and ``values[cols]`` as
    views, without the gather copy — what a ``cost_fn`` over ``(n, B)``
    stacks reads.
    """
    low, high = cols[-1], cols[0]
    return (
        slice(rows[0], rows[-1] + 1),
        slice(high, low - 1 if low > 0 else None, -1),
    )


def _squared_residual_fn(x_rows: np.ndarray, y_rows: np.ndarray):
    """``cost_fn`` of squared differences over ``(n, B)`` / ``(m, B)``
    transposed stacks (the pair axis innermost, like the state)."""

    def cost_fn(rows, cols):
        row_slice, col_slice = diagonal_slices(rows, cols)
        residual = x_rows[row_slice] - y_rows[col_slice]
        return np.multiply(residual, residual, out=residual)

    return cost_fn


def rolling_dtw_paired(
    x_stack: np.ndarray, y_stack: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """Row-wise DTW of two aligned stacks via the rolling-diagonal state.

    What :func:`dtw_distance_paired` runs on: each block of pairs is
    transposed once so the cost rows come out in the state's
    ``(rows, B)`` layout — a no-op for a single-block stack handed over
    as the transposed view of an ``(n, B)`` array, which is how
    MUNICH-DTW passes its draws.  Peak memory is ``O(B·n)`` instead of
    ``O(B·n·m)``, results are bit-identical to the full-state wavefront.
    """
    x_stack = np.atleast_2d(np.asarray(x_stack, dtype=np.float64))
    y_stack = np.atleast_2d(np.asarray(y_stack, dtype=np.float64))
    if x_stack.shape[0] != y_stack.shape[0]:
        raise InvalidParameterError(
            f"stacks must pair up: {x_stack.shape[0]} != {y_stack.shape[0]}"
        )
    n_pairs, n = x_stack.shape
    m = y_stack.shape[1]
    out = np.empty(n_pairs)
    for start, stop in rolling_stack_blocks(n_pairs, n, m):
        cost_fn = _squared_residual_fn(
            np.ascontiguousarray(x_stack[start:stop].T),
            np.ascontiguousarray(y_stack[start:stop].T),
        )
        out[start:stop] = rolling_dtw_from_cost_fn(
            stop - start, n, m, cost_fn, window
        )
    return out


def rolling_dtw_stack(
    x: np.ndarray, candidates: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """One query against a candidate stack via the rolling-diagonal state."""
    x = np.asarray(x, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if x.ndim != 1:
        raise InvalidParameterError(
            f"query must be one-dimensional, got shape {x.shape}"
        )
    n_pairs, m = candidates.shape
    n = x.size
    query_rows = x[:, None]
    out = np.empty(n_pairs)
    for start, stop in rolling_stack_blocks(n_pairs, n, m):
        cost_fn = _squared_residual_fn(
            query_rows, np.ascontiguousarray(candidates[start:stop].T)
        )
        out[start:stop] = rolling_dtw_from_cost_fn(
            stop - start, n, m, cost_fn, window
        )
    return out


def dtw_distance_stack(
    x: np.ndarray, candidates: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """Banded DTW from one query to every row of a ``(B, m)`` stack.

    The batch counterpart of :func:`~repro.distances.dtw.dtw_distance`
    with the default squared-difference point cost.  Runs on the
    rolling three-diagonal state (:func:`rolling_dtw_stack`), which is
    bit-identical to the full-state wavefront, ``O(B·n)`` in memory,
    and measured faster at every stack shape — the full
    ``(B, n+1, m+1)`` accumulator survives only as the cost-tensor
    reference (:func:`banded_dtw_from_costs`).
    """
    return rolling_dtw_stack(x, candidates, window=window)


def dtw_distance_matrix(
    queries: np.ndarray, candidates: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """All-pairs banded DTW between two series stacks: ``(M, N)``.

    Row ``i`` is :func:`dtw_distance_stack` of query ``i`` — every row is
    fully vectorized over the candidate axis, which is what replaces the
    per-pair double loops in the DTW ground-truth constructions.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if queries.shape[0] == 0:
        return np.empty((0, candidates.shape[0]))
    return np.vstack([
        dtw_distance_stack(query, candidates, window=window)
        for query in queries
    ])


def dtw_distance_paired(
    x_stack: np.ndarray, y_stack: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """Row-wise DTW between two aligned stacks: ``dtw(x_stack[s], y_stack[s])``.

    The sample-axis kernel of MUNICH-DTW: each Monte Carlo draw is one
    ``(x, y)`` materialization pair, and the whole draw stack advances
    through the DP together — on the rolling three-diagonal state
    (:func:`rolling_dtw_paired`), bit-identical to the full-state
    wavefront and measured faster at every stack shape.
    """
    return rolling_dtw_paired(x_stack, y_stack, window=window)


# ---------------------------------------------------------------------------
# Envelopes and verdicts
# ---------------------------------------------------------------------------


def keogh_envelope_stack(
    values: np.ndarray, window: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise LB_Keogh envelopes of a ``(N, m)`` stack.

    Vectorized rolling min/max over the band half-width: ±inf padding
    reproduces :func:`~repro.distances.dtw.keogh_envelope`'s shrinking
    edge windows exactly.  Returns ``(lower, upper)``, each ``(N, m)``.
    """
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if window < 0:
        raise InvalidParameterError(f"window must be >= 0, got {window}")
    n_series, m = values.shape
    width = min(window, m)
    padded_max = np.pad(
        values, ((0, 0), (width, width)), constant_values=-np.inf
    )
    padded_min = np.pad(
        values, ((0, 0), (width, width)), constant_values=np.inf
    )
    sliding = np.lib.stride_tricks.sliding_window_view(
        padded_max, 2 * width + 1, axis=1
    )
    upper = sliding.max(axis=2)
    sliding = np.lib.stride_tricks.sliding_window_view(
        padded_min, 2 * width + 1, axis=1
    )
    lower = sliding.min(axis=2)
    return lower, upper


def dtw_hits_paired(
    x_stack: np.ndarray,
    y_stack: np.ndarray,
    epsilon: float,
    window: Optional[int] = None,
) -> np.ndarray:
    """``dtw(x_stack[s], y_stack[s], window) <= epsilon`` per row.

    The exact DP verdict of :func:`dtw_distance_paired`, hence
    bit-identical to the per-pair program.  No per-row bound runs
    first: MUNICH-DTW's draws sit near ε, where LB_Kim, LB_Keogh and
    the diagonal-path bound settle under a tenth of the rows and cost
    more than the wavefront they would skip.

    ``epsilon`` is a scalar, or an ``(n_pairs,)`` vector with one
    threshold per row — how the planner's refine stage pushes cells of
    *different* queries (each with its own calibrated ε) through a
    single stacked call.  Per-row verdicts are independent either way.
    """
    x_stack = np.atleast_2d(np.asarray(x_stack, dtype=np.float64))
    y_stack = np.atleast_2d(np.asarray(y_stack, dtype=np.float64))
    n_pairs = x_stack.shape[0]
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim not in (0, 1) or (eps.ndim == 1 and eps.shape != (n_pairs,)):
        raise InvalidParameterError(
            f"epsilon must be a scalar or one threshold per row, got "
            f"shape {eps.shape} for {n_pairs} rows"
        )
    if np.any(eps < 0.0):
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    return dtw_distance_paired(x_stack, y_stack, window=window) <= eps
