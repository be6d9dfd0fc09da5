"""Batched banded DTW: anti-diagonal wavefront kernels over candidate stacks.

:func:`repro.distances.dtw.dtw_distance` evaluates one pair with a
Python-level dynamic program — ``O(n·m)`` interpreter iterations per pair,
the last per-pair hot path left after the batch query engine vectorized
every Lp-based technique.  This module removes it by restructuring the DP
around two axes of data parallelism:

* **candidate stacking** — a whole stack of ``B`` candidate alignments
  advances through one shared DP state (three rolling ``(B, n+1)``
  diagonals in every production kernel; the full ``(B, n+1, m+1)``
  state of :func:`banded_dtw_from_costs` is the reference);
* **anti-diagonal wavefronts** — cells on anti-diagonal ``d = i + j``
  depend only on diagonals ``d-1`` and ``d-2``, so each wavefront is one
  vectorized ``min``/``add`` over every stacked candidate at once.  The
  interpreter loop shrinks from ``B·n·m`` iterations to ``n + m - 1``.

Within a Sakoe–Chiba band only in-band cells are touched (the wavefront is
clipped to the band per diagonal), and cell-level arithmetic matches the
per-pair program operation for operation, so distances are bit-identical
to :func:`~repro.distances.dtw.dtw_distance` — not merely close.

The pruning cascade (:func:`dtw_hits_paired`) answers the cheaper
question "is ``dtw(x, y) <= ε``?" for stacks of *paired* rows: LB_Kim,
then an LB_Keogh envelope bound, then the diagonal-path upper bound
decide most rows without touching the DP; only the undecided middle pays
the exact wavefront kernel.  Bound verdicts are guarded by a relative
slack so a float reordering can never flip a verdict away from the exact
per-pair decision — which is what lets MUNICH-DTW's Monte Carlo
evaluation prune aggressively while staying bit-compatible.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from .dtw import _band_limits

#: Element budget for one rolling-kernel block (~32 MB of float64),
#: charged per pair by :func:`rolling_stack_blocks`.  The wavefront's
#: per-diagonal NumPy dispatch dominates the kernel, so wider blocks
#: win even past L3: a measured sweep of the real kernels
#: (scripts/probe_block_sizes.py machine) put ``1 << 22`` 17% ahead of
#: ``1 << 20`` on long series (n=1024: 600 ms vs 722 ms) and 2% ahead
#: on short series (n=96).
DTW_BLOCK_ELEMENTS = 1 << 22

#: Relative slack on bound-based verdicts: a bound only decides a row when
#: it clears the threshold by more than this margin, so batched float
#: reorderings (GEMM-style sums vs ``np.dot``) cannot flip a decision the
#: exact DP would have made the other way.
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
    :func:`banded_dtw_from_costs` collapses to three ``(B, n+1)`` rows
    reused cyclically — ``O(B·n)`` memory however long the series.
    Point costs are produced per diagonal by
    ``cost_fn(rows, cols) -> (B, len(rows))`` (0-based series indices),
    so the ``(B, n, m)`` cost tensor is never materialized either.
    Cell arithmetic and min-nesting match the full-state kernel
    operation for operation: distances are bit-identical to it (and
    therefore to the per-pair program).
    """
    if n == 0 or m == 0:
        raise InvalidParameterError("DTW requires non-empty series")
    if n_pairs == 0:
        return np.empty(0)
    starts, stops = _band_limits(n, m, window)
    state = np.full((3, n_pairs, n + 1), np.inf)
    state[0, :, 0] = 0.0  # diagonal 0: the (0, 0) origin cell
    all_rows = np.arange(n + 1)
    for diagonal in range(2, n + m + 1):
        prev2 = state[(diagonal - 2) % 3]
        prev1 = state[(diagonal - 1) % 3]
        current = state[diagonal % 3]
        current[:] = np.inf
        rows = all_rows[max(1, diagonal - m): min(n, diagonal - 1) + 1]
        cols = diagonal - rows
        in_band = (cols - 1 >= starts[rows - 1]) & (cols - 1 < stops[rows - 1])
        if not np.all(in_band):
            rows = rows[in_band]
            cols = cols[in_band]
            if rows.size == 0:
                continue
        best = np.minimum(
            prev2[:, rows - 1],
            np.minimum(prev1[:, rows - 1], prev1[:, rows]),
        )
        current[:, rows] = cost_fn(rows - 1, cols - 1) + best
    totals = state[(n + m) % 3][:, n]
    if np.any(np.isinf(totals)):
        raise InvalidParameterError(
            f"no warping path exists within window={window} "
            f"for lengths {n} and {m}"
        )
    return np.sqrt(totals)


def rolling_dtw_paired(
    x_stack: np.ndarray, y_stack: np.ndarray, window: Optional[int] = None
) -> np.ndarray:
    """Row-wise DTW of two aligned stacks via the rolling-diagonal state.

    What :func:`dtw_distance_paired` runs on (unconditionally — the
    rolling state measured faster at every stack shape): peak memory is
    ``O(B·n)`` instead of ``O(B·n·m)``, results are bit-identical to
    the full-state wavefront.
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
        x_block = x_stack[start:stop]
        y_block = y_stack[start:stop]

        def cost_fn(rows, cols, x_block=x_block, y_block=y_block):
            residual = x_block[:, rows] - y_block[:, cols]
            return residual * residual

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
    out = np.empty(n_pairs)
    for start, stop in rolling_stack_blocks(n_pairs, n, m):
        block = candidates[start:stop]

        def cost_fn(rows, cols, block=block):
            residual = x[rows][None, :] - block[:, cols]
            return residual * residual

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
    x = np.asarray(x, dtype=np.float64)
    candidates = np.atleast_2d(np.asarray(candidates, dtype=np.float64))
    if x.ndim != 1:
        raise InvalidParameterError(
            f"query must be one-dimensional, got shape {x.shape}"
        )
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
# Lower/upper bound stacks (the pruning cascade's cheap stages)
# ---------------------------------------------------------------------------


def lb_kim_paired(x_stack: np.ndarray, y_stack: np.ndarray) -> np.ndarray:
    """Row-wise LB_Kim over two aligned stacks (first/last/min/max features)."""
    x_stack = np.atleast_2d(np.asarray(x_stack, dtype=np.float64))
    y_stack = np.atleast_2d(np.asarray(y_stack, dtype=np.float64))
    if x_stack.shape[1] == 0 or y_stack.shape[1] == 0:
        raise InvalidParameterError("LB_Kim requires non-empty series")
    features = np.abs(x_stack[:, 0] - y_stack[:, 0])
    np.maximum(features, np.abs(x_stack[:, -1] - y_stack[:, -1]), out=features)
    np.maximum(
        features,
        np.abs(x_stack.max(axis=1) - y_stack.max(axis=1)),
        out=features,
    )
    np.maximum(
        features,
        np.abs(x_stack.min(axis=1) - y_stack.min(axis=1)),
        out=features,
    )
    return features


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


def lb_keogh_stack(
    x_stack: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> np.ndarray:
    """Row-wise LB_Keogh overshoot of a stack against envelope stacks.

    ``lower`` / ``upper`` broadcast against ``x_stack``: one envelope per
    row, or one shared envelope (e.g. the band-inflated bounding-interval
    envelope of a candidate, valid for *every* materialization of it).
    """
    x_stack = np.atleast_2d(np.asarray(x_stack, dtype=np.float64))
    above = np.maximum(x_stack - upper, 0.0)
    below = np.maximum(lower - x_stack, 0.0)
    overshoot = above + below
    return np.sqrt(np.einsum("ij,ij->i", overshoot, overshoot))


def dtw_hits_paired(
    x_stack: np.ndarray,
    y_stack: np.ndarray,
    epsilon: float,
    window: Optional[int] = None,
    envelope: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """``dtw(x_stack[s], y_stack[s], window) <= epsilon`` per row, pruned.

    The cascade decides rows cheapest-first:

    1. **LB_Kim** — constant-time lower bound; a clear exceedance is a
       certain miss.
    2. **LB_Keogh** (when ``envelope`` is given) — overshoot of each
       ``x`` row against a ``(lower, upper)`` candidate envelope: one
       shared envelope, or stacks with one envelope row per pair (how
       the planner's refine stage batches many candidates' draw stacks
       through a single call).
    3. **Diagonal upper bound** — for equal lengths the band always
       contains the diagonal, so the Euclidean distance bounds DTW from
       above: a clear clearance is a certain hit.
    4. The surviving middle pays the exact wavefront DP, whose verdict is
       bit-identical to the per-pair program.

    Every bound verdict is guarded by :data:`PRUNE_SLACK`, so the result
    equals evaluating the exact DTW on every row.

    ``epsilon`` is a scalar, or an ``(n_pairs,)`` vector with one
    threshold per row — how the planner's refine stage pushes cells of
    *different* queries (each with its own calibrated ε) through a
    single stacked call.  Per-row verdicts are independent either way.
    """
    x_stack = np.atleast_2d(np.asarray(x_stack, dtype=np.float64))
    y_stack = np.atleast_2d(np.asarray(y_stack, dtype=np.float64))
    n_pairs, n = x_stack.shape
    m = y_stack.shape[1]
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim not in (0, 1) or (eps.ndim == 1 and eps.shape != (n_pairs,)):
        raise InvalidParameterError(
            f"epsilon must be a scalar or one threshold per row, got "
            f"shape {eps.shape} for {n_pairs} rows"
        )
    if np.any(eps < 0.0):
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")

    def _per_row(values, rows):
        return values[rows] if values.ndim else values

    hits = np.zeros(n_pairs, dtype=bool)
    guard_hi = eps * (1.0 + PRUNE_SLACK)
    guard_lo = eps * (1.0 - PRUNE_SLACK)

    undecided = lb_kim_paired(x_stack, y_stack) <= guard_hi
    if envelope is not None and np.any(undecided):
        lower, upper = envelope
        lower = np.asarray(lower, dtype=np.float64)
        upper = np.asarray(upper, dtype=np.float64)
        alive = np.flatnonzero(undecided)
        if lower.ndim == 2 and lower.shape[0] == n_pairs:
            # Per-row envelope stacks: keep each alive row paired with
            # its own candidate envelope.
            keogh = lb_keogh_stack(
                x_stack[alive], lower[alive], upper[alive]
            )
        else:
            keogh = lb_keogh_stack(x_stack[alive], lower, upper)
        undecided[alive[keogh > _per_row(guard_hi, alive)]] = False
    if n == m and np.any(undecided):
        alive = np.flatnonzero(undecided)
        residual = x_stack[alive] - y_stack[alive]
        euclid = np.sqrt(np.einsum("ij,ij->i", residual, residual))
        sure = euclid <= _per_row(guard_lo, alive)
        hits[alive[sure]] = True
        undecided[alive[sure]] = False
    if np.any(undecided):
        alive = np.flatnonzero(undecided)
        distances = dtw_distance_paired(
            x_stack[alive], y_stack[alive], window=window
        )
        hits[alive] = distances <= _per_row(eps, alive)
    return hits
