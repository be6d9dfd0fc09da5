"""PAA summarization of series collections, with admissible bounds.

Piecewise Aggregate Approximation (PAA) compresses a length-``n`` series
into ``S`` per-segment means.  Because averaging each segment is an
*orthogonal projection* onto the space of piecewise-constant functions,
the projection is a contraction in L2 and the classic iSAX-family lower
bound holds with no extra terms::

    ||q - c||_2  >=  sqrt( sum_s  w_s * (mean_s(q) - mean_s(c))^2 )

where ``w_s`` is the number of points in segment ``s``.  The same
segment-mean geometry yields an admissible bound for *uncertain* series:
summarizing the per-point bounding interval ``[low, high]`` gives a
per-segment interval whose gap to the query's interval lower-bounds the
Euclidean distance of **every** materialization pair (and, applied to
Keogh envelopes, lower-bounds the banded DTW — see
:func:`interval_lower_bound`).

An upper bound comes from the triangle inequality through the PAA
reconstructions ``q_hat`` / ``c_hat``::

    ||q - c||  <=  ||q_hat - c_hat|| + ||q - q_hat|| + ||c - c_hat||

so storing one *residual norm* per series alongside its segment means is
enough to bracket every pairwise distance from the summary table alone.
The summaries here back :class:`~repro.queries.index.IndexStage` — the
planner's first stage — and are persisted next to the mmap manifest by
:func:`~repro.core.mmapio.build_index`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

#: Default number of PAA segments techniques index with.  Eight segments
#: keep the summary table ``n/8``-fold smaller than the raw values while
#: leaving the lower bound tight enough to prune most candidates on
#: smooth series; techniques may override per instance.
DEFAULT_SEGMENTS = 8

#: Entries of a GEMM-identity squared matrix below this fraction of the
#: norm scale are recomputed exactly: the ``||r||² + ||c||² − 2 r·c``
#: expansion cancels catastrophically for near-duplicate pairs, and the
#: final square root amplifies that absolute error.  Shared with
#: :func:`repro.distances.lp.squared_euclidean_matrix`.
GEMM_REFINE_THRESHOLD = 1e-8


def effective_segments(n_segments: int, length: int) -> int:
    """Clamp a requested segment count to the series length."""
    if n_segments < 1:
        raise InvalidParameterError(
            f"n_segments must be >= 1, got {n_segments}"
        )
    if length < 1:
        raise InvalidParameterError(f"length must be >= 1, got {length}")
    return min(n_segments, length)


def segment_edges(length: int, n_segments: int) -> np.ndarray:
    """Segment boundary offsets, shape ``(S + 1,)``.

    Follows :func:`numpy.array_split` geometry: when ``length`` is not a
    multiple of ``S`` the first ``length % S`` segments are one point
    longer, so every point belongs to exactly one segment.
    """
    n_segments = effective_segments(n_segments, length)
    base, extra = divmod(length, n_segments)
    lengths = np.full(n_segments, base, dtype=np.intp)
    lengths[:extra] += 1
    edges = np.zeros(n_segments + 1, dtype=np.intp)
    np.cumsum(lengths, out=edges[1:])
    return edges


def segment_widths(length: int, n_segments: int) -> np.ndarray:
    """Points per segment as float64, shape ``(S,)``."""
    edges = segment_edges(length, n_segments)
    return np.diff(edges).astype(np.float64)


def segment_means(matrix: np.ndarray, n_segments: int) -> np.ndarray:
    """Row-wise PAA: per-segment means of an ``(N, n)`` stack, ``(N, S)``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    edges = segment_edges(matrix.shape[1], n_segments)
    sums = np.add.reduceat(matrix, edges[:-1], axis=1)
    return sums / np.diff(edges).astype(np.float64)


def reconstruct(means: np.ndarray, length: int) -> np.ndarray:
    """Expand ``(N, S)`` segment means back to ``(N, length)`` steps."""
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    edges = segment_edges(length, means.shape[1])
    return np.repeat(means, np.diff(edges), axis=1)


def residual_norms(
    matrix: np.ndarray, n_segments: int, means: np.ndarray = None
) -> np.ndarray:
    """Per-row L2 norm of the PAA reconstruction error, shape ``(N,)``.

    Computed from the explicit reconstruction difference rather than the
    ``sum(x^2) - sum(w * mean^2)`` identity: the subtractive form loses
    precision exactly when residuals are small, and an *under*-estimated
    residual would break the upper bound's admissibility.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if means is None:
        means = segment_means(matrix, n_segments)
    expanded = reconstruct(means, matrix.shape[1])
    return np.linalg.norm(matrix - expanded, axis=1)


@dataclass(frozen=True)
class PointSummary:
    """PAA summary of an exact (point-estimate) series stack.

    ``means`` is ``(N, S)``, ``residuals`` the ``(N,)`` reconstruction
    error norms, ``widths`` the ``(S,)`` per-segment point counts.
    """

    means: np.ndarray
    residuals: np.ndarray
    widths: np.ndarray
    length: int

    @property
    def n_segments(self) -> int:
        return self.means.shape[1]

    def weighted_norms(self) -> np.ndarray:
        """``(N,)`` width-weighted squared norms of the mean rows.

        Query-independent, so cached on the summary (and adoptable from
        a persisted index table): repeated lower-bound matrices against
        a million-row summary skip the O(N*S) reduction.
        """
        cached = getattr(self, "_norms_cache", None)
        if cached is None:
            cached = np.einsum(
                "js,s,js->j", self.means, self.widths, self.means
            )
            object.__setattr__(self, "_norms_cache", cached)
        return cached


@dataclass(frozen=True)
class IntervalSummary:
    """PAA summary of per-point bounding intervals (``low <= x <= high``).

    ``low_means``/``high_means`` are each ``(N, S)``; segment-averaging
    preserves containment, so any materialization's segment mean lies in
    ``[low_means, high_means]``.
    """

    low_means: np.ndarray
    high_means: np.ndarray
    widths: np.ndarray
    length: int

    @property
    def n_segments(self) -> int:
        return self.low_means.shape[1]


def summarize_values(matrix: np.ndarray, n_segments: int) -> PointSummary:
    """Build a :class:`PointSummary` from an ``(N, n)`` value stack."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    length = matrix.shape[1]
    n_segments = effective_segments(n_segments, length)
    means = segment_means(matrix, n_segments)
    return PointSummary(
        means=means,
        residuals=residual_norms(matrix, n_segments, means=means),
        widths=segment_widths(length, n_segments),
        length=length,
    )


def summarize_intervals(
    low: np.ndarray, high: np.ndarray, n_segments: int
) -> IntervalSummary:
    """Build an :class:`IntervalSummary` from ``(N, n)`` bound stacks."""
    low = np.atleast_2d(np.asarray(low, dtype=np.float64))
    high = np.atleast_2d(np.asarray(high, dtype=np.float64))
    if low.shape != high.shape:
        raise InvalidParameterError(
            f"bound stacks must share a shape, got {low.shape} vs "
            f"{high.shape}"
        )
    length = low.shape[1]
    n_segments = effective_segments(n_segments, length)
    return IntervalSummary(
        low_means=segment_means(low, n_segments),
        high_means=segment_means(high, n_segments),
        widths=segment_widths(length, n_segments),
        length=length,
    )


def _check_compatible(queries, candidates) -> None:
    if (
        queries.length != candidates.length
        or queries.n_segments != candidates.n_segments
    ):
        raise InvalidParameterError(
            f"summaries disagree on geometry: "
            f"({queries.length}, {queries.n_segments}) vs "
            f"({candidates.length}, {candidates.n_segments})"
        )


def paa_lower_bound(
    queries: PointSummary, candidates: PointSummary
) -> np.ndarray:
    """Admissible pairwise lower bounds, shape ``(M, N)``.

    ``sqrt(sum_s w_s * diff_s^2)`` is the Euclidean distance between the
    width-scaled mean vectors, so the whole matrix reduces to one GEMM
    through :func:`~repro.distances.lp.euclidean_matrix`.
    """
    _check_compatible(queries, candidates)
    widths = queries.widths
    q = queries.means
    c = candidates.means
    # Weighted norm expansion: only the (M, S) query side is scaled, so
    # a million-row candidate table is read in place (one GEMM, one
    # O(N*S) einsum) instead of copied.
    q_norms = queries.weighted_norms()
    c_norms = candidates.weighted_norms()
    scale = q_norms[:, None] + c_norms[None, :]
    squared = scale - 2.0 * (q * widths) @ c.T
    np.maximum(squared, 0.0, out=squared)
    # Near-duplicate pairs cancel catastrophically in the expansion; an
    # overestimated bound would break admissibility, so recompute them
    # with the exact difference formula (mirrors euclidean_matrix).
    suspects = np.argwhere(squared <= GEMM_REFINE_THRESHOLD * scale)
    for start in range(0, len(suspects), 1 << 16):
        block = suspects[start:start + (1 << 16)]
        diff = q[block[:, 0]] - c[block[:, 1]]
        squared[block[:, 0], block[:, 1]] = np.einsum(
            "is,s,is->i", diff, widths, diff
        )
    return np.sqrt(squared, out=squared)


def paa_upper_bound(
    lower: np.ndarray, queries: PointSummary, candidates: PointSummary
) -> np.ndarray:
    """Triangle-inequality upper bounds matching ``paa_lower_bound``.

    ``lower`` is exactly ``||q_hat - c_hat||``, so adding both
    reconstruction residual norms brackets the true distance.
    """
    return (
        lower
        + queries.residuals[:, None]
        + candidates.residuals[None, :]
    )


def interval_lower_bound(
    queries: IntervalSummary, candidates: IntervalSummary
) -> np.ndarray:
    """Lower bound on the distance between *any* materialization pair.

    For each segment the gap between the two mean-intervals,
    ``gap_s = max(q_low_s - c_high_s, c_low_s - q_high_s, 0)``, bounds
    ``|mean_s(q*) - mean_s(c*)|`` from below for every materialization
    ``q*``/``c*`` inside the point intervals, so
    ``sqrt(sum_s w_s gap_s^2)`` is an admissible PAA bound on their
    Euclidean distance.

    Applied with ``candidates`` built from Keogh *envelopes* (per-point
    ``[env_low, env_high]`` under a Sakoe-Chiba band), the same formula
    coarsens LB_Keogh segment-by-segment: the per-point envelope
    overshoot averaged over a segment dominates the mean-interval gap,
    and Cauchy-Schwarz gives ``sqrt(w_s) * mean <= ||overshoot_s||_2``,
    so the result also lower-bounds the *banded DTW* of every
    materialization pair.
    """
    _check_compatible(queries, candidates)
    n_queries = queries.low_means.shape[0]
    n_candidates = candidates.low_means.shape[0]
    out = np.empty((n_queries, n_candidates))
    widths = queries.widths
    for row in range(n_queries):
        gap = np.maximum(
            queries.low_means[row] - candidates.high_means,
            candidates.low_means - queries.high_means[row],
        )
        np.maximum(gap, 0.0, out=gap)
        out[row] = np.sqrt(np.square(gap) @ widths)
    return out
