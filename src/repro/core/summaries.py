"""PAA summarization of series collections, with admissible lower bounds.

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

The bounds are one-sided: a range query prunes cells whose bound
exceeds ε, and a top-k query prunes against the ``k``-th exact score of
a small pilot (multi-step kNN, see :mod:`repro.queries.index`).
:func:`paa_bound_slack` is the float guard both comparisons need when a
computed bound meets a computed distance.  The summaries here back
:class:`~repro.queries.index.IndexStage` — the planner's first stage —
and are persisted next to the mmap manifest by
:func:`~repro.core.mmapio.build_index`.
"""

from __future__ import annotations

import functools
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


# The geometry helpers below are cached per ``(length, S)``: a single-row
# plan would otherwise rebuild them on every request.  Cached arrays are
# read-only, so no caller can change another's geometry.


@functools.lru_cache(maxsize=256)
def segment_edges(length: int, n_segments: int) -> np.ndarray:
    """Segment boundary offsets, shape ``(S + 1,)``, read-only.

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
    edges.setflags(write=False)
    return edges


@functools.lru_cache(maxsize=256)
def segment_widths(length: int, n_segments: int) -> np.ndarray:
    """Points per segment as float64, shape ``(S,)``, read-only."""
    widths = np.diff(segment_edges(length, n_segments)).astype(np.float64)
    widths.setflags(write=False)
    return widths


def segment_means(matrix: np.ndarray, n_segments: int) -> np.ndarray:
    """Row-wise PAA: per-segment means of an ``(N, n)`` stack, ``(N, S)``."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    edges = segment_edges(matrix.shape[1], n_segments)
    sums = np.add.reduceat(matrix, edges[:-1], axis=1)
    return sums / segment_widths(matrix.shape[1], n_segments)


@dataclass(frozen=True)
class PointSummary:
    """PAA summary of an exact (point-estimate) series stack.

    ``means`` is ``(N, S)``, ``widths`` the ``(S,)`` per-segment point
    counts.
    """

    means: np.ndarray
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
    # O(N*S) einsum) instead of copied.  The -2 rides on that side too:
    # scaling by a power of two is exact, so the sum rounds exactly as
    # ``scale - 2 q·c`` would, and the passes after the GEMM update its
    # result in place.
    squared = (q * (-2.0 * widths)) @ c.T
    scale = queries.weighted_norms()[:, None] + candidates.weighted_norms()
    squared += scale
    np.maximum(squared, 0.0, out=squared)
    # Near-duplicate pairs cancel catastrophically in the expansion; an
    # overestimated bound would break admissibility, so recompute them
    # with the exact difference formula (mirrors euclidean_matrix).
    scale *= GEMM_REFINE_THRESHOLD
    near = squared <= scale
    suspects = np.argwhere(near) if near.any() else ()
    for start in range(0, len(suspects), 1 << 16):
        block = suspects[start:start + (1 << 16)]
        diff = q[block[:, 0]] - c[block[:, 1]]
        squared[block[:, 0], block[:, 1]] = np.einsum(
            "is,s,is->i", diff, widths, diff
        )
    return np.sqrt(squared, out=squared)


@functools.lru_cache(maxsize=256)
def paa_bound_slack(length: int, n_segments: int) -> float:
    """Relative guard that keeps a computed :func:`paa_lower_bound`
    admissible against a computed Euclidean distance.

    A cell may be pruned only when its bound exceeds a threshold times
    ``1 + slack``.  Without the guard the rule fails exactly where the
    bound is tightest: with ``S = n`` segments the bound *equals* the
    distance, and the two kernels round differently (on 64,000 cells of
    length-64 random walks the computed bound exceeded the computed
    distance in 13,958, by up to 8.2e-15 relative).

    Derivation, with ``u = 2⁻⁵³`` and ``T = GEMM_REFINE_THRESHOLD``.
    Both kernels are norm expansions ``s = ‖a‖² + ‖b‖² − 2a·b`` over
    ``m`` terms.  Each dot product is within ``γ_m ≈ m·u`` of its
    absolute sum, and Cauchy–Schwarz bounds ``|a·b|`` by half the
    scale ``‖a‖² + ‖b‖²``; with the add and subtract, the computed
    ``s`` is off by at most ``(2m + 4)u`` of the scale for the distance
    (``m = n``) and ``(2S + 6)u`` for the width-weighted bound (two
    more roundings per term).  An entry the expansion keeps exceeds
    ``T`` of its scale (smaller ones are recomputed from exact
    differences, to ``(m + 2)u`` relative), so both squares are within
    ``(2m + c)u / T`` relative, and the square roots halve that.  The
    segment means themselves round by ``(w + 1)u`` of the series' norm
    (``w`` the widest segment), which is ``(w + 1)u·√(2/T)`` relative to
    any distance the expansion keeps.  The first-order sum is doubled to
    cover the products of these terms and the guard's own two roundings.
    For ``n = 64, S = 8`` the slack is 1.7e-6, far below the gap
    between a pruned bound and the threshold it is compared with.

    Not covered: a pair closer than ~1e-9 of its norm that is not an
    exact duplicate, where the means' rounding is no longer relative to
    the distance.  Exact duplicates have equal means and a zero bound.
    """
    n_segments = effective_segments(n_segments, length)
    unit = np.finfo(np.float64).eps / 2.0
    threshold = GEMM_REFINE_THRESHOLD
    widest = -(-length // n_segments)
    first_order = (
        ((2 * length + 4) + (2 * n_segments + 6)) * unit / (2.0 * threshold)
        + (widest + 1) * unit * np.sqrt(2.0 / threshold)
        + 3.0 * unit
    )
    return float(2.0 * first_order)


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
