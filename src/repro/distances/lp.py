"""Lp-norm distances, including the Euclidean baseline.

Euclidean distance on the raw observations is the paper's baseline: "we
just use a single value for every timestamp, and compute the traditional
Euclidean distance based on these values" (Section 4.1.2).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InvalidParameterError
from .base import check_aligned


def lp_distance(x: np.ndarray, y: np.ndarray, p: float = 2.0) -> float:
    """Minkowski ``Lp`` distance between aligned arrays.

    ``p`` may be any value >= 1, or ``inf`` for the Chebyshev distance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_aligned(x, y, "lp_distance")
    if p == np.inf:
        return float(np.max(np.abs(x - y))) if x.size else 0.0
    if p < 1.0:
        raise InvalidParameterError(f"p must be >= 1 or inf, got {p}")
    diff = np.abs(x - y)
    if p == 2.0:
        return float(np.sqrt(np.dot(diff, diff)))
    if p == 1.0:
        return float(diff.sum())
    return float(np.power(np.power(diff, p).sum(), 1.0 / p))


def euclidean(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean (``L2``) distance — the paper's certain-data baseline."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_aligned(x, y, "euclidean")
    diff = x - y
    return float(np.sqrt(np.dot(diff, diff)))


def squared_euclidean(x: np.ndarray, y: np.ndarray) -> float:
    """Squared Euclidean distance (no final square root).

    PROUD's distance distribution (Equation 5) and MUNICH's per-timestamp
    convolution both work in squared space; exposing it avoids needless
    sqrt/square round-trips.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    check_aligned(x, y, "squared_euclidean")
    diff = x - y
    return float(np.dot(diff, diff))


def manhattan(x: np.ndarray, y: np.ndarray) -> float:
    """Manhattan (``L1``) distance."""
    return lp_distance(x, y, p=1.0)


def euclidean_profile(query: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Euclidean distance from ``query`` to every row of ``matrix``.

    The batch counterpart of :func:`euclidean` — one exact row-wise kernel
    (no norm-expansion cancellation), used by the query engine's
    distance-profile paths.
    """
    query = np.asarray(query, dtype=np.float64)
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    if matrix.shape[1] != query.size:
        raise InvalidParameterError(
            f"query length {query.size} != row length {matrix.shape[1]}"
        )
    difference = matrix - query[None, :]
    return np.sqrt(np.einsum("ij,ij->i", difference, difference))


#: Entries of the GEMM-identity squared matrix below this fraction of the
#: norm scale are recomputed exactly: the ``||r||² + ||c||² − 2 r·c``
#: expansion cancels catastrophically for near-duplicate pairs, and the
#: final square root amplifies that absolute error.
GEMM_REFINE_THRESHOLD = 1e-8


def squared_euclidean_matrix(
    rows: np.ndarray, columns: np.ndarray, refine: bool = True
) -> np.ndarray:
    """Pairwise squared Euclidean distances between two series stacks.

    One GEMM via the norm expansion ``||r||² + ||c||² − 2 r·c``, clipped
    against negative rounding noise.  With ``refine`` (the default) the
    few entries small enough for the expansion's cancellation to matter —
    near-duplicate pairs, including every self-pair of an all-pairs
    matrix — are recomputed with the exact difference formula, keeping
    the result within batch-kernel tolerance (1e-9) of the per-pair path
    even after the square root.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    columns = np.atleast_2d(np.asarray(columns, dtype=np.float64))
    if rows.shape[1] != columns.shape[1]:
        raise InvalidParameterError(
            f"row length {rows.shape[1]} != column length {columns.shape[1]}"
        )
    row_norms = np.einsum("ij,ij->i", rows, rows)
    column_norms = np.einsum("ij,ij->i", columns, columns)
    scale = row_norms[:, None] + column_norms[None, :]
    squared = scale - 2.0 * rows @ columns.T
    np.maximum(squared, 0.0, out=squared)
    if refine:
        suspects = np.argwhere(squared <= GEMM_REFINE_THRESHOLD * scale)
        # Batched exact recomputation; chunked so a degenerate input (every
        # pair near-duplicate) gathers bounded (K, n) stacks instead of one
        # huge temporary or a per-entry Python loop.
        for start in range(0, len(suspects), 1 << 16):
            block = suspects[start:start + (1 << 16)]
            diff = rows[block[:, 0]] - columns[block[:, 1]]
            squared[block[:, 0], block[:, 1]] = np.einsum(
                "ij,ij->i", diff, diff
            )
    return squared


def euclidean_matrix(
    rows: np.ndarray, columns: np.ndarray, refine: bool = True
) -> np.ndarray:
    """Vectorized pairwise Euclidean distances between two series stacks.

    The square root of :func:`squared_euclidean_matrix`; used by the
    harness for ground-truth construction and by the batch matrix kernels
    (Euclidean / UMA / UEMA / ε-calibration) for all-pairs queries.
    """
    return np.sqrt(squared_euclidean_matrix(rows, columns, refine=refine))
