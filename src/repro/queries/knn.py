"""k-nearest-neighbor queries.

The top-k ranking helpers behind two uses: DUST-style top-k search
(Section 3.3 — "DUST being a distance measure, it can be used to answer
top-k nearest neighbor queries"), which the session's ``knn`` verb ranks
with :func:`knn_table` / :func:`sparse_knn_table`, and the evaluation
protocol's ground-truth construction (the 10 nearest neighbors under
exact Euclidean define the true answer set).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..core.errors import InvalidParameterError
from ..distances.lp import euclidean_matrix


def knn_indices(
    distances: np.ndarray, k: int, exclude: Optional[int] = None
) -> List[int]:
    """Indices of the ``k`` smallest entries of a distance vector.

    Ties are broken by candidate index (stable argsort), making ground
    truth deterministic and rankings reproducible across the profile and
    matrix query paths.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    distances = np.asarray(distances, dtype=np.float64)
    order = np.argsort(distances, kind="stable")
    result = []
    for index in order:
        if exclude is not None and index == exclude:
            continue
        result.append(int(index))
        if len(result) == k:
            break
    return result


def knn_table(
    matrix: np.ndarray, k: int, exclude: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise top-k of an ``(M, N)`` score matrix, shape ``(M, k)``.

    Every row goes through :func:`knn_indices`, so matrix-path rankings
    agree bit-for-bit with profile-path rankings (same stable
    break-ties-by-index rule).  ``exclude`` optionally gives one index to
    skip per row (``-1`` for none) — the self-match column of all-pairs
    matrices.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n_queries, n_candidates = matrix.shape
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.intp)
        if exclude.shape != (n_queries,):
            raise InvalidParameterError(
                f"exclude must hold one index per query row, got shape "
                f"{exclude.shape} for {n_queries} rows"
            )
    excluding = exclude is not None and bool(np.any(exclude >= 0))
    if k > n_candidates - (1 if excluding else 0):
        raise InvalidParameterError(
            f"k={k} must be at most the number of eligible candidates "
            f"({n_candidates - (1 if excluding else 0)})"
        )
    table = np.empty((n_queries, k), dtype=np.intp)
    for row in range(n_queries):
        skipped = None
        if exclude is not None and exclude[row] >= 0:
            skipped = int(exclude[row])
        table[row] = knn_indices(matrix[row], k, exclude=skipped)
    return table


def sparse_knn_table(
    matrix: np.ndarray, k: int, exclude: Optional[np.ndarray] = None
) -> tuple:
    """Row-wise top-k of a score matrix whose pruned cells are ``+inf``.

    The summarization index records certain non-candidates as ``+inf``;
    ranking only each row's *finite* cells keeps the sort cost
    proportional to the kept candidate set instead of ``N``, while
    returning exactly :func:`knn_table`'s rankings
    (``np.flatnonzero`` walks columns in ascending order, so the stable
    break-ties-by-index rule is preserved).  Returns ``(indices,
    scores)``.  Rows must keep at least ``k`` eligible finite cells —
    the index stage's pruning-threshold guarantee.
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    n_queries, n_candidates = matrix.shape
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.intp)
        if exclude.shape != (n_queries,):
            raise InvalidParameterError(
                f"exclude must hold one index per query row, got shape "
                f"{exclude.shape} for {n_queries} rows"
            )
    excluding = exclude is not None and bool(np.any(exclude >= 0))
    if k > n_candidates - (1 if excluding else 0):
        raise InvalidParameterError(
            f"k={k} must be at most the number of eligible candidates "
            f"({n_candidates - (1 if excluding else 0)})"
        )
    indices = np.empty((n_queries, k), dtype=np.intp)
    scores = np.empty((n_queries, k))
    for row in range(n_queries):
        row_values = matrix[row]
        skipped = None
        if exclude is not None and exclude[row] >= 0:
            skipped = int(exclude[row])
        finite = np.flatnonzero(np.isfinite(row_values))
        if finite.size == n_candidates:
            chosen = knn_indices(row_values, k, exclude=skipped)
        else:
            local_skip = None
            if skipped is not None:
                hit = int(np.searchsorted(finite, skipped))
                if hit < finite.size and finite[hit] == skipped:
                    local_skip = hit
            eligible = finite.size - (1 if local_skip is not None else 0)
            if eligible < k:
                raise InvalidParameterError(
                    f"k={k} exceeds the {eligible} finite candidates of "
                    f"row {row}; sparse top-k requires an admissibly "
                    f"pruned matrix"
                )
            local = knn_indices(row_values[finite], k, exclude=local_skip)
            chosen = [int(finite[i]) for i in local]
        indices[row] = chosen
        scores[row] = row_values[indices[row]]
    return indices, scores


def euclidean_knn_table(values: np.ndarray, k: int) -> np.ndarray:
    """All-queries ground-truth table: for each row of ``values``, the ``k``
    nearest *other* rows under Euclidean distance, shape ``(N, k)``.

    This is the harness' bulk path for ground-truth construction; self-
    matches are excluded.  One vectorized stable argsort over the whole
    matrix — the diagonal is pushed past every finite distance, which
    yields exactly :func:`knn_table`'s break-ties-by-index rankings
    without its per-row loop.
    """
    matrix = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n = matrix.shape[0]
    if k >= n:
        raise InvalidParameterError(
            f"k={k} must be smaller than the collection size {n}"
        )
    pairwise = euclidean_matrix(matrix, matrix)
    np.fill_diagonal(pairwise, np.inf)
    order = np.argsort(pairwise, axis=1, kind="stable")
    return order[:, :k]
