"""k-nearest-neighbor queries.

The top-k ranking helpers behind three uses: DUST-style top-k search
(Section 3.3 — "DUST being a distance measure, it can be used to answer
top-k nearest neighbor queries"), which the session's ``knn`` verb ranks
with :func:`local_topk_rows` (a score matrix's ``top_k`` with
:func:`knn_table`, a checked call of it); the evaluation
protocol's ground-truth construction (the 10 nearest neighbors under
exact Euclidean define the true answer set); and the distributed kNN
contract of the service tier — a daemon ranks the column slice it
serves with :func:`local_topk_rows` and the coordinator reassembles the
global ranking with :func:`merge_knn_rows`.  All three break ties by
candidate index, so a sharded ranking equals the single-process one bit
for bit.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..distances.lp import euclidean_matrix


def knn_indices(
    distances: np.ndarray, k: int, exclude: Optional[int] = None
) -> List[int]:
    """Indices of the ``k`` smallest entries of a distance vector.

    Ties are broken by candidate index (stable argsort), making ground
    truth deterministic and rankings reproducible across single-row and
    matrix queries.
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


def check_knn_k(
    k: int, n_candidates: int, exclude: Optional[np.ndarray] = None
) -> None:
    """Reject a ``k`` below 1 or deeper than the workload's eligible
    candidates.

    Every one of ``n_candidates`` columns is eligible unless some query
    row is itself a member (``exclude`` holds a position ``>= 0``): its
    self-match never counts, so ``k`` may be at most ``N - 1``.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    excluding = exclude is not None and bool(np.any(np.asarray(exclude) >= 0))
    eligible = n_candidates - (1 if excluding else 0)
    if k > eligible:
        raise InvalidParameterError(
            f"k={k} must be at most the number of eligible candidates "
            f"({eligible})"
        )


def knn_table(
    matrix: np.ndarray, k: int, exclude: Optional[np.ndarray] = None
) -> np.ndarray:
    """Row-wise top-k of an ``(M, N)`` score matrix, shape ``(M, k)``.

    Ranks through :func:`local_topk_rows`, the one ranking rule, so
    matrix rankings agree bit-for-bit with a kNN execution's (same stable
    break-ties-by-index rule).  ``exclude`` optionally gives one index to
    skip per row (``-1`` for none) — the self-match column of all-pairs
    matrices.  :func:`check_knn_k` leaves every row at least ``k``
    eligible candidates, so no row is padded.
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
    check_knn_k(k, n_candidates, exclude)
    return local_topk_rows(matrix, k, exclude)[0]


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


def local_topk_rows(
    block: np.ndarray,
    k: int,
    local_exclude: Optional[np.ndarray] = None,
    col_offset: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` of a score block whose pruned cells are ``+inf``.

    The one ranking rule of a kNN execution, whole collection or column
    slice (the other half of the distributed contract is
    :func:`merge_knn_rows`).  Returns ``(indices, scores)`` with shapes
    ``(rows, k')`` where ``k' = min(k, width)``; indices are **global**
    column positions (``col_offset`` added), and rows short of ``k'``
    eligible candidates are padded with ``-1`` / ``+inf`` (only
    possible when the block is narrower than ``k`` after excluding a
    self-match).  ``local_exclude`` holds one block-local column to
    skip per row (``-1`` for none).

    The summarization index records certain non-neighbors as ``+inf``,
    so a row is ranked over its cells below ``+inf`` alone whenever at
    least ``k'`` eligible ones remain — the sort then costs the kept
    candidate set, not the block width.  Pruned cells are strictly
    beaten, and ``np.flatnonzero`` keeps column order, so the ranking
    (ties broken by index) equals ranking the whole row; a row with too
    few kept cells is ranked whole.
    """
    block = np.atleast_2d(np.asarray(block, dtype=np.float64))
    n_rows, width = block.shape
    limit = min(k, width)
    indices = np.full((n_rows, limit), -1, dtype=np.intp)
    scores = np.full((n_rows, limit), np.inf)
    for row in range(n_rows):
        values = block[row]
        skipped = None
        if local_exclude is not None and local_exclude[row] >= 0:
            skipped = int(local_exclude[row])
        take = min(limit, width - (1 if skipped is not None else 0))
        if take < 1:
            continue
        kept = np.flatnonzero(values < np.inf)
        kept_skip = None
        if skipped is not None:
            hit = int(np.searchsorted(kept, skipped))
            if hit < kept.size and kept[hit] == skipped:
                kept_skip = hit
        if kept.size < width and kept.size - (kept_skip is not None) >= take:
            chosen = kept[knn_indices(values[kept], take, exclude=kept_skip)]
        else:
            chosen = np.asarray(knn_indices(values, take, exclude=skipped))
        indices[row, :take] = chosen + col_offset
        scores[row, :take] = values[chosen]
    return indices, scores


def merge_knn_rows(
    n_queries: int,
    k: int,
    shards: Sequence[Tuple[int, np.ndarray, np.ndarray]],
) -> Tuple[np.ndarray, np.ndarray]:
    """Global stable-by-index merge of per-shard top-``k`` candidates.

    Candidates from every column shard are pooled per query row and
    ordered by ``(score, global index)`` — the same tie-breaking rule as
    :func:`knn_indices`' stable argsort, so the merged ranking is
    identical to a single-process top-``k`` of the full row.  Each shard
    entry is ``(row_offset, indices, scores)`` with **global** candidate
    indices and ``-1`` / ``+inf`` padding for rows short of candidates
    (narrow shards).  This is the single merge rule of the system: the
    distributed :class:`~repro.service.cluster.ClusterCoordinator`
    reassembles its shards' answers through it.
    """
    index_pool: List[List[np.ndarray]] = [[] for _ in range(n_queries)]
    score_pool: List[List[np.ndarray]] = [[] for _ in range(n_queries)]
    for r0, indices, scores in shards:
        for offset in range(indices.shape[0]):
            index_pool[r0 + offset].append(indices[offset])
            score_pool[r0 + offset].append(scores[offset])
    merged_indices = np.empty((n_queries, k), dtype=np.intp)
    merged_scores = np.empty((n_queries, k))
    for row in range(n_queries):
        candidates = np.concatenate(index_pool[row])
        scores = np.concatenate(score_pool[row])
        real = candidates >= 0  # drop narrow-shard padding
        candidates = candidates[real]
        scores = scores[real]
        if candidates.size < k:
            raise InvalidParameterError(
                f"k={k} exceeds the {candidates.size} eligible candidates "
                f"of query row {row}"
            )
        order = np.lexsort((candidates, scores))[:k]
        merged_indices[row] = candidates[order]
        merged_scores[row] = scores[order]
    return merged_indices, merged_scores
