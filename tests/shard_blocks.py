"""Shard an ``(M, N)`` workload by hand, the way the service tier does.

A daemon answers one request's query rows against a column slice of
the collection; the cluster coordinator merges the shards' stats with
:meth:`PruningStats.merge_shards` and their kNN candidates with
:func:`merge_knn_rows`.  These helpers rebuild that decomposition
from direct :meth:`Technique.matrix_with_stats` calls, so tests can pin
shard invariance without starting daemons.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.queries import PruningStats, local_topk_rows, merge_knn_rows


def blocks(total: int, size: Optional[int]) -> List[Tuple[int, int]]:
    """``[0, total)`` as consecutive ``(start, stop)`` blocks of ``size``
    (the last one short); ``None`` keeps one whole block."""
    size = total if size is None else size
    return [(start, min(start + size, total)) for start in range(0, total, size)]


def sharded_matrix(
    technique,
    kind: str,
    queries: Sequence,
    collection: Sequence,
    *,
    row_block: Optional[int] = None,
    col_block: Optional[int] = None,
    epsilon=None,
    tau=None,
    policy=None,
):
    """The ``(M, N)`` matrix assembled block by block, with merged stats.

    ``queries`` and ``collection`` are lists of series.  ``epsilon`` is a
    scalar or one value per query row; each row block gets its own
    slice of it.
    """
    n_queries, n_candidates = len(queries), len(collection)
    eps = None
    if epsilon is not None:
        eps = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), (n_queries,))
    values = np.empty((n_queries, n_candidates))
    shard_stats = []
    for r0, r1 in blocks(n_queries, row_block):
        for c0, c1 in blocks(n_candidates, col_block):
            block, stats = technique.matrix_with_stats(
                kind,
                queries[r0:r1],
                collection[c0:c1],
                epsilon=None if eps is None else eps[r0:r1],
                tau=tau,
                policy=policy,
            )
            values[r0:r1, c0:c1] = block
            shard_stats.append(stats)
    return values, PruningStats.merge_shards(shard_stats, n_queries, n_candidates)


def sharded_knn(
    technique,
    queries: Sequence,
    collection: Sequence,
    k: int,
    *,
    row_block: Optional[int] = None,
    col_block: Optional[int] = None,
    exclude: Optional[np.ndarray] = None,
    policy=None,
):
    """Row-wise top-``k`` merged from column shards: ``(indices, scores,
    stats)``.

    Each shard ranks its block in kNN decision mode with
    :func:`local_topk_rows`, skipping the self-match only when it falls
    inside the shard (``exclude`` holds one global column per query row,
    ``-1`` for none), and :func:`merge_knn_rows` reassembles the global
    ranking.
    """
    n_queries, n_candidates = len(queries), len(collection)
    shards, shard_stats = [], []
    for r0, r1 in blocks(n_queries, row_block):
        own = None if exclude is None else np.asarray(exclude[r0:r1], dtype=np.intp)
        for c0, c1 in blocks(n_candidates, col_block):
            local = None
            if own is not None:
                inside = (own >= c0) & (own < c1)
                local = np.where(inside, own - c0, -1).astype(np.intp)
            block, stats = technique.matrix_with_stats(
                "distance",
                queries[r0:r1],
                collection[c0:c1],
                knn_k=k,
                exclude=local,
                policy=policy,
            )
            indices, scores = local_topk_rows(block, k, local, c0)
            shards.append((r0, indices, scores))
            shard_stats.append(stats)
    indices, scores = merge_knn_rows(n_queries, k, shards)
    merged = PruningStats.merge_shards(shard_stats, n_queries, n_candidates)
    return indices, scores, merged
