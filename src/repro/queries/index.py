"""Summarization-index plan stage: candidate pruning before any bound.

:class:`IndexStage` is the planner's first stage for techniques that
publish a PAA summary geometry (``Technique.index_segments``).  It asks
the technique for admissible index bounds
(:meth:`~repro.queries.techniques.Technique.index_bounds`) and retires
cells the summary alone already decides:

* **probability** workloads — cells whose lower bound exceeds ε can
  contain no materialization within range, so their probability is
  exactly ``0.0`` (the same argument :class:`BoundStage` uses, but from
  the ``S``-segment summary instead of full-length stacks);
* **range** (decision-mode distance) workloads — cells with
  ``lower > ε`` are certain non-matches and are recorded as ``+inf``;
* **kNN** workloads — each row's pruning threshold is the ``k``-th
  smallest *upper* bound among eligible candidates: any cell whose
  lower bound exceeds it is strictly beaten by at least ``k``
  candidates and can never enter the top-``k``, even under the stable
  break-ties-by-index rule (its true distance is strictly larger than
  the ``k`` winners').

Pruned cells never reach the refine kernels, which is what turns the
planner's O(M·N) scans into candidate-set scans.  The stage is a no-op
— sound but useless — whenever the technique has no index or the
workload carries no decision information (plain ``distance_matrix``).
It enters a plan only through
:meth:`~repro.queries.techniques.Technique._indexed_plan`, which leaves
it out under a session's ``PlanPolicy(mode="fixed")``; a plan that holds
the stage runs it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from .planner import PlanContext, PlanStage


def knn_candidate_thresholds(
    upper: np.ndarray, k: int, exclude: Optional[np.ndarray] = None
) -> np.ndarray:
    """Per-row kNN pruning thresholds from an upper-bound matrix.

    Returns, for each query row, the ``k``-th smallest upper bound over
    eligible candidates (``exclude`` marks at most one self-match column
    per row, ``-1`` for none).  Rows with at most ``k`` eligible
    candidates get ``+inf`` — nothing may be pruned there, which keeps
    shard-local pruning exact even when a shard is narrower than ``k``.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    bounds = np.array(upper, dtype=np.float64, copy=True)
    n_queries, n_candidates = bounds.shape
    eligible = np.full(n_queries, n_candidates, dtype=np.intp)
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.intp)
        if exclude.shape != (n_queries,):
            raise InvalidParameterError(
                f"exclude must hold one index per query row, got shape "
                f"{exclude.shape} for {n_queries} rows"
            )
        rows = np.flatnonzero(exclude >= 0)
        bounds[rows, exclude[rows]] = np.inf
        eligible[rows] -= 1
    thresholds = np.full(n_queries, np.inf)
    selectable = eligible > k
    if np.any(selectable):
        thresholds[selectable] = np.partition(
            bounds[selectable], k - 1, axis=1
        )[:, k - 1]
    return thresholds


#: Column-block width of the blocked kNN index scan over mapped
#: collections.  Per-block bound matrices are ``(M, 131072)`` — small
#: enough to stay cache-resident through the threshold update and the
#: pruning comparison, so the scan's DRAM traffic is dominated by one
#: streaming read of the ``(N, S)`` summary tables.
KNN_BLOCK_COLUMNS = 131_072


def _blocked_knn_prune(context: PlanContext) -> bool:
    """Blocked kNN index pruning for large immutable (mapped) collections.

    Walks the collection in :data:`KNN_BLOCK_COLUMNS`-wide shards,
    maintaining each row's ``k`` smallest upper bounds; the final
    per-row threshold is the global ``k``-th smallest upper bound —
    identical to :func:`knn_candidate_thresholds` — and every cell with
    a lower bound beyond it is provably outside the top-``k``.  Returns
    ``False`` (caller falls back to the one-shot path) when the
    collection is small, mutable, or not shardable.
    """
    collection = context.collection
    shard = getattr(collection, "shard", None)
    n_queries, n_candidates = context.values.shape
    if (
        shard is None
        or not getattr(collection, "immutable_items", False)
        or n_candidates <= KNN_BLOCK_COLUMNS
    ):
        return False
    k = context.knn_k
    exclude = context.exclude
    best = np.full((n_queries, k), np.inf)
    blocks = []
    for start in range(0, n_candidates, KNN_BLOCK_COLUMNS):
        stop = min(start + KNN_BLOCK_COLUMNS, n_candidates)
        bounds = context.technique.index_bounds(
            "distance",
            context.queries,
            shard(start, stop),
            context.engine,
            need_upper=True,
        )
        if bounds is None:
            return False
        lower, upper, slack = bounds
        if exclude is not None:
            rows = np.flatnonzero((exclude >= start) & (exclude < stop))
            if rows.size:
                upper[rows, exclude[rows] - start] = np.inf
        # The k smallest of a union are the k smallest of each side's k
        # smallest; partitioning the block in place avoids copying it.
        upper.partition(k - 1, axis=1)
        best = np.partition(
            np.concatenate([best, upper[:, :k]], axis=1), k - 1, axis=1
        )[:, :k]
        blocks.append((start, stop, lower, slack))
    # The max of each row's k smallest upper bounds is the k-th smallest
    # overall.  When a row has fewer than k eligible candidates this is
    # +inf (nothing pruned); with exactly k, every eligible cell's lower
    # bound sits at or below it, so none of them can be pruned either.
    thresholds = best.max(axis=1)
    for start, stop, lower, slack in blocks:
        guard = (thresholds * (1.0 + slack))[:, None]
        pruned = context.undecided[:, start:stop] & (lower > guard)
        context.values[:, start:stop][pruned] = np.inf
        context.undecided[:, start:stop] &= ~pruned
    return True


class IndexStage(PlanStage):
    """Prune candidates from the collection's PAA summarization index."""

    name = "index"

    def run(self, context: PlanContext) -> Tuple[int, int]:
        kind = context.kind
        if kind == "probability":
            if context.epsilons is None:
                return 0, 0
        elif kind == "distance":
            if context.knn_k is None and context.epsilons is None:
                return 0, 0
        else:
            return 0, 0
        need_upper = kind == "distance" and context.knn_k is not None
        if need_upper and _blocked_knn_prune(context):
            return 0, 0
        bounds = context.technique.index_bounds(
            kind,
            context.queries,
            context.collection,
            context.engine,
            need_upper=need_upper,
        )
        if bounds is None:
            return 0, 0
        lower, upper, slack = bounds
        if need_upper:
            thresholds = knn_candidate_thresholds(
                upper, context.knn_k, context.exclude
            )
            guard = (thresholds * (1.0 + slack))[:, None]
        else:
            guard = (context.epsilons * (1.0 + slack))[:, None]
        pruned = context.undecided & (lower > guard)
        context.values[pruned] = 0.0 if kind == "probability" else np.inf
        context.undecided &= ~pruned
        return 0, 0
