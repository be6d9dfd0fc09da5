"""Summarization-index plan stage: candidate pruning before any bound.

:class:`IndexStage` is the planner's first stage for techniques that
publish a PAA summary geometry (``Technique.index_segments``).  It asks
the technique for admissible lower bounds
(:meth:`~repro.queries.techniques.Technique.index_bounds`) and retires
cells the summary already decides:

* **probability** workloads — cells whose lower bound exceeds ε can
  contain no materialization within range, so their probability is
  exactly ``0.0`` (the same argument :class:`BoundStage` uses, but from
  the ``S``-segment summary instead of full-length stacks);
* **range** (decision-mode distance) workloads — cells with
  ``lower > ε`` are certain non-matches and are recorded as ``+inf``;
* **kNN** workloads — multi-step kNN (Seidl & Kriegel, SIGMOD 1998).
  Each row scores a small *pilot* exactly: its eligible cells with the
  smallest lower bounds, :data:`PILOT_FACTOR` ``· k`` of them.  The
  ``k``-th smallest pilot score is the row's threshold, and every cell
  whose lower bound exceeds it is recorded as ``+inf``.  At least ``k``
  eligible candidates score at or below the threshold, so a pruned
  cell is strictly beaten by ``k`` of them and never enters the top-k,
  even under the stable break-ties-by-index rule.  The pilot's cells
  are decided here (the stage's ``refined``), so the refine stage
  scores only the survivors.

Every comparison is guarded by the slack the technique returns with its
bounds, so a float bound never overtakes the float score it bounds.
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

import math
from typing import Tuple

import numpy as np

from .planner import PlanContext, PlanStage

#: Pilot size of a kNN row, in multiples of ``k``.  The cells a row
#: keeps (pilot plus survivors) fall steeply up to ``4k`` and barely
#: after it.  Median cells kept per row, 300 seeded Euclidean 10-NN rows
#: over Fourier-mixture series of length 64 in 8 segments:
#: at N = 40,000, 1,166 with a pilot of ``k``, 225 with ``2k``, 148 with
#: ``4k`` and 144 with ``8k``, against 146 cells whose bound is at most
#: the true 10th distance; at N = 10,000, 326, 98, 85 and 84 against 86.
#: Pruning against the ``k``-th smallest PAA *upper* bound instead kept
#: 9,532 and 3,012.
PILOT_FACTOR = 4


def _smallest_columns(lower: np.ndarray, size: int) -> np.ndarray:
    """Each row's ``size`` columns of smallest lower bound, ``(M, size)``.

    A row's ``size`` smallest cells lie in its ``size`` blocks of
    smallest minimum (a cell outside them is beaten by one cell of each),
    so a wide row is searched in two levels: a min-reduction over
    ``√N``-cell blocks, then partitions over the block minima and over
    the chosen blocks' cells.  Eight rows of 10⁶ cells take 9 ms instead
    of one partition's 40 ms.  Rows whose blocks are at most 8× the pilot
    (up to ~10⁵ cells for a 10-NN) are partitioned whole: there the two
    levels save at most a millisecond, and at 40,000 cells they lose.
    """
    n_rows, width = lower.shape
    block = math.isqrt(width)
    if block <= 8 * size:
        return np.argpartition(lower, size - 1, axis=1)[:, :size]
    end = width - width % block
    minima = lower[:, :end].reshape(n_rows, -1, block).min(axis=2)
    chosen = np.argpartition(minima, size - 1, axis=1)[:, :size]
    columns = (chosen[:, :, None] * block + np.arange(block)).reshape(
        n_rows, -1
    )
    # The last, partial block's cells are always searched.
    tail = np.broadcast_to(np.arange(end, width), (n_rows, width - end))
    columns = np.concatenate([columns, tail], axis=1)
    best = np.argpartition(
        np.take_along_axis(lower, columns, axis=1), size - 1, axis=1
    )[:, :size]
    return np.take_along_axis(columns, best, axis=1)


def _multistep_knn(
    context: PlanContext, lower: np.ndarray, slack: float
) -> Tuple[int, int]:
    """Score each row's pilot exactly, then prune against its ``k``-th
    pilot score; returns the pilot's ``(refined, samples_drawn)``."""
    k = context.knn_k
    n_candidates = lower.shape[1]
    exclude = context.exclude
    if exclude is not None:
        # A self-match is never eligible: keep it out of every pilot.
        own = np.flatnonzero(exclude >= 0)
        lower[own, exclude[own]] = np.inf
    size = min(PILOT_FACTOR * k, n_candidates)
    pilot = _smallest_columns(lower, size)
    mask = np.zeros_like(context.undecided)
    np.put_along_axis(mask, pilot, True, axis=1)
    mask &= context.undecided
    refined, samples = context.technique.refine_matrix(
        "distance",
        context.query_side,
        context.candidate_side,
        None,
        context.values,
        mask,
        tau=context.tau,
    )
    context.undecided &= ~mask
    if size == n_candidates:
        return refined, samples  # the pilot scored every cell
    scores = np.take_along_axis(context.values, pilot, axis=1)
    if exclude is not None:
        scores[pilot == exclude[:, None]] = np.inf
    # The self-match's +inf bound sorts behind every other cell, so each
    # pilot holds at least 4k - 1 >= k eligible scores.
    thresholds = np.partition(scores, k - 1, axis=1)[:, k - 1]
    guard = (thresholds * (1.0 + slack))[:, None]
    pruned = lower > guard
    pruned &= context.undecided
    np.putmask(context.values, pruned, np.inf)
    context.undecided &= ~pruned
    return refined, samples


class IndexStage(PlanStage):
    """Prune candidates from the collection's PAA summarization index."""

    name = "index"

    def run(self, context: PlanContext) -> Tuple[int, int]:
        kind = context.kind
        knn = kind == "distance" and context.knn_k is not None
        if kind not in ("distance", "probability") or (
            not knn and context.epsilons is None
        ):
            return 0, 0
        bounds = context.technique.index_bounds(
            kind, context.query_side, context.candidate_side
        )
        if bounds is None:
            return 0, 0
        lower, slack = bounds
        if knn:
            return _multistep_knn(context, lower, slack)
        guard = (context.epsilons * (1.0 + slack))[:, None]
        pruned = context.undecided & (lower > guard)
        context.values[pruned] = 0.0 if kind == "probability" else np.inf
        context.undecided &= ~pruned
        return 0, 0
