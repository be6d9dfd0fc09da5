"""The paper's threshold-calibration protocol (Section 4.1.2).

To compare techniques whose distances live on different scales, the paper
derives *equivalent thresholds* per query:

    "Given a query q and a dataset C, we identify the 10th nearest
    neighbor of q in C.  Let that be time series c.  We define ε_eucl as
    the Euclidean distance on the observations between q and c and ε_dust
    as the DUST distance between q and c.  This procedure is repeated for
    every query q."

Generalized here: the 10th nearest neighbor is found on the *exact* ground
truth data (which also defines the true answer set of exactly ``k``
series), and each technique's ε is its own
:meth:`~repro.queries.techniques.Technique.calibration_distance` between
the *perturbed* representations of ``q`` and ``c``.  Self-matches are
excluded throughout (a query is never its own neighbor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.errors import InvalidParameterError
from .knn import euclidean_knn_table
from .techniques import Technique

#: The paper's ground-truth answer size ("they return exactly 10 time series").
PAPER_K = 10


@dataclass(frozen=True)
class QueryCalibration:
    """Ground truth and threshold anchor for one query.

    ``ground_truth`` is the set of truly similar series (the k nearest
    neighbors on exact data); ``anchor_index`` is the k-th of them — the
    series whose perturbed distance to the query defines each technique's ε.
    """

    query_index: int
    ground_truth: frozenset
    anchor_index: int


def calibrate_queries(
    exact_values: np.ndarray, k: int = PAPER_K
) -> List[QueryCalibration]:
    """Build :class:`QueryCalibration` for every series of a dataset.

    ``exact_values`` is the ``(N, n)`` matrix of ground-truth series; every
    series takes a turn as the query, exactly as in the paper's
    experiments.
    """
    table = euclidean_knn_table(exact_values, k)
    calibrations = []
    for query_index in range(table.shape[0]):
        neighbors = table[query_index]
        calibrations.append(
            QueryCalibration(
                query_index=query_index,
                ground_truth=frozenset(int(i) for i in neighbors),
                anchor_index=int(neighbors[-1]),
            )
        )
    return calibrations


def technique_epsilon(
    technique: Technique,
    perturbed: Sequence,
    calibration: QueryCalibration,
) -> float:
    """This technique's ε for one query: its calibration distance between
    the perturbed query and the perturbed anchor (10th NN) series.
    """
    query = perturbed[calibration.query_index]
    anchor = perturbed[calibration.anchor_index]
    return technique.calibration_distance(query, anchor)


def select_query_indices(
    n_series: int, n_queries: int, rng: np.random.Generator
) -> np.ndarray:
    """Deterministic query subset: all series, or a random sample.

    The full-scale paper protocol uses every series as a query; reduced
    scales sample without replacement.
    """
    if n_queries <= 0:
        raise InvalidParameterError(f"n_queries must be >= 1, got {n_queries}")
    if n_queries >= n_series:
        return np.arange(n_series)
    return np.sort(rng.choice(n_series, size=n_queries, replace=False))
