"""Extension study: DTW under uncertainty.

Sections 2.1 and 3.2 note that both MUNICH and DUST extend to Dynamic
Time Warping, but the paper evaluates only Lp-based matching.  This
study fills that gap on our substrate:

* workload: CBF — the one dataset whose class semantics are *warping*
  (the same cylinder/bell/funnel event occurs at different positions), so
  alignment-invariance should matter;
* measures: Euclidean, banded DTW, DUST, and DUST-DTW (DUST's per-point
  dissimilarity as the DTW cost);
* protocol: the paper's similarity-matching protocol, with the ground
  truth built from *DTW* neighbors on the exact data (the "truly
  similar" notion appropriate for warped data).

Expected shape: DTW-based measures dominate at low σ (alignment is the
signal), and the DUST weighting adds nothing under constant-σ errors
(same equivalence as the Lp case).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.rng import spawn
from ..distances.dtw_batch import dtw_distance_matrix, dtw_distance_stack
from ..distances.lp import euclidean_profile
from ..evaluation.metrics import score_result_set
from ..perturbation.scenarios import ConstantScenario
from ..queries.knn import knn_indices
from ..queries.session import SimilaritySession
from ..queries.techniques import DustDtwTechnique, DustTechnique
from .config import EXPERIMENT_SEED, Scale, get_scale
from .report import format_series_table
from .runner import dataset_for_scale

#: Sakoe–Chiba band half-width (fraction of the series length).
BAND_FRACTION = 0.1
STUDY_K = 10


def run_dtw_study(
    scale: Scale = None,
    seed: int = EXPERIMENT_SEED,
    dataset_name: str = "CBF",
    sigmas=(0.2, 0.6, 1.0),
    n_queries: Optional[int] = None,
) -> Dict[float, Dict[str, float]]:
    """``{sigma: {measure: mean F1}}`` under DTW ground truth."""
    scale = scale if scale is not None else get_scale()
    exact = dataset_for_scale(dataset_name, scale, seed)
    n_queries = n_queries if n_queries is not None else min(scale.n_queries, 8)
    window = max(1, int(BAND_FRACTION * exact.series_length))
    exact_values = exact.values_matrix()

    # DTW ground truth: k nearest neighbors under banded DTW on exact
    # data, one anti-diagonal wavefront kernel per query row instead of a
    # per-pair Python DP over the whole upper triangle.
    n = len(exact)
    dtw_matrix = dtw_distance_matrix(exact_values, exact_values, window=window)
    np.fill_diagonal(dtw_matrix, np.inf)
    ground_truths = [
        frozenset(knn_indices(dtw_matrix[i], STUDY_K)) for i in range(n)
    ]
    anchors = [sorted(ground_truths[i], key=lambda j: dtw_matrix[i][j])[-1]
               for i in range(n)]

    results: Dict[float, Dict[str, float]] = {}
    for sigma in sigmas:
        scenario = ConstantScenario("normal", sigma)
        perturbed = [
            scenario.apply(series, spawn(seed, "dtw", sigma, index))
            for index, series in enumerate(exact)
        ]
        perturbed_values = np.vstack(
            [series.observations for series in perturbed]
        )
        # One session per σ, so the DUST rows share its materialization.
        session = SimilaritySession(perturbed)

        def one_row(technique):
            return lambda q: (
                session.queries([q]).using(technique).profile_matrix().values[0]
            )

        # Each measure scores one query against every candidate in a
        # single batch row (row-wise Euclidean / wavefront DTW / the
        # techniques' one-row plans on the session).
        measures = {
            "Euclidean": lambda q: euclidean_profile(
                perturbed[q].observations, perturbed_values
            ),
            "DTW": lambda q: dtw_distance_stack(
                perturbed[q].observations, perturbed_values, window=window
            ),
            "DUST": one_row(DustTechnique()),
            "DUST-DTW": one_row(DustDtwTechnique(window=window)),
        }
        row: Dict[str, float] = {}
        for name, measure in measures.items():
            f1_values = []
            for query_index in range(n_queries):
                profile = measure(query_index)
                epsilon = profile[anchors[query_index]]
                selected = [
                    j
                    for j in np.flatnonzero(profile <= epsilon)
                    if j != query_index
                ]
                f1_values.append(
                    score_result_set(
                        selected, set(ground_truths[query_index])
                    ).f1
                )
            row[name] = float(np.mean(f1_values))
        results[sigma] = row
    return results


def format_dtw_study(results: Dict[float, Dict[str, float]]) -> str:
    """Render the DTW study as a table."""
    sigmas = list(results)
    names = list(next(iter(results.values())))
    series = {name: [results[s][name] for s in sigmas] for name in names}
    return format_series_table(
        "Extension — DTW under uncertainty (CBF, DTW ground truth)",
        "sigma",
        sigmas,
        series,
    )
