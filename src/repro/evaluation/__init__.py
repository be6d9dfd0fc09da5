"""Evaluation: metrics, optimal-τ search, and the experiment harness."""

from __future__ import annotations

from .harness import (
    DEFAULT_MUNICH_SAMPLES,
    ExperimentResult,
    QueryOutcome,
    TechniqueOutcome,
    run_similarity_experiment,
)
from .metrics import (
    MeanWithCI,
    PrecisionRecall,
    mean_with_ci,
    score_result_set,
)
from .tau import (
    DEFAULT_TAU_GRID,
    TauSearchResult,
    optimal_tau,
    results_at_tau,
)

__all__ = [
    "run_similarity_experiment",
    "ExperimentResult",
    "TechniqueOutcome",
    "QueryOutcome",
    "DEFAULT_MUNICH_SAMPLES",
    "PrecisionRecall",
    "score_result_set",
    "MeanWithCI",
    "mean_with_ci",
    "optimal_tau",
    "results_at_tau",
    "TauSearchResult",
    "DEFAULT_TAU_GRID",
]
