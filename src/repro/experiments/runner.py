"""Shared machinery for the figure experiments.

Every evaluation figure in the paper is one of three shapes:

* a **σ sweep** averaged over all datasets (Figures 5–7, 11);
* a **per-dataset bar chart** under a mixed-error scenario (Figures 8–10,
  15–17);
* a **parameter sweep** of the moving-average filters (Figures 13–14).

The helpers here run those shapes on top of
:func:`repro.evaluation.run_similarity_experiment` and cache σ-sweep
results in-process so Figures 5, 6 and 7 (three views of the same runs)
compute the underlying experiments once.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.rng import spawn
from ..datasets import generate_dataset
from ..evaluation.harness import ExperimentResult, run_similarity_experiment
from ..perturbation.scenarios import ConstantScenario, PerturbationScenario
from ..queries.techniques import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    ProudTechnique,
    Technique,
)
from .config import EXPERIMENT_SEED, Scale

TechniqueFactory = Callable[[PerturbationScenario], List[Technique]]


def standard_pdf_techniques(scenario: PerturbationScenario) -> List[Technique]:
    """Euclidean + DUST + PROUD, configured for ``scenario``.

    PROUD receives the scenario's constant σ (its model cannot express
    anything richer — Section 3.1); DUST receives each series' reported
    model implicitly through the uncertain series.
    """
    return [
        EuclideanTechnique(),
        DustTechnique(),
        ProudTechnique(assumed_std=scenario.proud_std),
    ]


def moving_average_techniques(scenario: PerturbationScenario) -> List[Technique]:
    """Euclidean + DUST + UMA + UEMA (Figures 15–17 lineup)."""
    return [
        EuclideanTechnique(),
        DustTechnique(),
        FilteredTechnique.uma(),
        FilteredTechnique.uema(),
    ]


def dataset_for_scale(name: str, scale: Scale, seed: int):
    """Generate a dataset at the scale's size/length."""
    return generate_dataset(
        name,
        seed=spawn(seed, "dataset", name),
        n_series=scale.n_series,
        length=scale.series_length,
    )


def run_on_datasets(
    scale: Scale,
    scenario: PerturbationScenario,
    technique_factory: TechniqueFactory,
    seed: int = EXPERIMENT_SEED,
    dataset_names: Optional[Sequence[str]] = None,
) -> Dict[str, ExperimentResult]:
    """Run one scenario over every dataset of the scale."""
    names = tuple(dataset_names or scale.dataset_names)
    # One technique set for the whole sweep: the harness resets per-series
    # caches between datasets, while expensive cross-dataset state (DUST's
    # lookup tables, which depend only on the error distributions) is
    # legitimately reused.
    techniques = technique_factory(scenario)
    results: Dict[str, ExperimentResult] = {}
    for name in names:
        exact = dataset_for_scale(name, scale, seed)
        results[name] = run_similarity_experiment(
            exact,
            scenario,
            techniques,
            n_queries=scale.n_queries,
            seed=spawn(seed, "run", name, scenario.name),
        )
    return results


# ---------------------------------------------------------------------------
# σ sweeps (Figures 5, 6, 7, 11) with an in-process memo so the three views
# of the same sweep don't recompute it.
# ---------------------------------------------------------------------------

_SWEEP_CACHE: Dict[Tuple, Dict] = {}


def sigma_sweep(
    scale: Scale,
    family: str,
    technique_factory: TechniqueFactory = standard_pdf_techniques,
    seed: int = EXPERIMENT_SEED,
    factory_key: str = "standard",
) -> Dict[float, Dict[str, ExperimentResult]]:
    """All-dataset runs for every σ of the scale under one error family.

    Returns ``{sigma: {dataset: ExperimentResult}}``; results are memoized
    per (scale, family, factory_key, seed) for the lifetime of the
    process.
    """
    cache_key = (scale.name, family, factory_key, seed)
    cached = _SWEEP_CACHE.get(cache_key)
    if cached is not None:
        return cached
    sweep: Dict[float, Dict[str, ExperimentResult]] = {}
    for sigma in scale.sigmas:
        scenario = ConstantScenario(family, sigma)
        sweep[sigma] = run_on_datasets(
            scale, scenario, technique_factory, seed=seed
        )
    _SWEEP_CACHE[cache_key] = sweep
    return sweep


def clear_sweep_cache() -> None:
    """Drop memoized sweeps (tests use this to force recomputation)."""
    _SWEEP_CACHE.clear()


def averaged_metric(
    per_dataset: Dict[str, ExperimentResult],
    technique_name: str,
    metric: str,
) -> float:
    """Average one technique's metric over datasets.

    ``metric`` is ``"f1"``, ``"precision"``, ``"recall"`` or
    ``"seconds_per_query"``.
    """
    values = []
    for result in per_dataset.values():
        outcome = result.techniques[technique_name]
        if metric == "seconds_per_query":
            values.append(outcome.mean_query_seconds())
        else:
            values.append(getattr(outcome, metric)().mean)
    return float(np.mean(values))
