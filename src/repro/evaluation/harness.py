"""The experiment harness: the paper's comparison methodology end to end.

One :func:`run_similarity_experiment` call reproduces the full protocol of
Section 4.1.2 on one dataset and one perturbation scenario:

1. the exact series are the ground truth; the k nearest neighbors of each
   query (under exact Euclidean) form its true answer set;
2. every series is perturbed once per run — a single-observation form for
   the pdf-based techniques and, when MUNICH participates, a repeated-
   observation form;
3. per query, each technique's ε comes from its own distance between the
   perturbed query and the perturbed 10th-NN anchor (ε_eucl / ε_dust /
   filtered ε); probabilistic techniques additionally receive the optimal
   τ found by sweeping the grid on their precomputed match probabilities;
4. result sets are scored with precision / recall / F1 and averaged with
   95% confidence intervals.

Per-query wall-clock time of the scoring kernel is recorded, which is what
the time-performance figures (11–12) report.

Every technique is scored through the session API
(:mod:`repro.queries.session`): one all-pairs ``distance_matrix`` /
``probability_matrix`` kernel per technique scores every query row at
once, each query's ε is read straight off its anchor column of the same
(calibration) matrix, and per-query time is the amortized kernel time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.collection import Collection
from ..core.errors import InvalidParameterError
from ..core.rng import SeedLike, spawn
from ..core.series import TimeSeries
from ..perturbation.scenarios import PerturbationScenario
from ..queries.planner import PruningStats
from ..queries.session import SimilaritySession
from ..queries.techniques import Technique
from ..queries.thresholds import (
    PAPER_K,
    QueryCalibration,
    calibrate_queries,
    select_query_indices,
)
from .metrics import MeanWithCI, PrecisionRecall, mean_with_ci, score_result_set
from .tau import DEFAULT_TAU_GRID, optimal_tau, results_at_tau

#: Samples per timestamp for MUNICH's repeated-observation input — the
#: paper's Figure 4 setting ("for each timestamp, we have 5 samples").
DEFAULT_MUNICH_SAMPLES = 5

_stats_log: Optional[List] = None


def enable_stats_log() -> None:
    """Start collecting per-technique :class:`PruningStats` records.

    The harness appends ``(technique_name, stats)`` pairs
    for every plan it executes; :func:`drain_stats_log` retrieves and
    clears them.  This is what backs the CLI's ``--stats`` flag.
    """
    global _stats_log
    _stats_log = []


def drain_stats_log() -> List:
    """Collected ``(technique_name, PruningStats)`` pairs (and reset)."""
    global _stats_log
    drained = _stats_log or []
    if _stats_log is not None:
        _stats_log = []
    return drained


def _log_stats(name: str, stats: Optional[PruningStats]) -> None:
    if _stats_log is not None and stats is not None:
        _stats_log.append((name, stats))


@dataclass(frozen=True)
class QueryOutcome:
    """One query's scores under one technique."""

    query_index: int
    epsilon: float
    scores: PrecisionRecall
    result_size: int
    elapsed_seconds: float

    @property
    def f1(self) -> float:
        """F1 of this query's result set."""
        return self.scores.f1


@dataclass
class TechniqueOutcome:
    """All queries' scores for one technique on one dataset/scenario.

    ``pruning_stats`` carries the scoring plan's filter-and-refine
    accounting: candidates decided per
    stage, refinements run, Monte Carlo samples evaluated, and
    per-stage wall time.
    """

    technique_name: str
    queries: List[QueryOutcome] = field(default_factory=list)
    tau: Optional[float] = None
    pruning_stats: Optional[PruningStats] = None

    def f1(self) -> MeanWithCI:
        """Mean F1 with a 95% confidence band."""
        return mean_with_ci([q.scores.f1 for q in self.queries])

    def precision(self) -> MeanWithCI:
        """Mean precision with a 95% confidence band."""
        return mean_with_ci([q.scores.precision for q in self.queries])

    def recall(self) -> MeanWithCI:
        """Mean recall with a 95% confidence band."""
        return mean_with_ci([q.scores.recall for q in self.queries])

    def mean_query_seconds(self) -> float:
        """Average wall-clock seconds per query."""
        if not self.queries:
            return float("nan")
        return float(np.mean([q.elapsed_seconds for q in self.queries]))


@dataclass
class ExperimentResult:
    """Everything one harness run produced."""

    dataset_name: str
    scenario_name: str
    n_series: int
    series_length: int
    n_queries: int
    techniques: Dict[str, TechniqueOutcome]

    def f1_row(self) -> Dict[str, float]:
        """``{technique: mean F1}`` — a row of the paper's bar charts."""
        return {
            name: outcome.f1().mean for name, outcome in self.techniques.items()
        }


def run_similarity_experiment(
    exact: Collection[TimeSeries],
    scenario: PerturbationScenario,
    techniques: Sequence[Technique],
    k: int = PAPER_K,
    n_queries: Optional[int] = None,
    seed: SeedLike = None,
    munich_samples: int = DEFAULT_MUNICH_SAMPLES,
    tau_grid: Sequence[float] = DEFAULT_TAU_GRID,
    fixed_tau: Optional[float] = None,
) -> ExperimentResult:
    """Run the full comparison protocol; see the module docstring.

    Parameters
    ----------
    exact:
        Ground-truth series (z-normalized — dataset loaders do this).
    scenario:
        Perturbation recipe (error family, σ structure, misreporting).
    techniques:
        The measures to compare.  Probabilistic ones get the optimal τ
        unless ``fixed_tau`` pins it.
    k:
        Ground-truth answer size (10 in the paper).
    n_queries:
        Number of query series (sampled deterministically); default all.
    munich_samples:
        Repeated observations per timestamp for multisample techniques.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1, got {k}")
    if len(exact) <= k:
        raise InvalidParameterError(
            f"collection of {len(exact)} series cannot support k={k} "
            f"ground-truth neighbors"
        )
    exact_values = exact.values_matrix()
    calibrations = calibrate_queries(exact_values, k=k)

    pdf_collection = _perturb_pdf(exact, scenario, seed)
    multisample_collection = None
    if any(t.input_kind == "multisample" for t in techniques):
        multisample_collection = _perturb_multisample(
            exact, scenario, munich_samples, seed
        )

    query_rng = spawn(seed, "query-selection")
    query_indices = select_query_indices(
        len(exact), n_queries if n_queries is not None else len(exact), query_rng
    )

    outcomes: Dict[str, TechniqueOutcome] = {}
    for technique in techniques:
        technique.reset()
        collection = (
            multisample_collection
            if technique.input_kind == "multisample"
            else pdf_collection
        )
        outcomes[technique.name] = _evaluate_technique_matrix(
            technique,
            collection,
            calibrations,
            query_indices,
            tau_grid=tau_grid,
            fixed_tau=fixed_tau,
        )

    return ExperimentResult(
        dataset_name=exact.name or "<unnamed>",
        scenario_name=scenario.name,
        n_series=len(exact),
        series_length=exact.series_length,
        n_queries=len(query_indices),
        techniques=outcomes,
    )


def _perturb_pdf(
    exact: Collection[TimeSeries],
    scenario: PerturbationScenario,
    seed: SeedLike,
) -> List:
    """One pdf-form perturbation of every series (independent streams)."""
    return [
        scenario.apply(series, spawn(seed, "perturb-pdf", index))
        for index, series in enumerate(exact)
    ]


def _perturb_multisample(
    exact: Collection[TimeSeries],
    scenario: PerturbationScenario,
    samples_per_timestamp: int,
    seed: SeedLike,
) -> List:
    """One multisample-form perturbation of every series."""
    return [
        scenario.apply_multisample(
            series, samples_per_timestamp, spawn(seed, "perturb-ms", index)
        )
        for index, series in enumerate(exact)
    ]


def _candidate_indices(n_series: int, query_index: int) -> np.ndarray:
    """Every index except the query itself."""
    indices = np.arange(n_series)
    return indices[indices != query_index]


def _evaluate_technique_matrix(
    technique: Technique,
    collection: Sequence,
    calibrations: List[QueryCalibration],
    query_indices: np.ndarray,
    tau_grid: Sequence[float],
    fixed_tau: Optional[float],
) -> TechniqueOutcome:
    """Score every query in one all-pairs kernel (the session API path).

    Each query's ε is its anchor entry of the same matrix used for the
    result sets (distance techniques) or of the calibration matrix
    (probabilistic ones, the paper's ε_eucl).  Per-query elapsed time is
    the amortized matrix-kernel time — the ``(M, N)`` kernel has no
    meaningful per-row clock.
    """
    with SimilaritySession(collection) as session:
        return _score_matrix_session(
            session,
            technique,
            collection,
            calibrations,
            query_indices,
            tau_grid=tau_grid,
            fixed_tau=fixed_tau,
        )


def _score_matrix_session(
    session: SimilaritySession,
    technique: Technique,
    collection: Sequence,
    calibrations: List[QueryCalibration],
    query_indices: np.ndarray,
    tau_grid: Sequence[float],
    fixed_tau: Optional[float],
) -> TechniqueOutcome:
    query_set = session.queries(query_indices).using(technique)
    n_series = len(collection)
    n_queries = len(query_indices)
    anchors = np.array(
        [calibrations[i].anchor_index for i in query_indices], dtype=np.intp
    )

    if technique.kind == "distance":
        result = query_set.profile_matrix()
        matrix = result.values
        epsilons = matrix[np.arange(n_queries), anchors]
        outcome = TechniqueOutcome(
            technique_name=technique.name,
            pruning_stats=result.pruning_stats,
        )
        _log_stats(technique.name, result.pruning_stats)
        for position, query_index in enumerate(query_indices):
            calibration = calibrations[query_index]
            candidates = _candidate_indices(n_series, query_index)
            distances = matrix[position][candidates]
            selected = candidates[distances <= epsilons[position]]
            outcome.queries.append(
                QueryOutcome(
                    query_index=int(query_index),
                    epsilon=float(epsilons[position]),
                    scores=score_result_set(
                        selected.tolist(), set(calibration.ground_truth)
                    ),
                    result_size=int(selected.size),
                    elapsed_seconds=result.per_query_seconds,
                )
            )
        return outcome

    calibration_matrix = query_set.calibration_matrix()
    epsilons = calibration_matrix.values[np.arange(n_queries), anchors]
    result = query_set.profile_matrix(epsilon=epsilons)
    probabilities: List[np.ndarray] = []
    candidate_lists: List[np.ndarray] = []
    ground_truths: List[frozenset] = []
    for position, query_index in enumerate(query_indices):
        candidates = _candidate_indices(n_series, query_index)
        probabilities.append(result.values[position][candidates])
        candidate_lists.append(candidates)
        ground_truths.append(calibrations[query_index].ground_truth)

    if fixed_tau is not None:
        tau = fixed_tau
    else:
        tau = optimal_tau(
            probabilities, candidate_lists, ground_truths, tau_grid
        ).best_tau

    scores = results_at_tau(probabilities, candidate_lists, ground_truths, tau)
    outcome = TechniqueOutcome(
        technique_name=technique.name,
        tau=tau,
        pruning_stats=result.pruning_stats,
    )
    _log_stats(technique.name, result.pruning_stats)
    for position, query_index in enumerate(query_indices):
        outcome.queries.append(
            QueryOutcome(
                query_index=int(query_index),
                epsilon=float(epsilons[position]),
                scores=scores[position],
                result_size=int(
                    np.count_nonzero(probabilities[position] >= tau)
                ),
                elapsed_seconds=result.per_query_seconds,
            )
        )
    return outcome
