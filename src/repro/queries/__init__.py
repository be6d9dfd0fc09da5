"""Query framework: RQ / PRQ / top-k and the threshold-calibration protocol.

Collection-level scoring runs through the batch query engine
(:mod:`repro.queries.engine`): each technique pairs its per-pair
reference (``distance`` / ``probability``) with one vectorized ``(M, N)``
kernel per kind, whose per-collection materializations (values
matrices, filtered matrices, error-model codes, bounding intervals) are
cached by :class:`~repro.queries.engine.QueryEngine`.

All-pairs workloads — every series a query, the paper's full protocol —
go through the declarative session API (:mod:`repro.queries.session`):
:class:`SimilaritySession` pins a collection, :class:`QuerySet` selects
queries and a technique, and the techniques' ``distance_matrix`` /
``probability_matrix`` kernels answer the whole ``(M, N)`` grid at once.
Every query — kNN, range, probabilistic range, one row or all pairs —
is a ``session.queries(...).using(technique)`` chain; ``repro.api.connect``
returns the same surface for a daemon or a sharded cluster.
"""

from __future__ import annotations

from ..core import normalize_tau
from .engine import (
    DEFAULT_MAX_COLLECTIONS,
    SHARED_ENGINE,
    CollectionMaterialization,
    QueryEngine,
)
from .index import IndexStage
from .knn import (
    euclidean_knn_table,
    knn_indices,
    knn_table,
    local_topk_rows,
    merge_knn_rows,
)
from .planner import (
    ADAPTIVE_MC_FIRST_FRACTION,
    POLICY_MODES,
    AdaptiveMCStage,
    BoundStage,
    PlanPolicy,
    PlanStage,
    PruningStats,
    QueryPlan,
    RefineStage,
    StageStats,
    adaptive_mc_schedule,
    effective_index_enabled,
    get_default_policy,
    sequential_mc_decision,
    sequential_mc_grid_decision,
    sequential_mc_verdict,
)
from .session import (
    InProcessBackend,
    KnnResult,
    MatrixResult,
    QuerySet,
    RangeResult,
    SimilarityBackend,
    SimilaritySession,
)
from .techniques import (
    DustDtwTechnique,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichDtwTechnique,
    MunichTechnique,
    ProudTechnique,
    Technique,
)
from .thresholds import (
    PAPER_K,
    QueryCalibration,
    calibrate_queries,
    select_query_indices,
    technique_epsilon,
)

__all__ = [
    "QueryEngine",
    "CollectionMaterialization",
    "SHARED_ENGINE",
    "DEFAULT_MAX_COLLECTIONS",
    "SimilaritySession",
    "QuerySet",
    "SimilarityBackend",
    "InProcessBackend",
    "MatrixResult",
    "KnnResult",
    "RangeResult",
    "QueryPlan",
    "PlanStage",
    "IndexStage",
    "BoundStage",
    "RefineStage",
    "AdaptiveMCStage",
    "PruningStats",
    "StageStats",
    "PlanPolicy",
    "POLICY_MODES",
    "get_default_policy",
    "effective_index_enabled",
    "normalize_tau",
    "ADAPTIVE_MC_FIRST_FRACTION",
    "adaptive_mc_schedule",
    "sequential_mc_decision",
    "sequential_mc_grid_decision",
    "sequential_mc_verdict",
    "Technique",
    "EuclideanTechnique",
    "DustTechnique",
    "DustDtwTechnique",
    "FilteredTechnique",
    "ProudTechnique",
    "MunichTechnique",
    "MunichDtwTechnique",
    "knn_indices",
    "knn_table",
    "euclidean_knn_table",
    "local_topk_rows",
    "merge_knn_rows",
    "QueryCalibration",
    "calibrate_queries",
    "technique_epsilon",
    "select_query_indices",
    "PAPER_K",
]
