"""Convenience facade: the most common entry points in one namespace.

For downstream users who just want to *use* the techniques::

    from repro import api

    exact = api.generate_dataset("GunPoint", seed=7)
    scenario = api.ConstantScenario("normal", 0.4)
    uncertain = [scenario.apply(s, rng) for rng, s in ...]

    dust = api.Dust()
    d = dust.distance(uncertain[0], uncertain[1])

    # the declarative all-pairs surface
    session = api.SimilaritySession(uncertain)
    top10 = session.queries().using(api.DustTechnique()).knn(10)

    # the same chain against any deployment shape
    remote = api.connect("tcp://127.0.0.1:7791/trades")
    top10 = remote.queries().using(api.DustTechnique()).knn(10)

:func:`connect` is the one entry point for every deployment shape —
``tcp://host:port[/collection]`` reaches one daemon, a catalog database
with a shard map scatters across the fleet, and a saved-collection path
opens an in-process session.  Everything here is importable from its
home subpackage too; this module adds no behaviour.
"""

from __future__ import annotations

from .core import (
    Collection,
    ErrorModel,
    MappedCollection,
    MultisampleUncertainTimeSeries,
    StreamingCollectionWriter,
    TimeSeries,
    UncertainTimeSeries,
    build_index,
    load_collection,
    make_rng,
    resample,
    save_collection,
    spawn,
    truncate,
    znormalize,
)
from .datasets import (
    PAPER_DATASET_NAMES,
    UCR_SPECS,
    generate_dataset,
    load_ucr_directory,
    stream_fourier_collection,
)
from .distances import (
    FilteredEuclidean,
    dtw_distance,
    dtw_distance_matrix,
    dtw_distance_stack,
    euclidean,
    lp_distance,
    uema_distance,
    uma_distance,
)
from .distributions import (
    ExponentialError,
    MixtureError,
    NormalError,
    UniformError,
    make_distribution,
    with_tails,
)
from .dust import Dust, DustTable, dust_table
from .evaluation import (
    ExperimentResult,
    mean_with_ci,
    run_similarity_experiment,
    score_result_set,
)
from .munich import Munich
from .perturbation import (
    ConstantScenario,
    MisreportedScenario,
    MixedFamilyScenario,
    MixedStdScenario,
    perturb,
    perturb_multisample,
)
from .proud import Proud
from .queries import (
    DustDtwTechnique,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    KnnResult,
    MatrixResult,
    MunichDtwTechnique,
    MunichTechnique,
    PlanPolicy,
    ProudTechnique,
    PruningStats,
    QueryPlan,
    QuerySet,
    RangeResult,
    SimilaritySession,
    StageStats,
    Technique,
    get_default_policy,
    knn_table,
)
from .service import (
    CatalogError,
    ClusterCoordinator,
    ClusterError,
    RemoteSession,
    ServiceCatalog,
    ServiceClient,
    ServiceError,
    ShardEntry,
    SimilarityDaemon,
    connect,
)

__all__ = [
    # core
    "TimeSeries", "UncertainTimeSeries", "MultisampleUncertainTimeSeries",
    "ErrorModel", "Collection", "znormalize", "resample", "truncate",
    "make_rng", "spawn",
    "MappedCollection", "save_collection", "load_collection",
    "StreamingCollectionWriter", "build_index",
    # distributions
    "NormalError", "UniformError", "ExponentialError", "MixtureError",
    "make_distribution", "with_tails",
    # perturbation
    "perturb", "perturb_multisample", "ConstantScenario", "MixedStdScenario",
    "MixedFamilyScenario", "MisreportedScenario",
    # distances
    "euclidean", "lp_distance", "dtw_distance", "dtw_distance_stack",
    "dtw_distance_matrix", "FilteredEuclidean",
    "uma_distance", "uema_distance",
    # techniques
    "Munich", "Proud", "Dust", "DustTable", "dust_table",
    "Technique", "EuclideanTechnique", "DustTechnique", "FilteredTechnique",
    "ProudTechnique", "MunichTechnique", "DustDtwTechnique",
    "MunichDtwTechnique",
    # queries
    "SimilaritySession", "QuerySet",
    "MatrixResult", "KnnResult", "RangeResult",
    "QueryPlan", "PruningStats", "StageStats",
    # plan policy
    "PlanPolicy", "get_default_policy", "knn_table",
    # datasets
    "generate_dataset", "load_ucr_directory", "UCR_SPECS",
    "PAPER_DATASET_NAMES", "stream_fourier_collection",
    # evaluation
    "run_similarity_experiment", "ExperimentResult", "score_result_set",
    "mean_with_ci",
    # service
    "ServiceCatalog", "CatalogError", "SimilarityDaemon", "ServiceClient",
    "ServiceError",
    # distributed serving
    "connect", "ClusterCoordinator", "RemoteSession",
    "ClusterError", "ShardEntry",
]
