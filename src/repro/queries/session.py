"""Declarative similarity sessions: the all-pairs query surface.

The paper's full evaluation protocol (Section 4.1.2) makes *every* series
of a collection a query against all others — an ``(M, N)`` workload.  The
session API expresses that workload declaratively and answers it with the
techniques' batch-of-queries matrix kernels
(:meth:`~repro.queries.techniques.Technique.distance_matrix` /
``probability_matrix``) instead of ``M`` separate one-row calls::

    session = SimilaritySession(collection)
    result = session.queries().using(DustTechnique()).knn(10)
    result.indices            # (M, k) rankings, stable tie-breaking
    result.per_query_seconds  # amortized kernel time

    profile = session.queries([3, 7]).using(EuclideanTechnique())
    matrix = profile.profile_matrix()          # MatrixResult, (2, N)
    in_range = profile.range(epsilon=4.0)      # RangeResult

    prq = session.queries().using(ProudTechnique(assumed_std=0.7))
    hits = prq.prob_range(epsilon=eps_vector, tau=0.4)

A :class:`SimilaritySession` pins one collection on one
:class:`~repro.queries.engine.QueryEngine` (the process-shared engine by
default), so every query set against it reuses the same materialization
matrices.  :class:`QuerySet` is an immutable fluent builder: ``queries()``
selects the query rows (default: every series — the full protocol),
``using()`` binds a technique, and the terminal verbs — ``knn``,
``range``, ``prob_range``, ``profile_matrix``, ``calibration_matrix`` —
run one matrix kernel and return structured result objects carrying
scores, rankings, and per-query timings.

Queries that *are* collection members (selected by index, by identity, or
by the all-series default) are tracked positionally so result sets and
rankings exclude the self-match, exactly like the free-function protocol.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import InvalidParameterError, UnsupportedQueryError
from .engine import SHARED_ENGINE, QueryEngine
from .knn import check_knn_k, knn_table, local_topk_rows
from .planner import (
    PlanPolicy,
    PruningStats,
    effective_index_enabled,
    normalize_tau,
)
from .techniques import Technique, _epsilon_vector


@dataclass(frozen=True)
class MatrixResult:
    """An ``(M, N)`` score matrix with its provenance and timing.

    ``kind`` is ``"distance"``, ``"probability"`` or ``"calibration"``;
    ``values[i, j]`` scores query ``i`` against collection series ``j``.
    ``query_positions[i]`` is query ``i``'s index in the collection, or
    ``-1`` when the query is not a member (no self-match to exclude).
    ``pruning_stats`` carries the executed query plan's filter-and-refine
    accounting — candidates decided per stage, refinements run, Monte
    Carlo samples evaluated, and per-stage wall time (so bound-evaluation
    time is visible, not folded into an opaque total).
    """

    technique_name: str
    kind: str
    values: np.ndarray
    query_positions: np.ndarray
    elapsed_seconds: float
    epsilons: Optional[np.ndarray] = None
    pruning_stats: Optional[PruningStats] = None

    @property
    def n_queries(self) -> int:
        """Number of query rows ``M``."""
        return int(self.values.shape[0])

    @property
    def n_candidates(self) -> int:
        """Number of collection series ``N``."""
        return int(self.values.shape[1])

    @property
    def per_query_seconds(self) -> float:
        """Amortized kernel seconds per query row."""
        return self.elapsed_seconds / max(self.n_queries, 1)

    def row(self, position: int) -> np.ndarray:
        """One query's score vector (aligned with the collection)."""
        return self.values[position]

    def top_k(self, k: int) -> "KnnResult":
        """Row-wise k-nearest rankings off this matrix (self excluded).

        Only meaningful for score matrices ordered ascending-is-closer
        (``distance`` / ``calibration`` kinds).
        """
        if self.kind == "probability":
            raise UnsupportedQueryError(
                "top-k requires a distance matrix; probability rankings "
                "depend on epsilon"
            )
        indices = knn_table(self.values, k, exclude=self.query_positions)
        return KnnResult(
            technique_name=self.technique_name,
            indices=indices,
            scores=np.take_along_axis(self.values, indices, axis=1),
            query_positions=self.query_positions,
            elapsed_seconds=self.elapsed_seconds,
            pruning_stats=self.pruning_stats,
        )

    def result_sets(self, threshold) -> List[np.ndarray]:
        """Per-query result sets at a scalar or per-query threshold.

        Distance/calibration matrices select ``score <= threshold``;
        probability matrices select ``score >= threshold``.  Self-matches
        are excluded.
        """
        cutoff = _epsilon_vector(threshold, self.n_queries)
        sets: List[np.ndarray] = []
        for position in range(self.n_queries):
            row = self.values[position]
            if self.kind == "probability":
                mask = row >= cutoff[position]
            else:
                mask = row <= cutoff[position]
            indices = np.flatnonzero(mask)
            own = self.query_positions[position]
            if own >= 0:
                indices = indices[indices != own]
            sets.append(indices)
        return sets

    def __repr__(self) -> str:
        return (
            f"MatrixResult({self.technique_name!r}, kind={self.kind!r}, "
            f"shape={self.values.shape}, "
            f"per_query={self.per_query_seconds * 1e3:.3f}ms)"
        )


@dataclass(frozen=True)
class KnnResult:
    """Row-wise k-nearest-neighbor rankings for a query set.

    ``failed_shards`` is empty on every single-host execution; a
    cluster backend running with ``allow_partial`` tags a degraded
    result with the endpoints whose shards contributed nothing, so a
    caller can tell a complete answer from a best-effort one.
    """

    technique_name: str
    indices: np.ndarray
    scores: np.ndarray
    query_positions: np.ndarray
    elapsed_seconds: float
    pruning_stats: Optional[PruningStats] = None
    failed_shards: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every shard contributed (always true single-host)."""
        return not self.failed_shards

    @property
    def n_queries(self) -> int:
        """Number of query rows ``M``."""
        return int(self.indices.shape[0])

    @property
    def k(self) -> int:
        """Neighbors per query."""
        return int(self.indices.shape[1])

    @property
    def per_query_seconds(self) -> float:
        """Amortized kernel seconds per query row."""
        return self.elapsed_seconds / max(self.n_queries, 1)

    def row(self, position: int) -> List[int]:
        """One query's ranked neighbor indices."""
        return [int(i) for i in self.indices[position]]

    def __repr__(self) -> str:
        return (
            f"KnnResult({self.technique_name!r}, n_queries={self.n_queries}, "
            f"k={self.k})"
        )


@dataclass(frozen=True)
class RangeResult:
    """Per-query range-query result sets (RQ / PRQ, Equations 1–2).

    ``failed_shards`` mirrors :attr:`KnnResult.failed_shards`: empty
    unless a cluster backend degraded to partial results.
    """

    technique_name: str
    kind: str
    matches: Tuple[np.ndarray, ...]
    epsilons: np.ndarray
    tau: Optional[float]
    query_positions: np.ndarray
    elapsed_seconds: float
    pruning_stats: Optional[PruningStats] = None
    failed_shards: Tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every shard contributed (always true single-host)."""
        return not self.failed_shards

    @property
    def n_queries(self) -> int:
        """Number of query rows ``M``."""
        return len(self.matches)

    @property
    def per_query_seconds(self) -> float:
        """Amortized kernel seconds per query row."""
        return self.elapsed_seconds / max(self.n_queries, 1)

    @property
    def result_sizes(self) -> np.ndarray:
        """``(M,)`` result-set cardinalities."""
        return np.array([len(found) for found in self.matches], dtype=np.intp)

    def sets(self) -> List[List[int]]:
        """Result sets as plain lists (free-function compatible)."""
        return [[int(i) for i in found] for found in self.matches]

    def __repr__(self) -> str:
        tau = f", tau={self.tau:g}" if self.tau is not None else ""
        return (
            f"RangeResult({self.technique_name!r}, n_queries="
            f"{self.n_queries}{tau})"
        )


class QuerySet:
    """A declarative batch of queries against a session's collection.

    Built by :meth:`SimilaritySession.queries`; immutable — ``using``
    returns a new query set bound to a technique, and the terminal verbs
    (``knn`` / ``range`` / ``prob_range`` / ``profile_matrix`` /
    ``calibration_matrix``) each validate locally and then execute
    through the session's :class:`SimilarityBackend`, so the same fluent
    chain runs unchanged in-process, against one daemon, or scattered
    across a cluster — with identical validation errors on all three.

    ``selector`` preserves *how* the query rows were selected (``("all",
    None)`` / ``("indices", [...])`` / ``("values", rows)``) so a remote
    backend can ship the selection in wire form instead of serializing
    resolved series objects.
    """

    __slots__ = (
        "_session",
        "_queries",
        "_positions",
        "_technique",
        "_selector",
        "_policy",
    )

    def __init__(
        self,
        session: "SimilaritySession",
        queries: Sequence,
        positions: np.ndarray,
        technique: Optional[Technique] = None,
        selector: Optional[Tuple[str, Any]] = None,
        policy: Optional[PlanPolicy] = None,
    ) -> None:
        self._session = session
        self._queries = queries
        self._positions = positions
        self._technique = technique
        self._selector = selector
        self._policy = policy

    def __len__(self) -> int:
        return len(self._queries)

    @property
    def session(self) -> "SimilaritySession":
        """The session this query set runs against."""
        return self._session

    @property
    def technique(self) -> Optional[Technique]:
        """The bound technique, if any."""
        return self._technique

    @property
    def query_positions(self) -> np.ndarray:
        """``(M,)`` collection positions of the queries (``-1`` if outside)."""
        return self._positions.copy()

    @property
    def selector(self) -> Optional[Tuple[str, Any]]:
        """The wire-form selection, when built through ``queries()``."""
        return self._selector

    @property
    def policy(self) -> Optional[PlanPolicy]:
        """The governing plan policy: this set's, else the session's.

        ``None`` means the terminal verbs resolve the process-wide
        default policy at execution time.
        """
        if self._policy is not None:
            return self._policy
        return getattr(self._session, "policy", None)

    def using(self, technique: Technique) -> "QuerySet":
        """Bind a technique, returning a new query set."""
        if not isinstance(technique, Technique):
            raise InvalidParameterError(
                f"using() expects a Technique, got {type(technique).__name__}"
            )
        return QuerySet(
            self._session,
            self._queries,
            self._positions,
            technique,
            selector=self._selector,
            policy=self._policy,
        )

    def with_policy(self, policy: Optional[PlanPolicy]) -> "QuerySet":
        """Bind a :class:`~repro.queries.planner.PlanPolicy`.

        Returns a new query set whose terminal verbs plan under
        ``policy`` instead of the session's (or the process default);
        ``None`` clears a previous binding.  Accepted uniformly by
        every backend — the wire protocols ship the policy with the
        request.
        """
        if policy is not None and not isinstance(policy, PlanPolicy):
            raise InvalidParameterError(
                f"with_policy() expects a PlanPolicy or None, got "
                f"{type(policy).__name__}"
            )
        return QuerySet(
            self._session,
            self._queries,
            self._positions,
            self._technique,
            selector=self._selector,
            policy=policy,
        )

    # -- terminal verbs ----------------------------------------------------

    def profile_matrix(self, epsilon=None, tau=None) -> MatrixResult:
        """The raw ``(M, N)`` score matrix for this query set.

        Distance techniques return distances (no ``epsilon``);
        probabilistic techniques return match probabilities and require a
        scalar or per-query ``epsilon``.

        ``tau`` (probabilistic only) is an optional decision threshold —
        a scalar, or a sequence bracketing a whole τ *grid* — that lets
        adaptive Monte Carlo stages stop sampling, and MUNICH's
        convolution skip its DP, as soon as every threshold's verdict is
        determined.  Cell values then remain exact probabilities where
        fully evaluated and a verdict-equivalent bound (a hit fraction
        where sampling stopped early, the deciding Hoeffding or
        Berry–Esseen bound where the DP was skipped) elsewhere:
        thresholding the matrix at any grid τ matches the full
        evaluation exactly.
        """
        technique = self._require_technique()
        if technique.kind == "distance":
            if epsilon is not None:
                raise InvalidParameterError(
                    f"{technique.name} is a distance technique; "
                    f"profile_matrix() takes no epsilon"
                )
            if tau is not None:
                raise InvalidParameterError(
                    f"{technique.name} is a distance technique; "
                    f"profile_matrix() takes no tau"
                )
            return self._session.backend.profile_matrix(self, None)
        if epsilon is None:
            raise InvalidParameterError(
                f"{technique.name} is probabilistic; profile_matrix() "
                f"requires epsilon (scalar or one per query)"
            )
        eps = _epsilon_vector(epsilon, len(self._queries))
        return self._session.backend.profile_matrix(
            self, eps, tau=normalize_tau(tau)
        )

    def calibration_matrix(self) -> MatrixResult:
        """The ``(M, N)`` ε-calibration matrix (10th-NN thresholds live on
        its rows: entry ``[i, anchor]`` is query ``i``'s ε)."""
        self._require_technique()
        return self._session.backend.calibration_matrix(self)

    def knn(self, k: int) -> KnnResult:
        """Row-wise k-nearest neighbors (distance techniques only).

        Rankings break ties by candidate index.  A cluster backend ranks
        each column shard on its own daemon and merges the shards'
        candidates under the same rule
        (:func:`~repro.queries.knn.merge_knn_rows`), so its rankings are
        identical to the in-process ones.
        """
        technique = self._require_technique()
        if technique.kind != "distance":
            raise UnsupportedQueryError(
                f"top-k requires a distance technique; {technique.name} is "
                f"probabilistic and its ranking depends on epsilon"
            )
        return self._session.backend.knn(self, int(k))

    def _local_knn(self, k: int) -> KnnResult:
        """The in-process kNN execution (post-validation)."""
        technique = self._require_technique()
        if technique.index_segments is None or not (
            effective_index_enabled(self.policy)
        ):
            return self.profile_matrix().top_k(k)
        # Indexed path: the plan runs in kNN decision mode, so the
        # summarization index retires certain non-neighbors as +inf
        # before refinement, and the top-k ranks only the surviving
        # candidates.  Rankings are identical to
        # profile_matrix().top_k(k) — the index prunes only cells
        # strictly beaten by >= k candidates.
        check_knn_k(k, len(self._session.collection), self._positions)
        values, elapsed, stats = self._run_matrix("distance", knn_k=k)
        indices, scores = local_topk_rows(values, k, self._positions)
        return KnnResult(
            technique_name=technique.name,
            indices=indices,
            scores=scores,
            query_positions=self._positions.copy(),
            elapsed_seconds=elapsed,
            pruning_stats=stats,
        )

    def range(self, epsilon) -> RangeResult:
        """Per-query range results ``distance <= ε`` (Equation 1 batch).

        Because ``ε`` is known here, the plan runs in *decision* mode:
        techniques with a summarization index retire certain
        non-matches as ``+inf`` without refining them (``row <= ε``
        excludes them just the same), so only candidate cells pay for
        exact distances.  Match sets are identical to thresholding the
        full ``profile_matrix()``.
        """
        technique = self._require_technique()
        if technique.kind != "distance":
            raise UnsupportedQueryError(
                f"range() requires a distance technique; use prob_range() "
                f"for {technique.name}"
            )
        eps = _epsilon_vector(epsilon, len(self._queries))
        return self._session.backend.range(self, eps)

    def _local_range(self, eps: np.ndarray) -> RangeResult:
        """The in-process range execution (post-validation)."""
        technique = self._require_technique()
        values, elapsed, stats = self._run_matrix("distance", eps)
        result = self._matrix_result("distance", values, elapsed, stats, eps)
        return RangeResult(
            technique_name=technique.name,
            kind="distance",
            matches=tuple(result.result_sets(eps)),
            epsilons=eps,
            tau=None,
            query_positions=self._positions.copy(),
            elapsed_seconds=result.elapsed_seconds,
            pruning_stats=result.pruning_stats,
        )

    def prob_range(self, epsilon, tau: float) -> RangeResult:
        """Per-query probabilistic range results ``Pr(distance <= ε) >= τ``
        (Equation 2 batch; probabilistic techniques only).

        Because ``τ`` is known here, the technique's query plan runs in
        *decision* mode: Monte Carlo techniques (MUNICH / MUNICH-DTW
        with ``method="montecarlo"``) refine through the adaptive
        sample-size stage, which stops drawing as soon as the hit
        fraction is decided against ``τ``, and MUNICH's convolution
        runs its exact DP only on cells its Hoeffding and Berry–Esseen
        bounds leave undecided.  The resulting match sets are guaranteed
        identical to thresholding the τ-free :meth:`profile_matrix` at
        ``τ``.
        """
        technique = self._require_technique()
        if technique.kind != "probabilistic":
            raise UnsupportedQueryError(
                f"prob_range() requires a probabilistic technique; use "
                f"range() for {technique.name}"
            )
        if not 0.0 <= tau <= 1.0:
            raise InvalidParameterError(
                f"tau must be within [0, 1], got {tau}"
            )
        eps = _epsilon_vector(epsilon, len(self._queries))
        return self._session.backend.prob_range(self, eps, float(tau))

    def _local_prob_range(self, eps: np.ndarray, tau: float) -> RangeResult:
        """The in-process probabilistic-range execution (post-validation)."""
        technique = self._require_technique()
        values, elapsed, stats = self._run_matrix(
            "probability", eps, tau=float(tau)
        )
        result = self._matrix_result(
            "probability", values, elapsed, stats, eps
        )
        return RangeResult(
            technique_name=technique.name,
            kind="probabilistic",
            matches=tuple(result.result_sets(tau)),
            epsilons=result.epsilons,
            tau=float(tau),
            query_positions=self._positions.copy(),
            elapsed_seconds=result.elapsed_seconds,
            pruning_stats=result.pruning_stats,
        )

    def explain(self, k=None, epsilon=None, tau=None) -> PruningStats:
        """Execute one workload and report the plan that ran.

        Runs the verb the arguments select — ``k`` → :meth:`knn`,
        ``epsilon`` + ``tau`` → :meth:`prob_range`, ``epsilon`` alone →
        :meth:`range` (distance techniques) or a probability
        :meth:`profile_matrix`, neither → :meth:`profile_matrix` — and
        returns the executed plan's
        :class:`~repro.queries.planner.PruningStats`: every stage in
        execution order with the cells it decided and its wall time.
        Identical stage lists across in-process, daemon, and cluster
        backends (shards merge their stats stage by stage).
        """
        if k is not None:
            if epsilon is not None or tau is not None:
                raise InvalidParameterError(
                    "explain(k=...) is a kNN workload; epsilon/tau do "
                    "not apply"
                )
            result = self.knn(int(k))
        elif tau is not None:
            if epsilon is None:
                raise InvalidParameterError(
                    "explain(tau=...) needs epsilon as well (a "
                    "probabilistic range workload)"
                )
            result = self.prob_range(epsilon, tau)
        elif epsilon is not None:
            technique = self._require_technique()
            if technique.kind == "distance":
                result = self.range(epsilon)
            else:
                result = self.profile_matrix(epsilon)
        else:
            result = self.profile_matrix()
        return result.pruning_stats

    # -- plumbing ----------------------------------------------------------

    def _local_profile_matrix(
        self, eps: Optional[np.ndarray], tau=None
    ) -> MatrixResult:
        """The in-process matrix execution (post-validation)."""
        if eps is None:
            values, elapsed, stats = self._run_matrix("distance")
            return self._matrix_result("distance", values, elapsed, stats)
        values, elapsed, stats = self._run_matrix(
            "probability", eps, tau=tau
        )
        return self._matrix_result(
            "probability", values, elapsed, stats, eps
        )

    def _local_calibration_matrix(self) -> MatrixResult:
        """The in-process calibration execution (post-validation)."""
        values, elapsed, stats = self._run_matrix("calibration")
        return self._matrix_result("calibration", values, elapsed, stats)

    def _require_technique(self) -> Technique:
        if self._technique is None:
            raise InvalidParameterError(
                "no technique bound; chain .using(technique) first"
            )
        return self._technique

    def _run_matrix(self, kind: str, epsilon=None, tau=None, knn_k=None):
        """One timed ``(M, N)`` execution of the technique's query plan.

        Returns ``(values, elapsed, pruning_stats)``; ``tau`` forwards
        the decision threshold so adaptive Monte Carlo stages can stop
        early, ``knn_k`` marks a top-k decision workload for the index
        stage.
        """
        technique = self._require_technique()
        started = time.perf_counter()
        values, stats = technique.matrix_with_stats(
            kind,
            self._queries,
            self._session.collection,
            epsilon=epsilon,
            tau=tau,
            knn_k=knn_k,
            exclude=self._positions if knn_k is not None else None,
            policy=self.policy,
            engine=self._session.engine,
        )
        elapsed = time.perf_counter() - started
        return np.asarray(values, dtype=np.float64), elapsed, stats

    def _matrix_result(
        self,
        kind: str,
        values: np.ndarray,
        elapsed: float,
        stats: Optional[PruningStats] = None,
        epsilons: Optional[np.ndarray] = None,
    ) -> MatrixResult:
        return MatrixResult(
            technique_name=self._require_technique().name,
            kind=kind,
            values=values,
            query_positions=self._positions.copy(),
            elapsed_seconds=elapsed,
            epsilons=epsilons,
            pruning_stats=stats,
        )

    def __repr__(self) -> str:
        bound = (
            self._technique.name if self._technique is not None else "<none>"
        )
        return f"QuerySet(n_queries={len(self)}, technique={bound})"


class SimilarityBackend(abc.ABC):
    """Where a :class:`QuerySet`'s validated verbs actually execute.

    The seam of the unified query surface: the fluent chain
    ``session.queries(...).using(technique).knn(k)`` validates locally
    and then hands itself to the session's backend, which may run the
    kernel in this process (:class:`InProcessBackend`) or on daemons
    (``repro.service.cluster.ClusterBackend``: a shard fleet, or one
    daemon as a one-shard map).  Every
    backend returns the same :class:`KnnResult` / :class:`RangeResult`
    structures with populated :class:`~repro.queries.planner.
    PruningStats`, so callers never branch on deployment shape.
    """

    @abc.abstractmethod
    def knn(self, query_set: QuerySet, k: int) -> KnnResult:
        """Execute a validated kNN workload."""

    @abc.abstractmethod
    def range(self, query_set: QuerySet, eps: np.ndarray) -> RangeResult:
        """Execute a validated range workload (per-query ε vector)."""

    @abc.abstractmethod
    def prob_range(
        self, query_set: QuerySet, eps: np.ndarray, tau: float
    ) -> RangeResult:
        """Execute a validated probabilistic-range workload."""

    def profile_matrix(
        self, query_set: QuerySet, eps: Optional[np.ndarray], tau=None
    ) -> MatrixResult:
        """Full ``(M, N)`` matrix retrieval — in-process only by default.

        Remote backends deliberately refuse: an ``(M, N)`` float matrix
        is exactly the payload the scatter-gather protocol exists to
        avoid shipping.
        """
        raise UnsupportedQueryError(
            f"{type(self).__name__} does not serve full score matrices; "
            f"use knn()/range()/prob_range(), or open the collection "
            f"in-process for matrix work"
        )

    def calibration_matrix(self, query_set: QuerySet) -> MatrixResult:
        """ε-calibration matrix — in-process only by default."""
        raise UnsupportedQueryError(
            f"{type(self).__name__} does not serve calibration matrices; "
            f"open the collection in-process for calibration work"
        )

    def close(self) -> None:
        """Release backend resources (connections). Idempotent."""


class InProcessBackend(SimilarityBackend):
    """Execute verbs through the session's own engine and kernels.

    The zero-indirection default: every verb calls straight back into
    the query set's local execution path, preserving the pre-backend
    behavior (and performance) of :class:`SimilaritySession` exactly.
    """

    def knn(self, query_set: QuerySet, k: int) -> KnnResult:
        return query_set._local_knn(k)

    def range(self, query_set: QuerySet, eps: np.ndarray) -> RangeResult:
        return query_set._local_range(eps)

    def prob_range(
        self, query_set: QuerySet, eps: np.ndarray, tau: float
    ) -> RangeResult:
        return query_set._local_prob_range(eps, tau)

    def profile_matrix(
        self, query_set: QuerySet, eps: Optional[np.ndarray], tau=None
    ) -> MatrixResult:
        return query_set._local_profile_matrix(eps, tau=tau)

    def calibration_matrix(self, query_set: QuerySet) -> MatrixResult:
        return query_set._local_calibration_matrix()

    def __repr__(self) -> str:
        return "InProcessBackend()"


class SimilaritySession:
    """One collection pinned on one query engine.

    Parameters
    ----------
    collection:
        The candidate series (a :class:`~repro.core.collection.Collection`
        or any sequence of series).  Materialized eagerly, so every query
        set against the session shares the same dense matrices.
    engine:
        The :class:`~repro.queries.engine.QueryEngine` to materialize on;
        defaults to the process-shared engine (techniques compared side by
        side reuse one values matrix).  Pass a private engine to isolate
        the session's caches.
    policy:
        The session-level :class:`~repro.queries.planner.PlanPolicy`
        every query set inherits (``None`` defers to the process-wide
        default at query time).

    Every verb runs the technique's ``(M, N)`` query plan in this
    process, passing the session's engine to
    :meth:`~repro.queries.techniques.Technique.matrix_with_stats`; the
    technique itself is never modified, so one instance may serve many
    sessions and threads at once.  Sharding across processes is the
    service cluster's job (:func:`repro.api.connect` on a catalog with a
    shard map).
    """

    __slots__ = ("_collection", "_engine", "_backend", "_closed", "_policy")

    def __init__(
        self,
        collection: Sequence,
        engine: Optional[QueryEngine] = None,
        *,
        policy: Optional[PlanPolicy] = None,
    ) -> None:
        if len(collection) == 0:
            raise InvalidParameterError(
                "a similarity session needs a non-empty collection"
            )
        if policy is not None and not isinstance(policy, PlanPolicy):
            raise InvalidParameterError(
                f"policy must be a PlanPolicy, got {type(policy).__name__}"
            )
        self._collection = collection
        self._engine = engine if engine is not None else SHARED_ENGINE
        self._policy = policy
        self._backend = InProcessBackend()
        self._closed = False
        self._engine.materialize(collection)

    @property
    def policy(self) -> Optional[PlanPolicy]:
        """The session-level plan policy (``None`` → process default)."""
        return self._policy

    @property
    def collection(self) -> Sequence:
        """The pinned candidate collection."""
        return self._collection

    @property
    def engine(self) -> QueryEngine:
        """The engine holding this session's materializations."""
        return self._engine

    @property
    def backend(self) -> SimilarityBackend:
        """The :class:`SimilarityBackend` query sets execute against."""
        return self._backend

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has already run."""
        return self._closed

    def close(self) -> None:
        """Mark the session closed.

        An in-process session holds no pool or connection, so closing
        releases nothing; it exists so every session shape (in-process,
        daemon, cluster) closes the same way.  Idempotent and safe under
        concurrent callers: the daemon closes its sessions while
        draining, possibly while a request still holds a reference.
        """
        self._closed = True

    def __enter__(self) -> "SimilaritySession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._collection)

    def queries(self, queries: Optional[Sequence] = None) -> QuerySet:
        """Select the query rows of the workload.

        ``queries`` may be ``None`` (every collection series — the full
        protocol), a sequence of integer indices into the collection, or a
        sequence of series objects (members are recognized by identity so
        their self-matches are excluded from result sets and rankings).
        """
        if queries is None:
            positions = np.arange(len(self._collection), dtype=np.intp)
            return QuerySet(
                self, self._collection, positions, selector=("all", None)
            )
        items = list(queries)
        if not items:
            raise InvalidParameterError(
                "a query set must contain at least one query"
            )
        if all(isinstance(item, (int, np.integer)) for item in items):
            positions = np.asarray(items, dtype=np.intp)
            n_series = len(self._collection)
            if np.any(positions < 0) or np.any(positions >= n_series):
                raise InvalidParameterError(
                    f"query indices must be within [0, {n_series - 1}]"
                )
            selector = ("indices", [int(i) for i in positions])
            if positions.size == n_series and np.array_equal(
                positions, np.arange(n_series)
            ):
                # The full protocol by index: share the collection-side
                # materialization instead of building a duplicate stack.
                return QuerySet(
                    self, self._collection, positions, selector=selector
                )
            selected = [self._collection[int(i)] for i in positions]
            return QuerySet(self, selected, positions, selector=selector)
        membership = {
            id(item): index for index, item in enumerate(self._collection)
        }
        positions = np.fromiter(
            (membership.get(id(item), -1) for item in items),
            dtype=np.intp,
            count=len(items),
        )
        return QuerySet(self, items, positions)

    def materialization(self):
        """The collection's :class:`CollectionMaterialization` (pinned)."""
        return self._engine.materialize(self._collection)

    def __repr__(self) -> str:
        return (
            f"SimilaritySession(n_series={len(self)}, engine={self._engine!r})"
        )
