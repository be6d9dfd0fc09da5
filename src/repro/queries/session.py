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
:class:`~repro.queries.engine.QueryEngine` (its own by default), so
every query set against it reuses the same materialization matrices,
and dropping the session frees them.  :class:`QuerySet` is an
immutable fluent builder: ``queries()`` selects the query rows
(default: every series — the full protocol), ``using()`` binds a
technique, and the terminal verbs — ``knn``,
``range``, ``prob_range``, ``profile_matrix``, ``calibration_matrix`` —
run one matrix kernel and return structured result objects carrying
scores, rankings, and per-query timings.  ``knn``, ``range`` and
``prob_range`` run through one executor, :func:`execute_query`, which
a daemon runs for every request too: one plan over a column slice of a
session's collection (the whole collection in-process), then the top-k
ranking or the match sets, in global indices.

Queries that *are* collection members (selected by index, by identity, or
by the all-series default) are tracked positionally so result sets and
rankings exclude the self-match, exactly like the free-function protocol.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import normalize_tau
from ..core.errors import InvalidParameterError, UnsupportedQueryError
from .engine import QueryEngine
from .knn import check_knn_k, knn_table, local_topk_rows
from .planner import PlanPolicy, PruningStats
from .techniques import Technique, _epsilon_vector

#: The technique kind each query verb needs, and the error its absence
#: raises — in a query set's verb, and on a daemon's event loop before a
#: request runs.
_VERB_KINDS = {
    "knn": (
        "distance",
        "top-k requires a distance technique; {name} is probabilistic "
        "and its ranking depends on epsilon",
    ),
    "range": (
        "distance",
        "range() requires a distance technique; use prob_range() for "
        "{name}",
    ),
    "prob_range": (
        "probabilistic",
        "prob_range() requires a probabilistic technique; use range() "
        "for {name}",
    ),
}


def check_verb_kind(op: str, technique: Technique) -> None:
    """Raise :class:`UnsupportedQueryError` unless ``technique`` is of
    the kind the query verb ``op`` needs (``knn`` and ``range``:
    distance; ``prob_range``: probabilistic)."""
    kind, message = _VERB_KINDS[op]
    if technique.kind != kind:
        raise UnsupportedQueryError(message.format(name=technique.name))


def check_policy(policy: Optional[PlanPolicy]) -> Optional[PlanPolicy]:
    """Return ``policy`` if it is ``None`` or a :class:`PlanPolicy`, else
    raise :class:`InvalidParameterError` (every session shape's check)."""
    if policy is not None and not isinstance(policy, PlanPolicy):
        raise InvalidParameterError(
            f"policy must be a PlanPolicy, got {type(policy).__name__}"
        )
    return policy


def checked_selection(
    queries: Sequence, n_series: int
) -> Tuple[List, Optional[np.ndarray]]:
    """``(items, positions)`` of a selection other than every series,
    checked as every session shape checks it: it holds at least one
    query, and a selection of integers holds indices within ``[0,
    n_series)``, returned as ``positions`` (``None`` for any other)."""
    items = list(queries)
    if not items:
        raise InvalidParameterError(
            "a query set must contain at least one query"
        )
    if not all(isinstance(item, (int, np.integer)) for item in items):
        return items, None
    positions = np.asarray(items, dtype=np.intp)
    if np.any(positions < 0) or np.any(positions >= n_series):
        raise InvalidParameterError(
            f"query indices must be within [0, {n_series - 1}]"
        )
    return items, positions


def match_sets(
    values: np.ndarray, kind: str, threshold, query_positions: np.ndarray
) -> List[np.ndarray]:
    """Per-row result sets of an ``(M, N)`` score matrix.

    ``threshold`` is a scalar or one value per row.  Probability scores
    select ``score >= threshold``, distance and calibration scores
    ``score <= threshold``; a row's own column (``query_positions[i] >=
    0``) is excluded.  Indices are ascending.
    """
    cutoff = _epsilon_vector(threshold, values.shape[0])
    sets: List[np.ndarray] = []
    for position, row in enumerate(values):
        if kind == "probability":
            mask = row >= cutoff[position]
        else:
            mask = row <= cutoff[position]
        indices = np.flatnonzero(mask)
        own = query_positions[position]
        if own >= 0:
            indices = indices[indices != own]
        sets.append(indices)
    return sets


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
        are excluded (see :func:`match_sets`).
        """
        return match_sets(
            self.values, self.kind, threshold, self.query_positions
        )

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
    The backend receives the validated set whole and reads what it
    needs off it: rows, positions, technique and the session's policy.

    ``selector`` is the selection in the protocol's ``queries`` form
    (``None`` for every series, ``{"indices": [...]}`` or ``{"values":
    rows}``), set by a remote session so its backend ships the selection
    instead of serializing resolved series objects.
    """

    __slots__ = (
        "_session",
        "_queries",
        "_positions",
        "_technique",
        "_selector",
    )

    def __init__(
        self,
        session: "SimilaritySession",
        queries: Sequence,
        positions: np.ndarray,
        technique: Optional[Technique] = None,
        selector: Optional[Dict[str, Any]] = None,
    ) -> None:
        self._session = session
        self._queries = queries
        self._positions = positions
        self._technique = technique
        self._selector = selector

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
    def selector(self) -> Optional[Dict[str, Any]]:
        """The protocol's ``queries`` field for this selection (remote
        sessions; ``None`` selects every series)."""
        return self._selector

    @property
    def policy(self) -> Optional[PlanPolicy]:
        """The session's plan policy, which every verb plans under
        (``None``: the default ``PlanPolicy()``)."""
        return self._session.policy

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

        The plan runs in kNN decision mode: a summarization index (when
        the technique has one and the policy allows it) retires cells
        strictly beaten by ``k`` others as ``+inf`` before refinement, so
        rankings equal ``profile_matrix().top_k(k)``.  They break ties by
        candidate index.  A cluster backend ranks each column shard on
        its own daemon and merges the shards' candidates under the same
        rule (:func:`~repro.queries.knn.merge_knn_rows`), so its rankings
        are identical to the in-process ones.  ``k`` is checked here,
        once for every backend: at least 1 and at most the eligible
        candidates.
        """
        check_verb_kind("knn", self._require_technique())
        k = int(k)
        check_knn_k(k, len(self._session), self._positions)
        return self._session.backend.knn(self, k)

    def range(self, epsilon) -> RangeResult:
        """Per-query range results ``distance <= ε`` (Equation 1 batch).

        Because ``ε`` is known here, the plan runs in *decision* mode:
        techniques with a summarization index retire certain
        non-matches as ``+inf`` without refining them (``row <= ε``
        excludes them just the same), so only candidate cells pay for
        exact distances.  Match sets are identical to thresholding the
        full ``profile_matrix()``.
        """
        check_verb_kind("range", self._require_technique())
        eps = _epsilon_vector(epsilon, len(self._queries))
        return self._session.backend.range(self, eps)

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
        check_verb_kind("prob_range", self._require_technique())
        if not 0.0 <= tau <= 1.0:
            raise InvalidParameterError(
                f"tau must be within [0, 1], got {tau}"
            )
        eps = _epsilon_vector(epsilon, len(self._queries))
        return self._session.backend.prob_range(self, eps, float(tau))

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

    def _require_technique(self) -> Technique:
        if self._technique is None:
            raise InvalidParameterError(
                "no technique bound; chain .using(technique) first"
            )
        return self._technique

    def __repr__(self) -> str:
        bound = (
            self._technique.name if self._technique is not None else "<none>"
        )
        return f"QuerySet(n_queries={len(self)}, technique={bound})"


def execute_query(
    session: "SimilaritySession",
    technique: Technique,
    op: str,
    queries: Sequence,
    positions: np.ndarray,
    *,
    k: Optional[int] = None,
    epsilon: Optional[np.ndarray] = None,
    tau: Optional[float] = None,
    policy: Optional[PlanPolicy] = None,
    col_offset: int = 0,
) -> Union[KnnResult, RangeResult]:
    """Run one validated ``knn``, ``range`` or ``prob_range`` as one plan.

    The one query executor: an in-process session runs it over its whole
    collection, and a daemon once per request over the column slice
    ``[col_offset, col_offset + width)`` its ``session`` holds.
    ``positions`` are the query rows' **global** collection positions
    (``-1`` for a non-member); the verb takes ``k``, an ``(M,)`` ε
    vector, or ε and ``tau``.  Returns, in global indices, a
    :class:`KnnResult` — each row's top-``k`` of the slice ranked by
    :func:`~repro.queries.knn.local_topk_rows`, padded with ``-1`` /
    ``+inf`` where the slice is narrower than ``k`` — or a
    :class:`RangeResult` of ascending match sets.  ``elapsed_seconds``
    covers the plan and the ranking or match-set step.
    """
    width = len(session.collection)
    local = np.where(
        (positions >= col_offset) & (positions < col_offset + width),
        positions - col_offset,
        -1,
    ).astype(np.intp)
    kind = "probability" if op == "prob_range" else "distance"
    started = time.perf_counter()
    values, stats = technique.matrix_with_stats(
        kind,
        queries,
        session.collection,
        epsilon=epsilon,
        tau=tau,
        knn_k=k,
        exclude=None if k is None else local,
        policy=policy,
        engine=session.engine,
    )
    if k is not None:
        indices, scores = local_topk_rows(values, k, local, col_offset)
        return KnnResult(
            technique_name=technique.name,
            indices=indices,
            scores=scores,
            query_positions=positions,
            elapsed_seconds=time.perf_counter() - started,
            pruning_stats=stats,
        )
    found = match_sets(values, kind, epsilon if tau is None else tau, local)
    return RangeResult(
        technique_name=technique.name,
        kind="probabilistic" if op == "prob_range" else "distance",
        matches=tuple(rows + col_offset for rows in found),
        epsilons=epsilon,
        tau=tau,
        query_positions=positions,
        elapsed_seconds=time.perf_counter() - started,
        pruning_stats=stats,
    )


class SimilarityBackend(abc.ABC):
    """Where a :class:`QuerySet`'s validated verbs actually execute.

    The seam of the unified query surface: the fluent chain
    ``session.queries(...).using(technique).knn(k)`` validates locally
    and then hands the validated query set, whole, to the session's
    backend, which may run the kernel in this process
    (:class:`InProcessBackend`) or on daemons
    (``repro.service.cluster.ClusterCoordinator``: a shard fleet, or one
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
    """Execute verbs in this process, on the session's engine.

    The three query verbs run :func:`execute_query` over the whole
    collection — the executor a daemon runs for every request — and the
    two matrix verbs run the plan once and return its whole matrix.
    """

    @staticmethod
    def _execute(query_set: QuerySet, op: str, **arguments):
        return execute_query(
            query_set.session,
            query_set.technique,
            op,
            query_set._queries,
            query_set.query_positions,
            policy=query_set.policy,
            **arguments,
        )

    @staticmethod
    def _matrix(query_set: QuerySet, kind: str, epsilon=None, tau=None):
        """One timed run of the plan, its ``(M, N)`` scores returned whole."""
        technique, session = query_set.technique, query_set.session
        started = time.perf_counter()
        values, stats = technique.matrix_with_stats(
            kind,
            query_set._queries,
            session.collection,
            epsilon=epsilon,
            tau=tau,
            policy=query_set.policy,
            engine=session.engine,
        )
        return MatrixResult(
            technique_name=technique.name,
            kind=kind,
            values=values,
            query_positions=query_set.query_positions,
            elapsed_seconds=time.perf_counter() - started,
            epsilons=epsilon,
            pruning_stats=stats,
        )

    def knn(self, query_set: QuerySet, k: int) -> KnnResult:
        return self._execute(query_set, "knn", k=k)

    def range(self, query_set: QuerySet, eps: np.ndarray) -> RangeResult:
        return self._execute(query_set, "range", epsilon=eps)

    def prob_range(
        self, query_set: QuerySet, eps: np.ndarray, tau: float
    ) -> RangeResult:
        return self._execute(query_set, "prob_range", epsilon=eps, tau=tau)

    def profile_matrix(
        self, query_set: QuerySet, eps: Optional[np.ndarray], tau=None
    ) -> MatrixResult:
        if eps is None:
            return self._matrix(query_set, "distance")
        return self._matrix(query_set, "probability", eps, tau)

    def calibration_matrix(self, query_set: QuerySet) -> MatrixResult:
        return self._matrix(query_set, "calibration")

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
        defaults to a new engine the session owns, so the engine holds
        only this session's collection (and, for a loaded-map query
        sequence, that map).  Pass one engine to several sessions to
        share their materializations, e.g. to compare indexed and
        unindexed plans on one set of matrices.
    policy:
        The :class:`~repro.queries.planner.PlanPolicy` every query set
        of the session plans under (``None``: the default
        ``PlanPolicy()``).  The session is the one place it is set.

    Every verb runs the technique's ``(M, N)`` query plan in this
    process on the session's engine (``knn``, ``range`` and
    ``prob_range`` through :func:`execute_query`); the technique itself
    is never modified, so one instance may serve many sessions and
    threads at once.  Sharding across processes is the
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
        self._collection = collection
        self._engine = engine if engine is not None else QueryEngine()
        self._policy = check_policy(policy)
        self._backend = InProcessBackend()
        self._closed = False
        self._engine.materialize(collection)

    @property
    def policy(self) -> Optional[PlanPolicy]:
        """The session's plan policy (``None``: ``PlanPolicy()``)."""
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
        their self-matches are excluded from result sets and rankings;
        the collection's materialization keeps the identity map).
        """
        n_series = len(self._collection)
        if queries is None:
            positions = np.arange(n_series, dtype=np.intp)
            return QuerySet(self, self._collection, positions)
        items, positions = checked_selection(queries, n_series)
        if positions is None:
            members = self.materialization().member_positions(items)
            return QuerySet(self, items, members)
        if positions.size == n_series and np.array_equal(
            positions, np.arange(n_series)
        ):
            # The full protocol by index: share the collection-side
            # materialization instead of building a duplicate stack.
            return QuerySet(self, self._collection, positions)
        selected = [self._collection[int(i)] for i in positions]
        return QuerySet(self, selected, positions)

    def materialization(self):
        """The collection's :class:`CollectionMaterialization` (pinned)."""
        return self._engine.materialize(self._collection)

    def __repr__(self) -> str:
        return (
            f"SimilaritySession(n_series={len(self)}, engine={self._engine!r})"
        )
