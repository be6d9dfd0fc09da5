"""Uniform technique adapters for the similarity-matching task.

The paper's comparison methodology (Section 4.1.2) evaluates heterogeneous
methods on one common task.  The harness talks to every method through the
:class:`Technique` interface:

* **distance techniques** (Euclidean, DUST, UMA, UEMA, …) expose
  ``distance(q, c)`` and answer a range query as ``distance <= ε``, with
  ``ε`` calibrated per query from the same method's distance to the 10th
  nearest neighbor;
* **probabilistic techniques** (PROUD, MUNICH) expose
  ``probability(q, c, ε)`` and answer ``probability >= τ``, with the common
  Euclidean ``ε_eucl`` ("since the distances in MUNICH and PROUD are based
  on the Euclidean distance, we will use the same threshold for both").

Exposing the raw probability (rather than just the boolean) lets the
evaluation layer sweep ``τ`` cheaply to find the paper's "optimal τ".

The per-pair methods (``distance`` / ``probability`` /
``calibration_distance``) are each technique's *reference*: tests
compare against them and a custom technique implements only them.
Everything collection-level runs through one ``(M, N)`` kernel per
kind.  A kernel reads two
:class:`~repro.queries.engine.CollectionMaterialization` objects, the
query side and the candidate side, which the plan resolves once
(:meth:`~repro.queries.planner.QueryPlan.execute`); no technique looks
a collection up itself.  A single query is the ``M = 1`` row.  A
technique holds its parameters only, so one instance may serve any
number of sessions and threads at once.

Matrix API
----------

The full evaluation protocol (Section 4.1.2) makes *every* series of a
collection a query against all others — an ``(M, N)`` workload, not ``M``
independent rows.  :meth:`Technique.distance_matrix` /
:meth:`Technique.probability_matrix` answer it in one call:

* Euclidean / UMA / UEMA reduce to a single GEMM through the
  ``‖a−b‖² = ‖a‖² + ‖b‖² − 2a·b`` identity over the cached (filtered)
  materialization matrices, with exact recomputation of near-duplicate
  entries where the expansion cancels;
* DUST applies its lookup tables to the whole ``(M, N, n)`` difference
  tensor, grouped by error-model code so a homogeneous run is one fused
  table application;
* PROUD broadcasts its moment algebra (Equations 5–7) over the query
  axis — under a constant assumed σ the moments are pure functions of the
  squared-Euclidean GEMM;
* MUNICH evaluates its bounding-interval filters for all pairs at once
  and pays the per-pair convolution only for the undecided middle.

``probability_matrix`` accepts one ε per query (or a scalar), matching
the protocol's per-query calibrated thresholds.  Base-class kernels loop
over the per-pair methods, so custom techniques keep working; tensor
kernels process bounded query blocks to keep peak memory flat.
The declarative front door for all of this is
:class:`repro.queries.session.SimilaritySession`.

Query plans
-----------

Every matrix workload executes through a
:class:`~repro.queries.planner.QueryPlan` — the unified filter-and-refine
cascade.  :meth:`Technique.build_plan` names the stages (the default is a
single :class:`~repro.queries.planner.RefineStage`, i.e. the exact kernel
over every cell, so custom subclasses keep working unchanged); MUNICH
prepends a :class:`~repro.queries.planner.BoundStage` over its cached
bounding-interval stacks, MUNICH-DTW a slack-guarded one over its
band-inflated envelope stacks, and both swap the fixed-sample Monte Carlo
refinement for an :class:`~repro.queries.planner.AdaptiveMCStage` when a
decision threshold ``τ`` is known (``prob_range``); MUNICH's convolution
refine reads ``τ`` too and runs the exact DP only on cells its
Hoeffding and Berry–Esseen bounds leave undecided.  The exact
kernels the plans refine with live in ``distance_kernel`` /
``probability_kernel`` / ``calibration_kernel`` / ``refine_matrix``;
:meth:`Technique.matrix_with_stats` returns the score matrix together
with the executed plan's :class:`~repro.queries.planner.PruningStats`.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import MATRIX_BLOCK_ELEMENTS, epsilon_vector, normalize_tau
from ..core.errors import InvalidParameterError, UnsupportedQueryError
from ..core.summaries import (
    DEFAULT_SEGMENTS,
    interval_lower_bound,
    paa_bound_slack,
    paa_lower_bound,
)
from ..core.uncertain import (
    ErrorModel,
    MultisampleUncertainTimeSeries,
    UncertainTimeSeries,
)
from ..distances.dtw_batch import (
    PRUNE_SLACK,
    diagonal_slices,
    dtw_hits_paired,
    rolling_dtw_from_cost_fn,
    rolling_stack_blocks,
)
from ..distances.filtered import FilteredEuclidean
from ..distances.lp import (
    euclidean,
    euclidean_matrix,
    squared_euclidean_matrix,
)
from ..distributions import make_distribution
from ..dust.distance import HETEROGENEOUS_DTW_MESSAGE, Dust
from ..munich.batch import convolved_probability_batch
from ..munich.bounds import interval_gap_and_span
from ..munich.exact import draw_choices, draw_materialization_pairs
from ..munich.query import Munich
from ..proud.query import Proud
from ..stats.normal import std_normal_cdf
from .engine import CollectionMaterialization
from .index import IndexStage
from .planner import (
    AdaptiveMCStage,
    BoundStage,
    PlanPolicy,
    PruningStats,
    QueryPlan,
    RefineStage,
    adaptive_mc_schedule,
    effective_index_enabled,
    sequential_mc_verdict,
)

#: Element budget for one batched Monte Carlo refinement block: bounds
#: the ``(cells · s, n)`` stacked draw tensors the MUNICH-DTW refine
#: stage pushes through one DP call.
MC_BATCH_ELEMENTS = 1 << 20


def _query_blocks(n_queries: int, n_candidates: int, length: int):
    """Yield ``(start, stop)`` query-row blocks for tensor matrix kernels."""
    per_query = max(1, n_candidates * max(length, 1))
    block = max(1, MATRIX_BLOCK_ELEMENTS // per_query)
    for start in range(0, n_queries, block):
        yield start, min(start + block, n_queries)


def _per_pair_matrix(
    score, queries: Sequence, collection: Sequence, *row_args
) -> np.ndarray:
    """``(M, N)`` matrix of ``score(query, candidate, *row_args[i])``.

    The base-class kernel: one per-pair call per cell, with each
    ``row_args`` vector (e.g. per-query ε) supplying one scalar per row.
    """
    out = np.empty((len(queries), len(collection)))
    for i, query in enumerate(queries):
        extra = [float(values[i]) for values in row_args]
        for j, candidate in enumerate(collection):
            out[i, j] = score(query, candidate, *extra)
    return out


def _sparse_euclidean_refine(
    query_matrix: np.ndarray,
    matrix: np.ndarray,
    out: np.ndarray,
    undecided: np.ndarray,
) -> int:
    """Euclidean refinement of only the undecided cells, row by row.

    Gathering each row's candidate columns keeps the kernel cost (and,
    on a memory-mapped collection, the bytes actually read) proportional
    to the surviving candidate set instead of ``M × N`` — the payoff of
    index pruning at scale.  The gather runs in slices of
    ``MATRIX_BLOCK_ELEMENTS // n`` columns, so one row's copy of the
    candidate series stays a bounded, cache-sized block however many
    candidates survive.
    """
    width = max(1, MATRIX_BLOCK_ELEMENTS // max(matrix.shape[1], 1))
    refined = 0
    for row in np.flatnonzero(undecided.any(axis=1)):
        columns = np.flatnonzero(undecided[row])
        for start in range(0, columns.size, width):
            block = columns[start:start + width]
            out[row, block] = euclidean_matrix(
                query_matrix[row:row + 1], matrix[block]
            )[0]
        refined += columns.size
    return refined


class Technique(abc.ABC):
    """A similarity-matching method under the common evaluation protocol.

    An instance holds its parameters only.  Every plan hook
    (``distance_kernel``, ``probability_kernel``, ``calibration_kernel``,
    ``matrix_bounds``, ``index_bounds``, ``refine_matrix``) takes the
    workload's two sides, ``(query_side, candidate_side)``: the
    :class:`~repro.queries.engine.CollectionMaterialization` objects the
    plan resolved for its query rows and its candidate collection.  A
    hook reads arrays off them and looks nothing up, so concurrent runs
    of one instance in different sessions cannot see each other's
    collections.  The base kernels loop the per-pair methods over
    ``side.collection``, so a custom technique that implements only
    ``distance`` or ``probability`` keeps working.
    """

    #: Display name used in result tables.
    name: str = "abstract"
    #: ``"distance"`` or ``"probabilistic"``.
    kind: str = "distance"
    #: ``"pdf"`` for single-observation input, ``"multisample"`` for MUNICH.
    input_kind: str = "pdf"
    #: PAA summarization-index geometry (segments per series) backing
    #: :class:`~repro.queries.index.IndexStage`, or ``None`` when the
    #: technique has no admissible summary bound (DUST's table costs are
    #: not Euclidean; PROUD's probabilities never reach exactly 0).
    index_segments: Optional[int] = None

    def reset(self) -> None:
        """Drop any per-series memos (called between datasets).

        The base technique keeps none; collection-level arrays live in
        the materializations a plan reads, which a session holds and
        rebuilds when its collection changes in place.
        """

    def distance(self, query, candidate) -> float:
        """Distance value (distance techniques only)."""
        raise UnsupportedQueryError(f"{self.name} is not a distance technique")

    def probability(self, query, candidate, epsilon: float) -> float:
        """``Pr(distance <= ε)`` (probabilistic techniques only)."""
        raise UnsupportedQueryError(
            f"{self.name} is not a probabilistic technique"
        )

    def calibration_distance(self, query, candidate) -> float:
        """Distance used to derive this technique's ``ε`` from the 10th NN.

        Distance techniques use their own distance; probabilistic ones use
        Euclidean on the observations (the paper's ``ε_eucl``).
        """
        return self.distance(query, candidate)

    # -- the planned matrix API --------------------------------------------

    def build_plan(
        self, kind: str, tau: Optional[float] = None
    ) -> QueryPlan:
        """The filter-and-refine cascade for one workload ``kind``.

        The default plan is a single
        :class:`~repro.queries.planner.RefineStage` — the exact kernel
        over every cell, exactly the pre-planner behaviour, which is
        what keeps custom subclasses working unchanged.  Techniques
        with sound cheap bounds prepend a ``BoundStage``; Monte Carlo
        techniques swap the refinement for an ``AdaptiveMCStage`` when
        the decision threshold ``tau`` is known.
        """
        return QueryPlan((RefineStage(),))

    def matrix_with_stats(
        self,
        kind: str,
        queries: Union[Sequence, CollectionMaterialization],
        collection: Sequence,
        epsilon=None,
        tau=None,
        knn_k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        policy: Optional[PlanPolicy] = None,
        candidate_side: Optional[CollectionMaterialization] = None,
    ) -> Tuple[np.ndarray, PruningStats]:
        """Execute this technique's plan over an ``(M, N)`` workload.

        Returns ``(values, stats)`` — the score matrix plus the
        executed plan's :class:`~repro.queries.planner.PruningStats`
        (candidates decided per stage, refinements run, Monte Carlo
        samples evaluated, per-stage wall time).

        ``knn_k``/``exclude`` (top-k workloads) and a distance-kind
        ``epsilon`` (decision-mode range workloads) let the
        summarization index retire certain non-candidates as ``+inf``
        before any kernel runs; plain matrix workloads are unchanged.

        ``tau`` may be a scalar decision threshold or a tuple of grid
        thresholds — Monte Carlo techniques then bracket the whole grid
        in one adaptive pass.  ``policy`` (default ``PlanPolicy()``; a
        session passes its own) decides whether the index stage may be
        prepended to the cascade.  ``candidate_side`` is the collection's
        materialization (a session passes its own; default: the plan
        builds one and drops it on return); ``queries`` may be passed as
        a materialization too.
        """
        tau = normalize_tau(tau)
        plan = self._indexed_plan(
            self.build_plan(kind, tau=tau), kind, epsilon, knn_k, policy
        )
        return plan.execute(
            self, kind, queries, collection, epsilon=epsilon, tau=tau,
            knn_k=knn_k, exclude=exclude, candidate_side=candidate_side,
        )

    def _indexed_plan(
        self,
        plan: QueryPlan,
        kind: str,
        epsilon,
        knn_k: Optional[int],
        policy: Optional[PlanPolicy] = None,
    ) -> QueryPlan:
        """Prepend an :class:`~repro.queries.index.IndexStage` when the
        workload carries decision information the index can prune with.

        Distance workloads qualify with a top-k target or a range ε;
        probability workloads qualify when the technique already plans a
        bound stage (the index is that stage's cheap summary-resolution
        pre-filter — a technique that opted out of pruning keeps its
        pure-refine plan).  A ``mode="fixed"`` policy keeps the stage
        out of the plan: ``build_plan`` runs exactly as authored.
        """
        if not effective_index_enabled(policy):
            return plan
        if self.index_segments is None or any(
            isinstance(stage, IndexStage) for stage in plan.stages
        ):
            return plan
        if kind == "distance":
            wanted = knn_k is not None or epsilon is not None
        elif kind == "probability":
            wanted = any(
                isinstance(stage, BoundStage) for stage in plan.stages
            )
        else:
            wanted = False
        if not wanted:
            return plan
        return QueryPlan((IndexStage(),) + plan.stages)

    def distance_matrix(self, queries: Sequence, collection: Sequence) -> np.ndarray:
        """``(M, N)`` distances: every query row against every collection series.

        Executes the technique's :meth:`build_plan` cascade (for
        distance techniques: one :meth:`distance_kernel` refine pass).
        Use :meth:`matrix_with_stats` to also get the pruning stats.
        """
        return self.matrix_with_stats("distance", queries, collection)[0]

    def probability_matrix(
        self, queries: Sequence, collection: Sequence, epsilon
    ) -> np.ndarray:
        """``(M, N)`` match probabilities under per-query thresholds.

        ``epsilon`` is a scalar or an ``(M,)`` vector — the evaluation
        protocol calibrates one ε per query.  Executes the technique's
        plan: bound stages decide the clear hits/misses, refine stages
        run the exact kernel on the remainder.
        """
        return self.matrix_with_stats(
            "probability", queries, collection, epsilon=epsilon
        )[0]

    def calibration_matrix(
        self, queries: Sequence, collection: Sequence
    ) -> np.ndarray:
        """``(M, N)`` calibration distances (the ε-derivation matrix).

        Always a single refine pass over :meth:`calibration_kernel`;
        the harness reads each query's ε straight off its anchor
        column.
        """
        return self.matrix_with_stats("calibration", queries, collection)[0]

    # -- plan building blocks (what concrete techniques override) ----------

    def matrix_bounds(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lower, upper)`` distance-bound stacks for a ``BoundStage``.

        Bounds must hold for *every* materialization of each pair.
        Only techniques that plan a bound stage implement this.
        """
        raise UnsupportedQueryError(
            f"{self.name} does not provide matrix bounds"
        )

    def index_bounds(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Summarization-index bounds for an :class:`IndexStage`.

        Returns ``(lower, slack)``: admissible ``(M, N)`` lower bounds
        on the scores :meth:`refine_matrix` computes, from the
        ``S``-segment PAA summaries, and the relative guard a pruning
        comparison needs so a float bound never overtakes a float
        score.  The stage owns ``lower`` and may write into it.
        ``None`` when this technique/workload has no admissible summary
        bound, which makes the stage a sound no-op.
        """
        return None

    def refine_matrix(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
        epsilon: Optional[np.ndarray],
        out: np.ndarray,
        undecided: np.ndarray,
        tau: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Exact kernel over the surviving candidate mask.

        Fills every still-``undecided`` cell of ``out`` and returns
        ``(refined, samples_drawn)`` accounting.  The base
        implementation evaluates the dense kernel and scatters the
        masked cells; techniques whose refinement is per-candidate
        (MUNICH's convolution, the Monte Carlo evaluators) override it
        to touch only the undecided cells.
        """
        if kind == "distance":
            dense = self.distance_kernel(query_side, candidate_side)
        elif kind == "calibration":
            dense = self.calibration_kernel(query_side, candidate_side)
        else:
            dense = self.probability_kernel(
                query_side, candidate_side, epsilon
            )
        dense = np.asarray(dense, dtype=np.float64)
        if undecided.all():
            # No bound stage ran (or nothing was decided): plain copy
            # instead of two boolean gathers over the full grid.
            out[:] = dense
            return out.size, 0
        out[undecided] = dense[undecided]
        return int(np.count_nonzero(undecided)), 0

    def distance_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """The exact all-pairs distance kernel the refine stage runs.

        Base implementation loops over the per-pair :meth:`distance`.
        """
        return _per_pair_matrix(
            self.distance, query_side.collection, candidate_side.collection
        )

    def probability_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
        epsilon,
    ) -> np.ndarray:
        """The exact all-pairs probability kernel the refine stage runs.

        Base implementation loops over the per-pair :meth:`probability`.
        """
        eps = epsilon_vector(epsilon, len(query_side))
        return _per_pair_matrix(
            self.probability, query_side.collection, candidate_side.collection, eps
        )

    def calibration_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """The exact calibration-distance kernel the refine stage runs.

        For distance techniques this *is* :meth:`distance_kernel`; for
        probabilistic ones the base implementation loops over the
        per-pair :meth:`calibration_distance` (concrete techniques
        override with a Euclidean GEMM).
        """
        if self.kind == "distance":
            return self.distance_kernel(query_side, candidate_side)
        return _per_pair_matrix(
            self.calibration_distance,
            query_side.collection,
            candidate_side.collection,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class EuclideanTechnique(Technique):
    """The baseline: Euclidean distance on the raw observations,
    ignoring every piece of uncertainty information (Section 4.1.2)."""

    name = "Euclidean"
    kind = "distance"
    index_segments = DEFAULT_SEGMENTS

    def __init__(self, index_segments: Optional[int] = DEFAULT_SEGMENTS) -> None:
        self.index_segments = index_segments

    def distance(
        self, query: UncertainTimeSeries, candidate: UncertainTimeSeries
    ) -> float:
        return euclidean(query.observations, candidate.observations)

    def _stack(self, side: CollectionMaterialization) -> np.ndarray:
        """The ``(rows, n)`` matrix one side's scores compare."""
        return side.values_matrix()

    def _summary(self, side: CollectionMaterialization, n_segments: int):
        """The PAA summary of :meth:`_stack` (the index geometry)."""
        return side.paa_summary(n_segments)

    def distance_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """All-pairs Euclidean in one GEMM over the two sides' stacks."""
        return euclidean_matrix(
            self._stack(query_side), self._stack(candidate_side)
        )

    def index_bounds(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Optional[Tuple[np.ndarray, float]]:
        """PAA projection bounds over the two sides' cached summaries.

        The lower bound is the Euclidean distance between the
        (width-scaled) segment-mean vectors — an orthogonal projection,
        hence a contraction — guarded by :func:`paa_bound_slack`.
        """
        if (
            kind != "distance"
            or self.index_segments is None
            or len(candidate_side) == 0
        ):
            return None
        summary = self._summary(candidate_side, self.index_segments)
        query_summary = self._summary(query_side, summary.n_segments)
        return (
            paa_lower_bound(query_summary, summary),
            paa_bound_slack(summary.length, summary.n_segments),
        )

    def refine_matrix(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
        epsilon: Optional[np.ndarray],
        out: np.ndarray,
        undecided: np.ndarray,
        tau: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Dense GEMM normally; candidate-gather refinement when the
        index pruned most of the grid (sub-linear at scale)."""
        if undecided.all() or 2 * np.count_nonzero(undecided) >= undecided.size:
            return super().refine_matrix(
                kind, query_side, candidate_side, epsilon, out, undecided,
                tau=tau,
            )
        return _sparse_euclidean_refine(
            self._stack(query_side), self._stack(candidate_side), out,
            undecided,
        ), 0


class DustTechnique(Technique):
    """DUST distance using each series' *reported* error model.

    Lookup tables come from the process-wide
    :func:`~repro.dust.tables.dust_table` store through
    :meth:`~repro.dust.Dust.table`; the technique keeps no table cache.
    """

    name = "DUST"
    kind = "distance"

    def __init__(self, tail_workaround: bool = True) -> None:
        self._dust = Dust(tail_workaround=tail_workaround)

    @property
    def dust(self) -> Dust:
        """The underlying :class:`~repro.dust.Dust` engine (shared tables)."""
        return self._dust

    def distance(
        self, query: UncertainTimeSeries, candidate: UncertainTimeSeries
    ) -> float:
        return self._dust.distance(query, candidate)

    def distance_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """DUST lifted to the full ``(M, N, n)`` difference tensor.

        Query- and collection-side error models are merged into one code
        space; a homogeneous workload (the common case) is a single fused
        table application per query block, and mixed-error workloads cost
        one application per distinct ``(error_q, error_c)`` pair.  Blocks
        bound peak memory to a few MB regardless of ``M × N``.
        """
        n_queries = len(query_side)
        n_series = len(candidate_side)
        values = candidate_side.values_matrix()
        codes, distincts = candidate_side.model_codes()
        query_values = query_side.values_matrix()
        query_codes, query_distincts = query_side.model_codes()

        mapping = {distribution: i for i, distribution in enumerate(distincts)}
        translate = np.fromiter(
            (
                mapping.setdefault(distribution, len(mapping))
                for distribution in query_distincts
            ),
            dtype=np.intp,
            count=len(query_distincts),
        )
        all_distinct = list(mapping)
        n_codes = len(all_distinct)
        length = values.shape[1]
        out = np.empty((n_queries, n_series))

        if n_codes == 1:
            table = self._dust.table(all_distinct[0], all_distinct[0])
            # The full protocol queries the collection against itself; with
            # one shared error model DUST is symmetric, so only the upper
            # triangle (plus the small in-block overlap) is computed and
            # the rest is mirrored — per-cell values are bit-identical to
            # the one-row kernel either way.
            symmetric = query_side is candidate_side
            for start, stop in _query_blocks(n_queries, n_series, length):
                columns = values[start:] if symmetric else values
                differences = np.abs(
                    columns[None, :, :] - query_values[start:stop, None, :]
                )
                block = table.dust_squared_sum(differences)
                if symmetric:
                    out[start:stop, start:] = block
                else:
                    out[start:stop] = block
            if symmetric and n_queries > 1:
                lower = np.tril_indices(n_queries, k=-1)
                out[lower] = out.T[lower]
            return np.sqrt(out, out=out)

        joint_query_codes = translate[query_codes]
        for start, stop in _query_blocks(n_queries, n_series, length):
            differences = np.abs(
                values[None, :, :] - query_values[start:stop, None, :]
            )
            pair_codes = (
                joint_query_codes[start:stop, None, :] * n_codes
                + codes[None, :, :]
            )
            dust_squared = np.empty_like(differences)
            for pair in np.unique(pair_codes):
                query_index, candidate_index = divmod(int(pair), n_codes)
                table = self._dust.table(
                    all_distinct[query_index], all_distinct[candidate_index]
                )
                cells = pair_codes == pair
                dust_squared[cells] = table.dust_squared(differences[cells])
            out[start:stop] = dust_squared.sum(axis=2)
        return np.sqrt(out, out=out)


class FilteredTechnique(EuclideanTechnique):
    """UMA / UEMA / MA / EMA: Euclidean over filtered sequences.

    Euclidean's kernel, index bounds and refinement, run over the
    filtered stacks: the two accessors below swap the values matrix and
    its PAA summary for the filtered matrix and its summary, so the index
    summarizes the same stacks the kernel compares (summarizing raw
    observations would not be admissible).  A full query workload filters
    every series exactly once: the filtered matrices live in the
    collection's materialization, keyed by the
    :class:`~repro.distances.filtered.FilteredEuclidean` value object.
    """

    def __init__(
        self,
        filtered: FilteredEuclidean,
        index_segments: Optional[int] = DEFAULT_SEGMENTS,
    ) -> None:
        super().__init__(index_segments)
        self.filtered = filtered
        self.name = filtered.name

    @classmethod
    def uma(cls, window: int = 2) -> "FilteredTechnique":
        """UMA with the paper's default window ``w=2``."""
        return cls(FilteredEuclidean("uma", window=window))

    @classmethod
    def uema(cls, window: int = 2, decay: float = 1.0) -> "FilteredTechnique":
        """UEMA with the paper's defaults ``w=2, λ=1``."""
        return cls(FilteredEuclidean("uema", window=window, decay=decay))

    def distance(
        self, query: UncertainTimeSeries, candidate: UncertainTimeSeries
    ) -> float:
        return self.filtered.distance(query, candidate)

    def _stack(self, side: CollectionMaterialization) -> np.ndarray:
        return side.filtered_matrix(self.filtered)

    def _summary(self, side: CollectionMaterialization, n_segments: int):
        return side.filtered_paa_summary(self.filtered, n_segments)


class ProudTechnique(Technique):
    """PROUD under the harness protocol.

    PROUD "requires to know the standard deviation of the uncertainty
    error [...] constant across all timestamps" (Section 3.1).  When
    ``assumed_std`` is given, every series' error model is replaced by that
    constant-σ normal model — the knob the mixed-error experiments turn
    (σ=0.7 in Figures 8–10).  Otherwise the series' reported model is used
    as-is.
    """

    name = "PROUD"
    kind = "probabilistic"

    def __init__(
        self,
        assumed_std: Optional[float] = None,
        synopsis_coefficients: Optional[int] = None,
    ) -> None:
        # The technique returns raw probabilities and callers apply tau;
        # the default here only matters for direct use of ``Proud``.
        self._proud = Proud(tau=0.5, synopsis_coefficients=synopsis_coefficients)
        self.assumed_std = assumed_std
        self._model_cache: Dict[
            int, Tuple[UncertainTimeSeries, UncertainTimeSeries]
        ] = {}

    def reset(self) -> None:
        self._model_cache.clear()
        if self._proud.synopsis is not None:
            self._proud.synopsis.clear_cache()
        super().reset()

    def _with_assumed_model(
        self, series: UncertainTimeSeries
    ) -> UncertainTimeSeries:
        if self.assumed_std is None:
            return series
        key = id(series)
        entry = self._model_cache.get(key)
        if entry is None:
            model = ErrorModel.constant(
                make_distribution("normal", self.assumed_std), len(series)
            )
            rewritten = UncertainTimeSeries(
                series.observations, model,
                label=series.label, name=series.name,
            )
            # The original series is kept alongside the rewrite: the strong
            # reference pins its id for the lifetime of the cache entry.
            self._model_cache[key] = (series, rewritten)
            return rewritten
        return entry[1]

    def probability(
        self,
        query: UncertainTimeSeries,
        candidate: UncertainTimeSeries,
        epsilon: float,
    ) -> float:
        return self._proud.match_probability(
            self._with_assumed_model(query),
            self._with_assumed_model(candidate),
            epsilon,
        )

    def probability_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
        epsilon,
    ) -> np.ndarray:
        """PROUD's moment algebra broadcast over the query axis.

        Under a constant assumed σ the mean and variance of the
        squared-distance distribution are affine in the squared Euclidean
        distance, so the whole matrix reduces to one GEMM.  With reported
        (possibly heterogeneous) models the per-timestamp moments are
        accumulated over bounded ``(B, N, n)`` blocks.  ``epsilon`` may be
        a scalar or one threshold per query.  The synopsis variant
        estimates moments per union-of-coefficients and keeps the
        per-pair path.
        """
        n_queries = len(query_side)
        eps = epsilon_vector(epsilon, n_queries)
        if self._proud.synopsis is not None:
            return super().probability_kernel(query_side, candidate_side, eps)
        values = candidate_side.values_matrix()
        query_values = query_side.values_matrix()
        n_series, length = values.shape

        if self.assumed_std is not None:
            assumed_variance = self.assumed_std * self.assumed_std
            variance_d = assumed_variance + assumed_variance
            squared = squared_euclidean_matrix(query_values, values)
            mean = squared + length * variance_d
            variance = (
                2.0 * variance_d * variance_d * length
                + 4.0 * variance_d * squared
            )
        else:
            variances = candidate_side.variances_matrix()
            query_variances = query_side.variances_matrix()
            mean = np.empty((n_queries, n_series))
            variance = np.empty((n_queries, n_series))
            for start, stop in _query_blocks(n_queries, n_series, length):
                observed = values[None, :, :] - query_values[start:stop, None, :]
                block_variance_d = (
                    variances[None, :, :]
                    + query_variances[start:stop, None, :]
                )
                observed *= observed  # squared residuals, in place
                mean[start:stop] = (observed + block_variance_d).sum(axis=2)
                variance[start:stop] = (
                    2.0 * block_variance_d * block_variance_d
                    + 4.0 * observed * block_variance_d
                ).sum(axis=2)

        epsilon_squared = (eps * eps)[:, None]
        probabilities = np.where(mean <= epsilon_squared, 1.0, 0.0)
        random = variance > 0.0
        if np.any(random):
            z = (
                np.broadcast_to(epsilon_squared, mean.shape)[random]
                - mean[random]
            ) / np.sqrt(variance[random])
            probabilities[random] = std_normal_cdf(z)
        return probabilities

    def calibration_distance(
        self, query: UncertainTimeSeries, candidate: UncertainTimeSeries
    ) -> float:
        return euclidean(query.observations, candidate.observations)

    def calibration_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """All-pairs ε_eucl in one GEMM over the cached values matrices."""
        return euclidean_matrix(
            query_side.values_matrix(), candidate_side.values_matrix()
        )


class _MultisampleCalibration:
    """ε_eucl calibration for multisample (MUNICH-family) techniques.

    The paper's ε_eucl is "the Euclidean distance on the observations".
    A multisample series' observation is one sample draw per timestamp
    (column 0 — any fixed column is a single observation); using the
    sample *means* instead would understate the noise inflation that the
    materialization distances carry, systematically deflating match
    probabilities.
    """

    def calibration_distance(
        self,
        query: MultisampleUncertainTimeSeries,
        candidate: MultisampleUncertainTimeSeries,
    ) -> float:
        return euclidean(query.samples[:, 0], candidate.samples[:, 0])

    def calibration_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """All-pairs ε_eucl in one GEMM over the column-0 sample matrices."""
        return euclidean_matrix(
            query_side.sample_column_matrix(0),
            candidate_side.sample_column_matrix(0),
        )


class MunichTechnique(_MultisampleCalibration, Technique):
    """MUNICH under the harness protocol (multi-sample input)."""

    name = "MUNICH"
    kind = "probabilistic"
    input_kind = "multisample"
    index_segments = DEFAULT_SEGMENTS

    def __init__(
        self,
        munich: Optional[Munich] = None,
        index_segments: Optional[int] = DEFAULT_SEGMENTS,
    ) -> None:
        self._munich = munich if munich is not None else Munich(tau=0.5)
        self.index_segments = index_segments

    @property
    def munich(self) -> Munich:
        """The underlying :class:`~repro.munich.Munich` engine."""
        return self._munich

    def _evaluate_undecided(
        self,
        query: MultisampleUncertainTimeSeries,
        candidate_side: CollectionMaterialization,
        epsilon: float,
        out: np.ndarray,
        undecided: np.ndarray,
        tau=None,
    ) -> None:
        """Probability evaluation for the bound-undecided candidates.

        Convolution mode runs the whole undecided set through the
        stacked batch evaluator on the collection's materialized sample
        tensor (shared bin grid per query), in decision mode when
        ``tau`` is known; the Monte Carlo and naive evaluators — and
        ragged-sample collections the tensor cannot represent — keep
        the per-pair path.
        """
        if undecided.size == 0:
            return
        if self._munich.method == "convolution":
            tensor = candidate_side.samples_tensor()
            if tensor is not None:
                out[undecided] = convolved_probability_batch(
                    query,
                    tensor[undecided],
                    epsilon,
                    n_bins=self._munich.n_bins,
                    tau=tau,
                )
                return
        collection = candidate_side.collection
        for index in undecided:
            out[index] = self._munich.probability(
                query, collection[index], epsilon
            )

    def probability(
        self,
        query: MultisampleUncertainTimeSeries,
        candidate: MultisampleUncertainTimeSeries,
        epsilon: float,
    ) -> float:
        return self._munich.probability(query, candidate, epsilon)

    def build_plan(
        self, kind: str, tau: Optional[float] = None
    ) -> QueryPlan:
        """Bound stage (when enabled) + batched refine.

        With ``method="montecarlo"`` and a known decision threshold the
        refinement runs adaptively (escalating sample rounds, sequential
        stopping).  The convolution refine stage receives ``τ`` too and
        decides most cells from Hoeffding and Berry–Esseen bounds,
        running the exact DP only on the rest (see
        :func:`~repro.munich.batch.convolved_probability_batch`); the
        naive evaluator always refines in full.
        """
        if kind != "probability":
            return super().build_plan(kind, tau=tau)
        stages: list = []
        if self._munich.use_bounds:
            stages.append(BoundStage())
        if tau is not None and self._munich.method == "montecarlo":
            stages.append(AdaptiveMCStage())
        else:
            stages.append(RefineStage())
        return QueryPlan(stages)

    def matrix_bounds(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Minimal-bounding-interval distance bounds for every pair.

        The per-timestamp interval gap/span arithmetic (Section 2.1) is
        broadcast over bounded query blocks of the cached ``(N, n)``
        interval stacks; sums run along the timestamp axis exactly as in
        the per-row path, so the bounds are bit-identical to it.
        """
        low, high = candidate_side.bounding_matrices()
        query_low, query_high = query_side.bounding_matrices()
        n_queries = len(query_side)
        n_series = len(candidate_side)
        length = low.shape[1]
        lower = np.empty((n_queries, n_series))
        upper = np.empty((n_queries, n_series))
        for start, stop in _query_blocks(n_queries, n_series, length):
            gap, span = interval_gap_and_span(
                low[None, :, :],
                high[None, :, :],
                query_low[start:stop, None, :],
                query_high[start:stop, None, :],
            )
            lower[start:stop] = np.sqrt((gap * gap).sum(axis=2))
            upper[start:stop] = np.sqrt((span * span).sum(axis=2))
        return lower, upper

    def index_bounds(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Segment-coarsened bounding-interval gap bound.

        The mean-interval gap per segment lower-bounds every
        materialization pair's segment-mean difference, so the weighted
        gap norm lower-bounds their Euclidean distance — the
        ``S``-segment coarsening of :meth:`matrix_bounds`' lower bound.
        Cells it prunes have match probability exactly 0.
        """
        if (
            kind != "probability"
            or self.index_segments is None
            or len(candidate_side) == 0
        ):
            return None
        summary = candidate_side.interval_paa_summary(self.index_segments)
        query_summary = query_side.interval_paa_summary(summary.n_segments)
        return interval_lower_bound(query_summary, summary), 0.0

    def refine_matrix(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
        epsilon: Optional[np.ndarray],
        out: np.ndarray,
        undecided: np.ndarray,
        tau: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Per-row batched probability evaluation of the undecided cells."""
        if kind != "probability":
            return super().refine_matrix(
                kind, query_side, candidate_side, epsilon, out, undecided,
                tau=tau,
            )
        queries = query_side.collection
        adaptive = tau is not None and self._munich.method == "montecarlo"
        refined = 0
        samples = 0
        for row in np.flatnonzero(undecided.any(axis=1)):
            columns = np.flatnonzero(undecided[row])
            row_epsilon = float(epsilon[row])
            if adaptive:
                samples += self._adaptive_mc_row(
                    queries[row], candidate_side.collection, columns,
                    row_epsilon, tau, out[row],
                )
            else:
                self._evaluate_undecided(
                    queries[row], candidate_side, row_epsilon, out[row],
                    columns, tau=tau,
                )
                if self._munich.method == "montecarlo":
                    samples += columns.size * self._munich.n_samples
            refined += columns.size
        return refined, samples

    def _adaptive_mc_row(
        self,
        query: MultisampleUncertainTimeSeries,
        collection: Sequence,
        columns: np.ndarray,
        epsilon: float,
        tau,
        out_row: np.ndarray,
    ) -> int:
        """Adaptive Monte Carlo refinement of one query row.

        Draws the same seeded materialization pairs the fixed-``s``
        evaluator would, but evaluates them in escalating rounds and
        stops at the first round whose hit count already determines the
        ``>= τ`` verdict — for a grid ``tau`` tuple, the first round
        that decides *every* grid threshold at once.  Returns the
        number of draws evaluated.
        """
        n_samples = self._munich.n_samples
        schedule = adaptive_mc_schedule(n_samples)
        squared_threshold = epsilon * epsilon
        evaluated_total = 0
        for index in columns:
            x_values, y_values = draw_materialization_pairs(
                query, collection[index], n_samples, self._munich.rng
            )
            hits = 0
            evaluated = 0
            for target in schedule:
                residual = x_values[evaluated:target] - y_values[evaluated:target]
                squared = (residual**2).sum(axis=1)
                hits += int(np.count_nonzero(squared <= squared_threshold))
                evaluated = target
                verdict = sequential_mc_verdict(
                    hits, evaluated, n_samples, tau
                )
                if verdict is not None:
                    out_row[index] = verdict
                    break
            evaluated_total += evaluated
        return evaluated_total


class DustDtwTechnique(Technique):
    """DUST-DTW: banded DTW with ``dust²`` as the point cost (Section 3.2).

    The per-pair anchor is :meth:`~repro.dust.Dust.dtw_distance`; the
    batch kernels lift it onto the anti-diagonal wavefront DP of
    :mod:`repro.distances.dtw_batch`, grouping candidates by their error
    distribution so a homogeneous collection is one stacked rolling
    pass per block.  Results are bit-identical to the per-pair program.
    One table prices a warped pair, so every query and candidate must
    report one error distribution for all its timestamps; both paths
    raise :class:`~repro.core.errors.UnsupportedQueryError` otherwise.
    Tables come from the process-wide store, as for
    :class:`DustTechnique`.
    """

    name = "DUST-DTW"
    kind = "distance"

    def __init__(
        self,
        window: Optional[int] = None,
        tail_workaround: bool = True,
    ) -> None:
        if window is not None and window < 0:
            raise InvalidParameterError(f"window must be >= 0, got {window}")
        self.window = window
        self._dust = Dust(tail_workaround=tail_workaround)

    @property
    def dust(self) -> Dust:
        """The underlying :class:`~repro.dust.Dust` engine (shared tables)."""
        return self._dust

    def distance(
        self, query: UncertainTimeSeries, candidate: UncertainTimeSeries
    ) -> float:
        return self._dust.dtw_distance(query, candidate, window=self.window)

    def distance_kernel(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> np.ndarray:
        """Stacked wavefront DTW with grouped per-diagonal ``dust²`` costs.

        Per query, candidates sharing an error distribution (read off
        the cached code matrix, whose rows must each hold one code)
        advance through one rolling DP together, in blocks of the
        rolling state's budget.
        """
        queries = query_side.collection
        values = candidate_side.values_matrix()
        codes, distincts = candidate_side.model_codes()
        first_codes = codes[:, 0]
        homogeneous = (codes == first_codes[:, None]).all() and all(
            query.error_model.is_homogeneous for query in queries
        )
        if not homogeneous:
            raise UnsupportedQueryError(HETEROGENEOUS_DTW_MESSAGE)
        groups = [
            (distincts[int(code)], np.flatnonzero(first_codes == code))
            for code in np.unique(first_codes)
        ]
        out = np.empty((len(queries), len(candidate_side)))
        for row, query in enumerate(queries):
            query_distribution = query.error_model[0]
            for distribution, columns in groups:
                table = self._dust.table(query_distribution, distribution)
                out[row, columns] = _dust_dtw_stack(
                    query.observations, values[columns], table, self.window
                )
        return out


def _dust_dtw_stack(
    query_values: np.ndarray,
    candidate_values: np.ndarray,
    table,
    window: Optional[int],
) -> np.ndarray:
    """Banded DTW of one query against a value stack under one DUST table.

    Each block of the stack is transposed once into the rolling state's
    ``(rows, B)`` layout, and ``dust²`` costs are produced per diagonal
    for the in-band cells only, so neither the ``(B, n, m)`` cost tensor
    nor the full DP state is ever materialized.
    """
    n = query_values.size
    n_pairs, m = candidate_values.shape
    query_rows = query_values[:, None]
    out = np.empty(n_pairs)
    for start, stop in rolling_stack_blocks(n_pairs, n, m):
        block = np.ascontiguousarray(candidate_values[start:stop].T)

        def cost_fn(rows, cols, block=block):
            row_slice, col_slice = diagonal_slices(rows, cols)
            return table.dust_squared(
                np.abs(query_rows[row_slice] - block[col_slice])
            )

        out[start:stop] = rolling_dtw_from_cost_fn(
            stop - start, n, m, cost_fn, window
        )
    return out


class MunichDtwTechnique(_MultisampleCalibration, Technique):
    """MUNICH over banded DTW (multi-sample input, Monte Carlo counting).

    DTW distances do not factorize per timestamp, so
    :meth:`~repro.munich.Munich.dtw_probability` counts matching
    materialization pairs by Monte Carlo — per pair, one full Python DP
    per drawn sample.  The batch path draws the *same* seeded
    materializations (a seed makes every cell's choice indices equal, so
    they are drawn once per refine call) and pushes the whole draw stack
    through the rolling wavefront DP of
    :func:`~repro.distances.dtw_batch.dtw_hits_paired`, after two
    collection-level stages that reuse the sides' cached stacks:

    * a band-inflated bounding-interval envelope lower bound — candidates
      no materialization can reach are 0.0 without sampling;
    * the diagonal-path interval span upper bound — candidates every
      materialization matches are 1.0 without sampling.

    Both stages are slack-guarded and every draw's verdict is the exact
    DP's, so a seeded technique returns exactly the per-pair
    probabilities.
    """

    name = "MUNICH-DTW"
    kind = "probabilistic"
    input_kind = "multisample"
    index_segments = DEFAULT_SEGMENTS

    def __init__(
        self,
        window: Optional[int] = None,
        munich: Optional[Munich] = None,
        use_bounds: bool = True,
        index_segments: Optional[int] = DEFAULT_SEGMENTS,
    ) -> None:
        if window is not None and window < 0:
            raise InvalidParameterError(f"window must be >= 0, got {window}")
        self.window = window
        self._munich = (
            munich
            if munich is not None
            else Munich(tau=0.5, method="montecarlo", rng=0)
        )
        self.use_bounds = use_bounds
        self.index_segments = index_segments

    @property
    def munich(self) -> Munich:
        """The underlying :class:`~repro.munich.Munich` engine."""
        return self._munich

    def probability(
        self,
        query: MultisampleUncertainTimeSeries,
        candidate: MultisampleUncertainTimeSeries,
        epsilon: float,
    ) -> float:
        return self._munich.dtw_probability(
            query, candidate, epsilon, window=self.window
        )

    def build_plan(
        self, kind: str, tau: Optional[float] = None
    ) -> QueryPlan:
        """Slack-guarded envelope bound stage + Monte Carlo refinement.

        With a known decision threshold the Monte Carlo refinement runs
        adaptively (the tentpole's early-stopping path); exhaustive
        enumeration (``method="naive"``) keeps the plain refine plan.
        """
        if kind != "probability" or self._munich.method == "naive":
            return super().build_plan(kind, tau=tau)
        stages: list = []
        if self.use_bounds:
            stages.append(BoundStage(slack=PRUNE_SLACK))
        if tau is not None:
            stages.append(AdaptiveMCStage())
        else:
            stages.append(RefineStage())
        return QueryPlan(stages)

    def matrix_bounds(
        self,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Envelope lower bounds and interval-span upper bounds per pair.

        * **lower** — LB_Keogh overshoot of each query's bounding
          interval against the candidate's band-inflated envelope stack
          (cached per window): no materialization of the pair can align
          closer, so exceeding ε means probability 0.
        * **upper** — the diagonal-path interval span: the band always
          contains the diagonal for equal lengths, so every
          materialization pair stays within it — clearing ε means
          probability 1.
        """
        env_lower, env_upper = candidate_side.dtw_envelopes(self.window)
        low, high = candidate_side.bounding_matrices()
        query_low, query_high = query_side.bounding_matrices()
        n_queries = len(query_side)
        n_series = len(candidate_side)
        length = low.shape[1]
        lower = np.empty((n_queries, n_series))
        upper = np.empty((n_queries, n_series))
        for start, stop in _query_blocks(n_queries, n_series, length):
            block_low = query_low[start:stop, None, :]
            block_high = query_high[start:stop, None, :]
            gap = np.maximum(
                block_low - env_upper[None, :, :],
                env_lower[None, :, :] - block_high,
            )
            np.maximum(gap, 0.0, out=gap)
            lower[start:stop] = np.sqrt((gap * gap).sum(axis=2))
            _, span = interval_gap_and_span(
                low[None, :, :], high[None, :, :], block_low, block_high
            )
            upper[start:stop] = np.sqrt((span * span).sum(axis=2))
        return lower, upper

    def index_bounds(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
    ) -> Optional[Tuple[np.ndarray, float]]:
        """Segment-coarsened envelope bound (banded-DTW admissible).

        Candidate side: PAA summary of the cached band-inflated Keogh
        envelopes; query side: summary of its bounding intervals.  The
        per-point envelope overshoot averaged over a segment dominates
        the mean-interval gap, and Cauchy–Schwarz turns the weighted
        gap norm into a lower bound on LB_Keogh — hence on the banded
        DTW of every materialization pair.  Guarded with the same
        :data:`~repro.distances.dtw_batch.PRUNE_SLACK` as the full
        bound stage.
        """
        if (
            kind != "probability"
            or self.index_segments is None
            or len(candidate_side) == 0
        ):
            return None
        summary = candidate_side.envelope_paa_summary(
            self.window, self.index_segments
        )
        query_summary = query_side.interval_paa_summary(summary.n_segments)
        return interval_lower_bound(query_summary, summary), PRUNE_SLACK

    def refine_matrix(
        self,
        kind: str,
        query_side: CollectionMaterialization,
        candidate_side: CollectionMaterialization,
        epsilon: Optional[np.ndarray],
        out: np.ndarray,
        undecided: np.ndarray,
        tau: Optional[float] = None,
    ) -> Tuple[int, int]:
        """Seeded Monte Carlo refinement of the undecided cells.

        Every undecided pair draws its full seeded materialization
        stack; with ``tau`` given the stack is evaluated in escalating
        rounds and stops at the first round whose hit count settles the
        ``>= τ`` verdict, otherwise the whole stack is evaluated (the
        fixed-``s`` path, exact per-pair parity).
        """
        if kind != "probability":
            return super().refine_matrix(
                kind, query_side, candidate_side, epsilon, out, undecided,
                tau=tau,
            )
        queries = query_side.collection
        collection = candidate_side.collection
        refined = 0
        samples = 0
        if self._munich.method == "naive":
            # Exhaustive enumeration has no batch form; per-pair path
            # (tiny inputs only by construction).
            for row in np.flatnonzero(undecided.any(axis=1)):
                for index in np.flatnonzero(undecided[row]):
                    out[row, index] = self.probability(
                        queries[row], collection[index], float(epsilon[row])
                    )
                    refined += 1
            return refined, 0
        n_samples = self._munich.n_samples
        length = max(1, len(collection[0]) if len(collection) else 1)
        cell_block = max(1, MC_BATCH_ELEMENTS // (n_samples * length))
        draw_cells = self._cell_draws(query_side, candidate_side)
        # Row-major cell order — identical to the per-pair path, so
        # seeded streams line up draw for draw.
        cell_rows, cell_cols = np.nonzero(undecided)
        for start in range(0, cell_rows.size, cell_block):
            rows = cell_rows[start:start + cell_block]
            cols = cell_cols[start:start + cell_block]
            samples += self._mc_cells(
                draw_cells(rows, cols), rows, cols, epsilon, tau, out
            )
            refined += rows.size
        return refined, samples

    def _cell_draws(self, query_side, candidate_side):
        """A ``(rows, cols) -> (x, y)`` source of seeded draws per cell.

        Each side is a :func:`_draw_stack` source ``(values, slots,
        offsets)``: cell ``c``'s draw ``k`` at timestamp ``t`` is
        ``values[slots[c]].flat[offsets[t, k]]``, equal to what
        :func:`draw_materialization_pairs` gives the per-pair evaluator
        of ``(queries[rows[c]], collection[cols[c]])``, the two sides'
        items.

        * A seed (int or ``None``) restarts its generator for every cell,
          so all cells of one shape share their choice indices.  They are
          drawn once per refine call and turned into offsets into the
          candidate side's cached samples tensor and into the
          batch's distinct query rows — nothing is materialized until a
          round gathers exactly the draws it evaluates.
        * A :class:`numpy.random.Generator` is consumed cell by cell in
          row-major cell order, the stream order the per-pair path
          defines; ragged collections (no samples tensor) and query rows
          of mixed shapes also draw per cell.
        """
        rng = self._munich.rng
        n_samples = self._munich.n_samples
        queries = query_side.collection
        collection = candidate_side.collection
        tensor = candidate_side.samples_tensor()
        offsets: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

        def per_cell(rows, cols):
            pairs = [
                draw_materialization_pairs(
                    queries[row], collection[col], n_samples, rng
                )
                for row, col in zip(rows, cols)
            ]
            # Row c holds cell c's draws timestamp-major: t·S + k.
            length = pairs[0][0].shape[1]
            slots = np.arange(len(pairs))
            drawn = np.arange(length * n_samples).reshape(length, n_samples)
            x_values = np.stack([x.T.ravel() for x, _ in pairs])
            y_values = np.stack([y.T.ravel() for _, y in pairs])
            return (x_values, slots, drawn), (y_values, slots, drawn)

        if tensor is None or isinstance(rng, np.random.Generator):
            return per_cell
        length, width = tensor.shape[1], tensor.shape[2]
        candidates = tensor.reshape(tensor.shape[0], -1)
        timestamps = np.arange(length)[:, None]

        def gathered(rows, cols):
            unique_rows, inverse = np.unique(rows, return_inverse=True)
            batch = [queries[row] for row in unique_rows]
            shapes = {query.samples.shape for query in batch}
            if len(shapes) != 1 or len(batch[0]) != length:
                return per_cell(rows, cols)
            shape = shapes.pop()
            if shape not in offsets:
                x_choices, y_choices = draw_choices(
                    length, shape[1], width, n_samples, rng
                )
                offsets[shape] = (
                    timestamps * shape[1] + x_choices.T,
                    timestamps * width + y_choices.T,
                )
            x_offsets, y_offsets = offsets[shape]
            query_values = np.stack([query.samples.ravel() for query in batch])
            return (
                (query_values, inverse, x_offsets),
                (candidates, cols, y_offsets),
            )

        return gathered

    def _mc_cells(self, draws, rows, cols, epsilon, tau, out) -> int:
        """Monte Carlo hit counting for a cell batch.

        Each round gathers the still-active cells' next draw chunks into
        one :func:`~repro.distances.dtw_batch.dtw_hits_paired` call, the
        per-row ε vector pairing each draw with its query's threshold.
        Without ``tau`` one round evaluates every draw (the fixed-``s``
        path: per-cell hit fractions bit-identical to each cell alone).
        With ``tau`` the rounds escalate geometrically and
        :func:`~repro.queries.planner.sequential_mc_verdict` retires
        every cell whose ``>= τ`` verdict is already determined (for a
        grid ``tau`` tuple: whose verdict is the same at every grid
        threshold).  Returns the number of draws evaluated.
        """
        n_samples = self._munich.n_samples
        x_side, y_side = draws
        hit_counts = np.zeros(rows.size, dtype=np.intp)
        active = np.arange(rows.size)
        evaluated = 0
        total = 0
        schedule = (
            [n_samples] if tau is None else adaptive_mc_schedule(n_samples)
        )
        for target in schedule:
            if active.size == 0:
                break
            chunk = target - evaluated
            chunk_hits = dtw_hits_paired(
                _draw_stack(x_side, active, evaluated, target).T,
                _draw_stack(y_side, active, evaluated, target).T,
                np.repeat(epsilon[rows[active]], chunk),
                window=self.window,
            ).reshape(active.size, chunk)
            hit_counts[active] += chunk_hits.sum(axis=1)
            total += active.size * chunk
            evaluated = target
            if tau is None:
                out[rows, cols] = hit_counts / n_samples
                break
            survivors = []
            for i in active:
                verdict = sequential_mc_verdict(
                    int(hit_counts[i]), evaluated, n_samples, tau
                )
                if verdict is None:
                    survivors.append(i)
                else:
                    out[rows[i], cols[i]] = verdict
            active = np.asarray(survivors, dtype=np.intp)
        return total


def _draw_stack(side, cells: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Draws ``start:stop`` of ``cells`` as one ``(n, cells · draws)`` stack.

    ``side`` is ``(values, slots, offsets)``: cell ``c``'s draws live in
    row ``slots[c]`` of the 2-D ``values`` at the ``(n, S)`` flat
    ``offsets``.  One ``np.take`` gathers the stack C-contiguous with
    the pair axis innermost — the rolling DP state's layout, so its
    transposed view reaches the kernel with nothing left to copy.
    """
    values, slots, offsets = side
    index = (slots[cells] * values.shape[1])[None, :, None] + offsets[
        :, None, start:stop
    ]
    return np.take(values, index).reshape(offsets.shape[0], -1)
