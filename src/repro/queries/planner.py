"""Unified filter-and-refine query planner.

Every expensive query path in the repo has the same shape: decide most
candidates from cheap bounds, refine the undecided remainder with an
exact kernel, and — for Monte Carlo techniques — stop sampling as soon
as the hit fraction is decided.  Before this module each technique
re-implemented that cascade by hand (MUNICH's bounding filter, the
MUNICH-DTW envelope bounds, the DTW pruning cascade's callers); the
planner extracts it into one composable pipeline:

* :class:`BoundStage` evaluates lower/upper bound stacks (from the two
  sides' cached materializations) for every pair at once and decides
  the cells whose bounds clear the threshold;
* :class:`RefineStage` runs the technique's exact kernel on the
  surviving candidate mask;
* :class:`AdaptiveMCStage` replaces a fixed-sample-size Monte Carlo
  refinement with escalating rounds and a *sound* sequential stopping
  rule against ``ε``/``τ`` — see :func:`sequential_mc_decision`.

A :class:`QueryPlan` is an ordered tuple of stages;
:meth:`QueryPlan.execute` resolves the workload's two sides — the
query rows and the candidate collection — into
:class:`~repro.queries.engine.CollectionMaterialization` objects once,
runs the stages over them, and returns the score matrix together with
:class:`PruningStats` — how many candidates each stage decided, how
many exact refinements ran, how many Monte Carlo samples were
evaluated, and per-stage wall time.  Techniques build their plans in
:meth:`~repro.queries.techniques.Technique.build_plan`; the default
plan is a single :class:`RefineStage`, which is exactly the
pre-planner behaviour — custom :class:`Technique` subclasses keep
working unchanged.

A :class:`PlanPolicy` holds the one switch on top of the authored
cascade: whether the summarization-index stage may be prepended.  A
session carries it (``SimilaritySession(policy=...)``,
``connect(policy=...)``; a remote session ships it with each request)
and hands it to
:meth:`~repro.queries.techniques.Technique.matrix_with_stats`, which
reads it once, when it builds the plan — a built plan runs every stage
it holds.

The adaptive stopping rule
--------------------------

A fixed-``s`` Monte Carlo refinement draws ``s`` materialization pairs
and reports the hit fraction ``H/s``; the decision query compares it to
``τ``.  After evaluating only the first ``m`` draws with ``h`` hits, the
final count is bracketed by ``h <= H <= h + (s - m)``, so

* ``h / s >= τ``  ⇒  the pair is a **hit** no matter how the remaining
  draws land;
* ``(h + s - m) / s < τ``  ⇒  a **miss**, likewise unconditionally.

Both checks use the same float divisions the fixed path uses, and
``H/s`` is monotone in ``H``, so an early verdict can *never* disagree
with the fixed-``s`` verdict on the same seeded draws — the rule prunes
work, not correctness.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core import epsilon_vector
from ..core.errors import InvalidParameterError
from .engine import CollectionMaterialization

#: Kinds of score matrices a plan can produce.
PLAN_KINDS = ("distance", "probability", "calibration")

#: Plan-policy modes: ``auto`` lets the planner prepend the index stage,
#: ``fixed`` runs the technique's authored cascade verbatim.
POLICY_MODES = ("auto", "fixed")

#: First adaptive round evaluates this fraction of the draw budget;
#: every later round doubles the cumulative target.  Geometric
#: escalation bounds the kernel-call overhead at ``log2(1/fraction)+1``
#: rounds while guaranteeing at most 2× the draws an ideal stopping
#: point would have evaluated.
ADAPTIVE_MC_FIRST_FRACTION = 1.0 / 16.0


def adaptive_mc_schedule(
    n_samples: int, first_fraction: float = ADAPTIVE_MC_FIRST_FRACTION
) -> List[int]:
    """Cumulative evaluation targets for the escalating sample rounds.

    Returns a strictly increasing list ending at ``n_samples``: the
    first target is ``ceil(n_samples · first_fraction)`` and each
    subsequent round doubles it, so a verdict reachable after ``t``
    draws costs at most ``2t`` — with only ``O(log)`` stacked kernel
    calls of overhead.
    """
    if n_samples < 1:
        raise InvalidParameterError(
            f"n_samples must be >= 1, got {n_samples}"
        )
    if not 0.0 < first_fraction <= 1.0:
        raise InvalidParameterError(
            f"first_fraction must be in (0, 1], got {first_fraction}"
        )
    targets: List[int] = []
    target = max(1, math.ceil(n_samples * first_fraction))
    while target < n_samples:
        targets.append(target)
        target = min(n_samples, target * 2)
    targets.append(n_samples)
    return targets


def sequential_mc_decision(
    hits: int, evaluated: int, n_samples: int, tau: float
) -> Optional[Tuple[bool, float]]:
    """Sound early verdict for a Monte Carlo decision query.

    ``hits`` of the first ``evaluated`` (of ``n_samples``) seeded draws
    landed within ε.  Returns ``(is_hit, value)`` when the final
    fixed-``s`` verdict is already determined, ``None`` while it is
    still open; ``value`` is the tightest bound on the final hit
    fraction that is guaranteed to sit on the verdict's side of ``τ``
    (and is exactly ``hits / n_samples`` once everything is evaluated).
    """
    guaranteed = hits / n_samples
    if guaranteed >= tau:
        return True, guaranteed
    possible = (hits + (n_samples - evaluated)) / n_samples
    if possible < tau:
        return False, possible
    return None


def sequential_mc_grid_decision(
    hits: int,
    evaluated: int,
    n_samples: int,
    tau_grid: Sequence[float],
) -> Optional[float]:
    """Early verdict covering a whole τ grid in one bracketing pass.

    After ``evaluated`` of ``n_samples`` seeded draws with ``hits``
    hits, the final hit fraction ``H/s`` is bracketed by
    ``guaranteed = hits/s <= H/s <= (hits + s - m)/s = possible``.  A
    grid threshold τ is already decided iff it lies *outside*
    ``(guaranteed, possible]`` — ``τ <= guaranteed`` is an
    unconditional hit, ``τ > possible`` an unconditional miss (the same
    float comparisons :func:`sequential_mc_decision` uses).  When no
    grid point remains inside the open bracket, ``guaranteed`` is
    returned as the cell's value: for every grid τ it sits on the same
    side of τ as the fixed-``s`` fraction, so sweeping the grid over
    the returned matrix reproduces the fixed path's decisions exactly.
    Returns ``None`` while any grid threshold is still open.  Once
    everything is evaluated the bracket collapses and the returned
    value is the exact hit fraction.
    """
    guaranteed = hits / n_samples
    possible = (hits + (n_samples - evaluated)) / n_samples
    for tau in tau_grid:
        if guaranteed < tau <= possible:
            return None
    return guaranteed


def sequential_mc_verdict(
    hits: int,
    evaluated: int,
    n_samples: int,
    tau: Union[float, Tuple[float, ...]],
) -> Optional[float]:
    """The value to record for a cell, or ``None`` while undecided.

    Dispatches on the decision target: a scalar τ uses
    :func:`sequential_mc_decision`, a τ *grid* (tuple) uses
    :func:`sequential_mc_grid_decision` so one pass of escalating
    rounds settles every grid threshold at once.
    """
    if isinstance(tau, tuple):
        return sequential_mc_grid_decision(hits, evaluated, n_samples, tau)
    verdict = sequential_mc_decision(hits, evaluated, n_samples, tau)
    return None if verdict is None else verdict[1]


# ---------------------------------------------------------------------------
# Plan policy: whether the planner may extend the authored cascade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanPolicy:
    """How a technique's authored cascade runs (hashable, immutable).

    ``mode``
        ``"auto"`` (default) lets the planner prepend the
        summarization-index stage (:class:`~repro.queries.index.IndexStage`)
        whenever the workload carries decision information it can
        prune with.  ``"fixed"`` runs
        :meth:`~repro.queries.techniques.Technique.build_plan` exactly
        as the technique wrote it, with no index stage.  Every filter
        stage is sound, so the two modes differ in cost only, never in
        a decision.
    """

    mode: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise InvalidParameterError(
                f"mode must be one of {POLICY_MODES}, got {self.mode!r}"
            )

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe request form (only non-default fields)."""
        return {} if self == PlanPolicy() else {"mode": self.mode}

    @classmethod
    def from_wire(cls, payload: Any) -> "PlanPolicy":
        """Validated policy from a request payload dict."""
        if not isinstance(payload, dict):
            raise InvalidParameterError(
                f"policy must be an object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise InvalidParameterError(
                f"unknown policy fields: {', '.join(sorted(unknown))}"
            )
        return cls(**{name: str(value) for name, value in payload.items()})


def get_default_policy() -> PlanPolicy:
    """The policy a session without one plans under: ``PlanPolicy()``.

    A constant; a session picks another with ``policy=``.
    """
    return PlanPolicy()


def effective_index_enabled(policy: Optional[PlanPolicy] = None) -> bool:
    """Whether plans may include an index stage under ``policy`` (or,
    when ``None``, the default policy)."""
    if policy is None:
        policy = get_default_policy()
    if not isinstance(policy, PlanPolicy):
        raise InvalidParameterError(
            f"expected a PlanPolicy, got {type(policy).__name__}"
        )
    return policy.mode == "auto"


@dataclass(frozen=True)
class StageStats:
    """One plan stage's contribution to a workload.

    ``entered`` counts the undecided cells the stage received (its
    *visited* set), ``skipped`` the cells earlier stages already settled
    so this stage never saw, ``decided`` how many of the visited cells
    it settled, ``refined`` how many exact kernel evaluations ran, and
    ``samples_drawn`` how many Monte Carlo draws were actually
    *evaluated* (the expensive part — the integer draws themselves are
    free and always taken upfront for seed parity).
    """

    stage: str
    entered: int = 0
    decided: int = 0
    refined: int = 0
    samples_drawn: int = 0
    skipped: int = 0
    seconds: float = 0.0

    @property
    def visited(self) -> int:
        """Cells this stage actually visited (alias for ``entered``)."""
        return self.entered

    def merged(self, other: "StageStats") -> "StageStats":
        """Element-wise sum with another shard's stats for this stage."""
        return StageStats(
            stage=self.stage,
            entered=self.entered + other.entered,
            decided=self.decided + other.decided,
            refined=self.refined + other.refined,
            samples_drawn=self.samples_drawn + other.samples_drawn,
            skipped=self.skipped + other.skipped,
            seconds=self.seconds + other.seconds,
        )


@dataclass(frozen=True)
class PruningStats:
    """Filter-and-refine effectiveness of one executed plan.

    ``stages`` preserves execution order.  On a cluster query the
    coordinator merges the shards' stats stage by stage and records the
    shard layout in ``executor`` (backend, shard count, failed shards);
    in-process plans leave it ``None``.
    """

    technique_name: str
    kind: str
    n_queries: int
    n_candidates: int
    stages: Tuple[StageStats, ...] = ()
    executor: Optional[Dict] = None
    #: Explicit cell count for records aggregated across *different*
    #: workloads (the CLI's per-command roll-up), where ``M × N`` of any
    #: single workload no longer describes the total.
    cells: Optional[int] = None

    @property
    def total_cells(self) -> int:
        """Workload size (``M × N``, unless explicitly overridden)."""
        if self.cells is not None:
            return self.cells
        return self.n_queries * self.n_candidates

    @property
    def total_seconds(self) -> float:
        """Wall time summed over every stage."""
        return float(sum(entry.seconds for entry in self.stages))

    @property
    def samples_drawn(self) -> int:
        """Monte Carlo draws evaluated across all stages."""
        return int(sum(entry.samples_drawn for entry in self.stages))

    def decided_by(self, stage: str) -> int:
        """Cells decided by the named stage (0 when absent)."""
        return sum(
            entry.decided for entry in self.stages if entry.stage == stage
        )

    def stage(self, name: str) -> Optional[StageStats]:
        """The (merged) stats entry for one stage name, if present."""
        for entry in self.stages:
            if entry.stage == name:
                return entry
        return None

    @property
    def index_pruned(self) -> int:
        """Cells the summarization index pruned without scoring them.

        A kNN index stage also scores its pilot exactly; those cells are
        decided but refined, so they count as kept.
        """
        entry = self.stage("index")
        return 0 if entry is None else entry.decided - entry.refined

    @property
    def index_selectivity(self) -> Optional[float]:
        """Fraction of cells the summarization index kept as candidates.

        ``None`` when no index stage ran (or the workload had no cells);
        ``1.0`` means the index pruned nothing.
        """
        if self.stage("index") is None or self.total_cells <= 0:
            return None
        return 1.0 - self.index_pruned / self.total_cells

    def merged(self, other: "PruningStats") -> "PruningStats":
        """Combine with another shard of the same plan.

        Stages are summed by name in this record's order; stages only
        the other shard ran (a technique may plan differently per
        shard in degenerate cases) are appended.
        """
        pending: Dict[str, List[StageStats]] = {}
        for entry in other.stages:
            pending.setdefault(entry.stage, []).append(entry)
        merged: List[StageStats] = []
        for entry in self.stages:
            for extra in pending.pop(entry.stage, []):
                entry = entry.merged(extra)
            merged.append(entry)
        for extras in pending.values():
            merged.extend(extras)
        return PruningStats(
            technique_name=self.technique_name,
            kind=self.kind,
            n_queries=self.n_queries,
            n_candidates=self.n_candidates,
            stages=tuple(merged),
            executor=self.executor if self.executor else other.executor,
        )

    @staticmethod
    def merge_shards(
        shards: Sequence["PruningStats"],
        n_queries: int,
        n_candidates: int,
        executor: Optional[Dict] = None,
    ) -> Optional["PruningStats"]:
        """Merge per-shard stats into one workload-level record.

        Stage counters sum stage-by-stage, so the executed plan —
        hence ``explain()`` output — reads the same whether it ran
        in-process or scattered across a cluster's shards.
        """
        shards = [s for s in shards if s is not None]
        if not shards:
            return None
        merged = shards[0]
        for shard in shards[1:]:
            merged = merged.merged(shard)
        return replace(
            merged,
            n_queries=n_queries,
            n_candidates=n_candidates,
            executor=executor,
        )

    def summary(self) -> str:
        """One human-readable line per stage (the CLI's ``--stats`` view)."""
        total = max(self.total_cells, 1)
        if self.cells is not None:
            shape = f"{self.cells} cells"
        else:
            shape = f"{self.n_queries}x{self.n_candidates}"
        lines = [f"{self.technique_name} ({self.kind}, {shape}):"]
        for entry in self.stages:
            line = (
                f"  {entry.stage:12s} decided {entry.decided}/{total} "
                f"({100.0 * entry.decided / total:5.1f}%) "
                f"in {entry.seconds * 1e3:8.2f} ms"
            )
            if entry.skipped:
                line += (
                    f", visited {entry.visited}, skipped {entry.skipped}"
                )
            if entry.refined:
                line += f", {entry.refined} refined"
            if entry.samples_drawn:
                line += f", {entry.samples_drawn} MC samples"
            lines.append(line)
        selectivity = self.index_selectivity
        if selectivity is not None:
            kept = total - self.index_pruned
            lines.append(
                f"  index selectivity {kept}/{total} candidates kept "
                f"({100.0 * selectivity:5.1f}%)"
            )
        if self.executor:
            pairs = ", ".join(
                f"{key}={value}" for key, value in self.executor.items()
            )
            lines.append(f"  executor     {pairs}")
        return "\n".join(lines)


@dataclass
class PlanContext:
    """Mutable state one plan execution threads through its stages.

    It holds the workload's two materialized sides, its decision
    targets (ε, τ, top-``k``), the output matrix and the ``undecided``
    mask.  Stages never look a collection up themselves: every
    technique hook they call takes ``(query_side, candidate_side)``.
    """

    technique: "object"
    kind: str
    #: The two sides of the ``(M, N)`` workload, resolved once per plan:
    #: every stage's technique hooks read their arrays off these.  In
    #: the full protocol (queries *are* the collection) they are one
    #: object.
    query_side: CollectionMaterialization
    candidate_side: CollectionMaterialization
    epsilons: Optional[np.ndarray]
    #: Decision target — a scalar τ or a τ-grid tuple (one bracketing
    #: pass covers the whole optimal-τ sweep).
    tau: Union[None, float, Tuple[float, ...]]
    values: np.ndarray
    undecided: np.ndarray
    #: Top-k target for kNN workloads — the index stage prunes each row
    #: against the ``k``-th exact score of its pilot.  ``exclude`` marks
    #: at most one self-match column per row (``-1`` for none).
    knn_k: Optional[int] = None
    exclude: Optional[np.ndarray] = None
    stage_stats: List[StageStats] = field(default_factory=list)

    @property
    def n_undecided(self) -> int:
        """Cells still awaiting a verdict."""
        return int(np.count_nonzero(self.undecided))


class PlanStage(abc.ABC):
    """One step of a filter-and-refine cascade.

    A stage reads the context's ``undecided`` mask, writes verdicts into
    ``values`` for the cells it settles, clears those cells from the
    mask, and returns ``(refined, samples_drawn)`` accounting.  Stage
    timing and decided-cell counting are handled by
    :meth:`QueryPlan.execute`.
    """

    name: str = "stage"

    @abc.abstractmethod
    def run(self, context: PlanContext) -> Tuple[int, int]:
        """Execute the stage; returns ``(refined, samples_drawn)``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BoundStage(PlanStage):
    """Decide cells whose lower/upper distance bounds clear ε.

    The technique supplies ``matrix_bounds(query_side, candidate_side)``
    — ``(lower, upper)`` stacks valid for *every* materialization of
    each pair, computed from the sides' cached stacks (bounding
    intervals, band-inflated envelopes).  Cells with ``lower > ε`` are
    certain misses (probability 0), cells with ``upper <= ε`` certain hits
    (probability 1); ``slack`` guards the comparisons for techniques
    whose batched bound sums may reorder floats (MUNICH-DTW uses
    :data:`~repro.distances.dtw_batch.PRUNE_SLACK`).
    """

    name = "bounds"

    def __init__(self, slack: float = 0.0) -> None:
        if slack < 0.0:
            raise InvalidParameterError(f"slack must be >= 0, got {slack}")
        self.slack = slack

    def run(self, context: PlanContext) -> Tuple[int, int]:
        if context.kind != "probability" or context.epsilons is None:
            raise InvalidParameterError(
                "BoundStage requires a probability workload with epsilons"
            )
        lower, upper = context.technique.matrix_bounds(
            context.query_side, context.candidate_side
        )
        guard_hi = (context.epsilons * (1.0 + self.slack))[:, None]
        guard_lo = (context.epsilons * (1.0 - self.slack))[:, None]
        misses = context.undecided & (lower > guard_hi)
        hits = context.undecided & (upper <= guard_lo)
        context.values[misses] = 0.0
        context.values[hits] = 1.0
        context.undecided &= ~(misses | hits)
        return 0, 0

    def __repr__(self) -> str:
        return f"BoundStage(slack={self.slack:g})"


class RefineStage(PlanStage):
    """Run the technique's exact kernel on the surviving mask.

    Delegates to
    :meth:`~repro.queries.techniques.Technique.refine_matrix`, which
    must fill every still-undecided cell; a refine stage therefore
    always terminates the plan's undecided set.  The context's decision
    threshold ``τ`` is always forwarded: kernels that can stop at the
    verdict use it (MUNICH's convolution decides most cells from
    Hoeffding and Berry–Esseen bounds), and the rest ignore it.  A cell
    refined against ``τ`` keeps a value on the same side of every ``τ``
    as its exact score; with ``τ = None`` every value is exact.
    """

    name = "refine"

    def run(self, context: PlanContext) -> Tuple[int, int]:
        refined, samples = context.technique.refine_matrix(
            context.kind,
            context.query_side,
            context.candidate_side,
            context.epsilons,
            context.values,
            context.undecided,
            tau=context.tau,
        )
        context.undecided[:] = False
        return int(refined), int(samples)


class AdaptiveMCStage(RefineStage):
    """Monte Carlo refinement with the sequential stopping rule.

    A :class:`RefineStage` under its own name, planned by Monte Carlo
    techniques when ``τ`` is known: the technique's refine kernel
    evaluates the seeded draw stack in escalating rounds
    (:func:`adaptive_mc_schedule`) and stops as soon as
    :func:`sequential_mc_decision` settles the cell.  Reported values
    are guaranteed to sit on the same side of ``τ`` as the fixed-sample
    path's, so decision queries (``prob_range``) are unchanged — only
    cheaper.
    """

    name = "adaptive-mc"


def _resolve_sides(
    queries: Union[Sequence, CollectionMaterialization],
    collection: Sequence,
    candidate_side: Optional[CollectionMaterialization],
) -> Tuple[CollectionMaterialization, CollectionMaterialization]:
    """The ``(query_side, candidate_side)`` materializations of one plan.

    A session passes its collection's ``candidate_side``; without one the
    plan builds it.  Queries that *are* the collection share its side (the
    full protocol), and queries passed as a materialization are their own
    side (a shard daemon's all-series request on a slice queries the
    whole map's).  Any other query sequence is built for this plan.  Every
    side the plan builds is dropped with it.
    """
    if candidate_side is None:
        candidate_side = CollectionMaterialization(collection)
    elif candidate_side.collection is not collection:
        raise InvalidParameterError(
            "candidate_side must be a materialization of the collection"
        )
    if queries is collection:
        return candidate_side, candidate_side
    if isinstance(queries, CollectionMaterialization):
        return queries, candidate_side
    return CollectionMaterialization(queries), candidate_side


class QueryPlan:
    """An ordered filter-and-refine cascade over one ``(M, N)`` workload."""

    __slots__ = ("stages",)

    def __init__(self, stages: Sequence[PlanStage]) -> None:
        if not stages:
            raise InvalidParameterError("a query plan needs >= 1 stage")
        self.stages = tuple(stages)

    def execute(
        self,
        technique,
        kind: str,
        queries: Union[Sequence, CollectionMaterialization],
        collection: Sequence,
        epsilon=None,
        tau: Union[None, float, Tuple[float, ...]] = None,
        knn_k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        candidate_side: Optional[CollectionMaterialization] = None,
    ) -> Tuple[np.ndarray, PruningStats]:
        """Run the cascade; returns ``(values, stats)``.

        ``epsilon`` (scalar or per-query vector) is required for
        probability workloads; for *distance* workloads it optionally
        marks a decision-mode range query, letting index stages retire
        certain non-matches as ``+inf`` instead of materializing them.
        ``tau`` is the optional decision threshold adaptive stages stop
        against; ``knn_k``/``exclude`` describe a top-k workload the
        same way (pruned cells become ``+inf``; ``exclude`` holds each
        row's self-match column, ``-1`` for none).  ``candidate_side`` is
        the collection's
        :class:`~repro.queries.engine.CollectionMaterialization` (a
        session passes its own; default: built for this plan), and
        ``queries`` may be a materialization too.  Both sides are
        resolved once, before the first stage, and every stage reads
        them off the :class:`PlanContext`.
        """
        if kind not in PLAN_KINDS:
            raise InvalidParameterError(
                f"kind must be one of {PLAN_KINDS}, got {kind!r}"
            )
        n_queries = len(queries)
        n_candidates = len(collection)
        if kind == "probability":
            epsilons = epsilon_vector(epsilon, n_queries)
        elif kind == "distance" and epsilon is not None:
            epsilons = epsilon_vector(epsilon, n_queries)
        elif epsilon is not None:
            raise InvalidParameterError(f"{kind} plans take no epsilon")
        else:
            epsilons = None
        if knn_k is not None:
            if kind != "distance":
                raise InvalidParameterError(
                    f"knn_k applies to distance plans only, got {kind!r}"
                )
            if knn_k < 1:
                raise InvalidParameterError(
                    f"knn_k must be >= 1, got {knn_k}"
                )
        if exclude is not None:
            exclude = np.asarray(exclude, dtype=np.intp)
            if exclude.shape != (n_queries,):
                raise InvalidParameterError(
                    f"exclude must hold one index per query row, got "
                    f"shape {exclude.shape} for {n_queries} rows"
                )
        values = np.empty((n_queries, n_candidates))
        if n_queries == 0:
            return values, PruningStats(
                technique_name=technique.name,
                kind=kind,
                n_queries=0,
                n_candidates=n_candidates,
                stages=tuple(
                    StageStats(stage=stage.name) for stage in self.stages
                ),
            )
        query_side, candidate_side = _resolve_sides(
            queries, collection, candidate_side
        )
        context = PlanContext(
            technique=technique,
            kind=kind,
            query_side=query_side,
            candidate_side=candidate_side,
            epsilons=epsilons,
            tau=tau,
            values=values,
            undecided=np.ones((n_queries, n_candidates), dtype=bool),
            knn_k=knn_k,
            exclude=exclude,
        )
        total_cells = n_queries * n_candidates
        for stage in self.stages:
            entered = context.n_undecided
            started = time.perf_counter()
            refined, samples = stage.run(context)
            elapsed = time.perf_counter() - started
            context.stage_stats.append(
                StageStats(
                    stage=stage.name,
                    entered=entered,
                    decided=entered - context.n_undecided,
                    refined=refined,
                    samples_drawn=samples,
                    skipped=total_cells - entered,
                    seconds=elapsed,
                )
            )
        if context.n_undecided:
            raise InvalidParameterError(
                f"plan {self!r} left {context.n_undecided} cells undecided; "
                f"every plan must end in a refine stage"
            )
        return values, PruningStats(
            technique_name=technique.name,
            kind=kind,
            n_queries=n_queries,
            n_candidates=n_candidates,
            stages=tuple(context.stage_stats),
        )

    def __repr__(self) -> str:
        inner = ", ".join(repr(stage) for stage in self.stages)
        return f"QueryPlan([{inner}])"


def _stage_bytes_per_cell(
    stage_name: str,
    technique,
    length: int,
    policy: Optional[PlanPolicy] = None,
) -> float:
    """Streamed bytes one cell costs a stage (per-stage bandwidth reports).

    Deliberately coarse — a memory-bound machine's stage costs are
    dominated by the bytes each stage streams: an index stage
    streams two ``S``-segment float64 summaries, a bound stage two
    full-length interval stacks, an exact refine two full-length value
    stacks, and a Monte Carlo refine its whole per-cell draw stack.
    No policy changes a stage's bytes; ``policy`` is accepted so
    external probes can keep passing it.
    """
    if stage_name == "index":
        segments = getattr(technique, "index_segments", None) or 1
        return 16.0 * segments
    if stage_name == "bounds":
        return 32.0 * length
    munich = getattr(technique, "_munich", None)
    if munich is not None and getattr(munich, "method", "") == "montecarlo":
        return 16.0 * length * max(1, getattr(munich, "n_samples", 1))
    return 16.0 * length
