"""Unified filter-and-refine query planner.

Every expensive query path in the repo has the same shape: decide most
candidates from cheap bounds, refine the undecided remainder with an
exact kernel, and — for Monte Carlo techniques — stop sampling as soon
as the hit fraction is decided.  Before this module each technique
re-implemented that cascade by hand (MUNICH's bounding filter, the
MUNICH-DTW envelope bounds, the DTW pruning cascade's callers); the
planner extracts it into one composable pipeline:

* :class:`BoundStage` evaluates lower/upper bound stacks (from the
  engine-cached materializations) for every pair at once and decides the
  cells whose bounds clear the threshold;
* :class:`RefineStage` runs the technique's exact kernel on the
  surviving candidate mask;
* :class:`AdaptiveMCStage` replaces a fixed-sample-size Monte Carlo
  refinement with escalating rounds and a *sound* sequential stopping
  rule against ``ε``/``τ`` — see :func:`sequential_mc_decision`.

A :class:`QueryPlan` is an ordered tuple of stages;
:meth:`QueryPlan.execute` runs them over one ``(M, N)`` workload and
returns the score matrix together with :class:`PruningStats` — how many
candidates each stage decided, how many exact refinements ran, how many
Monte Carlo samples were evaluated, and per-stage wall time.  Techniques
build their plans in :meth:`~repro.queries.techniques.Technique.build_plan`;
the default plan is a single :class:`RefineStage`, which is exactly the
pre-planner behaviour — custom :class:`Technique` subclasses keep
working unchanged.

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
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidParameterError

#: Kinds of score matrices a plan can produce.
PLAN_KINDS = ("distance", "probability", "calibration")

#: Plan-policy modes: ``auto`` pilots and tunes the cascade, ``fixed``
#: runs the technique's authored cascade verbatim, ``never_index``
#: tunes but never admits an index stage.
POLICY_MODES = ("auto", "fixed", "never_index")

#: The cost model's assumed streaming bandwidth (bytes/second).  Pilot
#: wall-clock on a few hundred cells is noisy; per-cell costs are
#: floored at ``bytes_streamed / STREAM_BYTES_PER_SECOND`` so a stage
#: that must stream more data can never be *modeled* as cheaper than
#: one that streams less (the PIMDAL memory-bound argument).
STREAM_BYTES_PER_SECOND = 8e9

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


def normalize_tau(tau) -> Union[None, float, Tuple[float, ...]]:
    """Canonical decision target: ``None``, a float, or a sorted tuple.

    Sequences (lists, arrays, tuples) become the τ-grid form — sorted,
    deduplicated, validated to ``[0, 1]`` — so plans, caches and wire
    payloads all key on one representation.
    """
    if tau is None:
        return None
    if isinstance(tau, (list, tuple, np.ndarray)):
        grid = tuple(sorted({float(value) for value in np.asarray(tau).ravel()}))
        if not grid:
            raise InvalidParameterError("a tau grid needs >= 1 threshold")
        if grid[0] < 0.0 or grid[-1] > 1.0:
            raise InvalidParameterError(
                f"tau grid values must be within [0, 1], got "
                f"[{grid[0]:g}, {grid[-1]:g}]"
            )
        return grid
    return float(tau)


# ---------------------------------------------------------------------------
# Plan policy: how much self-tuning the planner is allowed to do
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanPolicy:
    """The knobs steering cost-based plan choice (hashable, immutable).

    ``mode``
        ``"auto"`` (default) pilots a small sample of the workload,
        drops filter stages whose estimated selectivity is below
        ``min_selectivity`` or whose modeled cost exceeds the refine
        work they save, and orders the kept filters cheapest-first.
        ``"fixed"`` runs the technique's authored cascade verbatim
        (the pre-policy behaviour).  ``"never_index"`` tunes like
        ``auto`` but never admits an index stage.
    ``pilot_queries`` / ``pilot_candidates``
        The pilot sample's shape; drawn with ``pilot_seed`` pinned so
        every process — in-process, shard worker, daemon — scores the
        same sample and chooses the same plan.  Only *filter* stages
        (bounds, index) run on the pilot — they are deterministic and
        side-effect-free; refine stages are priced by the streamed-bytes
        model so a pilot can never advance a technique's seeded Monte
        Carlo streams.
    ``pilot_floor_cells``
        Workloads smaller than this run the authored cascade untouched
        (piloting a tiny workload costs more than it can save).
    ``min_selectivity``
        A filter stage must decide at least this fraction of the cells
        it sees to stay in the plan.
    ``cost_cache``
        Reuse chosen plans per ``(technique, workload-shape, policy)``
        key (see :func:`plan_for_workload`).
    ``use_index``
        Tri-state index toggle: ``None`` defers to the process default
        (:func:`set_default_policy`).
    """

    mode: str = "auto"
    pilot_queries: int = 4
    pilot_candidates: int = 48
    pilot_seed: int = 2012
    pilot_floor_cells: int = 8192
    min_selectivity: float = 0.02
    cost_cache: bool = True
    use_index: Optional[bool] = None

    def __post_init__(self) -> None:
        if self.mode not in POLICY_MODES:
            raise InvalidParameterError(
                f"mode must be one of {POLICY_MODES}, got {self.mode!r}"
            )
        for name in ("pilot_queries", "pilot_candidates"):
            if getattr(self, name) < 1:
                raise InvalidParameterError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.pilot_floor_cells < 0:
            raise InvalidParameterError(
                f"pilot_floor_cells must be >= 0, got {self.pilot_floor_cells}"
            )
        if not 0.0 <= self.min_selectivity <= 1.0:
            raise InvalidParameterError(
                f"min_selectivity must be within [0, 1], got "
                f"{self.min_selectivity}"
            )

    def to_wire(self) -> Dict[str, Any]:
        """The JSON-safe request form (only non-default fields)."""
        payload: Dict[str, Any] = {}
        default = PlanPolicy()
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value != getattr(default, name):
                payload[name] = value
        return payload

    @classmethod
    def from_wire(cls, payload: Any) -> "PlanPolicy":
        """Validated policy from a request payload dict."""
        if not isinstance(payload, dict):
            raise InvalidParameterError(
                f"policy must be an object, got {type(payload).__name__}"
            )
        known = set(cls.__dataclass_fields__)
        unknown = set(payload) - known
        if unknown:
            raise InvalidParameterError(
                f"unknown policy fields: {', '.join(sorted(unknown))}"
            )
        kwargs: Dict[str, Any] = {}
        for name, value in payload.items():
            if name == "mode":
                kwargs[name] = str(value)
            elif name == "use_index":
                kwargs[name] = None if value is None else bool(value)
            elif name == "cost_cache":
                kwargs[name] = bool(value)
            elif name == "min_selectivity":
                kwargs[name] = float(value)
            else:
                kwargs[name] = int(value)
        return cls(**kwargs)


def _initial_default_policy() -> PlanPolicy:
    """The process default; ``REPRO_PLAN_MODE`` overrides the mode (the
    nightly invariance loop runs the benchmark suite once per mode)."""
    mode = os.environ.get("REPRO_PLAN_MODE", "").strip() or "auto"
    return PlanPolicy(mode=mode)


_DEFAULT_POLICY = _initial_default_policy()
_POLICY_LOCK = threading.Lock()


def get_default_policy() -> PlanPolicy:
    """The process-wide policy used when none is passed explicitly."""
    return _DEFAULT_POLICY


def set_default_policy(policy: PlanPolicy) -> None:
    """Replace the process-wide default policy.

    This is the one piece of planner-global state; the CLI's
    ``--no-index`` sets ``use_index=False`` on it.
    """
    global _DEFAULT_POLICY
    if not isinstance(policy, PlanPolicy):
        raise InvalidParameterError(
            f"expected a PlanPolicy, got {type(policy).__name__}"
        )
    with _POLICY_LOCK:
        _DEFAULT_POLICY = policy


def resolve_policy(policy: Optional[PlanPolicy]) -> PlanPolicy:
    """``policy`` itself, or the process default when ``None``."""
    if policy is None:
        return _DEFAULT_POLICY
    if not isinstance(policy, PlanPolicy):
        raise InvalidParameterError(
            f"expected a PlanPolicy, got {type(policy).__name__}"
        )
    return policy


def effective_index_enabled(policy: Optional[PlanPolicy] = None) -> bool:
    """Whether plans may include an index stage under ``policy``.

    A policy's explicit ``use_index`` wins; ``None`` defers to the
    process default's, and an unset default means enabled.
    """
    policy = resolve_policy(policy)
    if policy.mode == "never_index":
        return False
    if policy.use_index is not None:
        return policy.use_index
    default = _DEFAULT_POLICY
    if default.use_index is not None:
        return default.use_index
    return True


# ---------------------------------------------------------------------------
# Plan explanation: why the chooser kept, dropped and ordered stages
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StageEstimate:
    """The pilot's verdict on one candidate stage.

    ``selectivity`` is the fraction of pilot cells the stage decided
    (of those it saw), ``seconds_per_cell`` its measured pilot cost,
    ``bytes_per_cell`` the cost model's streamed-bytes estimate, and
    ``kept``/``reason`` the chooser's decision and its one-line why.
    """

    stage: str
    selectivity: float
    seconds_per_cell: float
    bytes_per_cell: float
    kept: bool
    reason: str

    def to_payload(self) -> Dict[str, Any]:
        return {
            "stage": self.stage,
            "selectivity": self.selectivity,
            "seconds_per_cell": self.seconds_per_cell,
            "bytes_per_cell": self.bytes_per_cell,
            "kept": self.kept,
            "reason": self.reason,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "StageEstimate":
        return cls(
            stage=str(payload["stage"]),
            selectivity=float(payload["selectivity"]),
            seconds_per_cell=float(payload["seconds_per_cell"]),
            bytes_per_cell=float(payload["bytes_per_cell"]),
            kept=bool(payload["kept"]),
            reason=str(payload["reason"]),
        )


@dataclass(frozen=True)
class PlanExplanation:
    """What the planner chose for one workload, and why.

    Recorded on :class:`PruningStats` by every policy-aware execution,
    shipped through the service stats payload, and rendered by
    ``cli --stats`` / ``cli explain`` — the daemon and cluster paths
    surface exactly what an in-process run would.
    """

    technique_name: str
    kind: str
    mode: str
    chosen_stages: Tuple[str, ...]
    estimates: Tuple[StageEstimate, ...] = ()
    pilot_cells: int = 0
    cache_hit: bool = False
    rationale: str = ""

    def to_payload(self) -> Dict[str, Any]:
        """JSON-safe wire form (the service stats payload carries it)."""
        return {
            "technique": self.technique_name,
            "kind": self.kind,
            "mode": self.mode,
            "chosen_stages": list(self.chosen_stages),
            "estimates": [entry.to_payload() for entry in self.estimates],
            "pilot_cells": self.pilot_cells,
            "cache_hit": self.cache_hit,
            "rationale": self.rationale,
        }

    @classmethod
    def from_payload(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["PlanExplanation"]:
        """Tolerant inverse of :meth:`to_payload` (``None`` passes through,
        so stats from a pre-policy daemon still parse)."""
        if payload is None:
            return None
        return cls(
            technique_name=str(payload.get("technique", "")),
            kind=str(payload.get("kind", "")),
            mode=str(payload.get("mode", "fixed")),
            chosen_stages=tuple(payload.get("chosen_stages", ())),
            estimates=tuple(
                StageEstimate.from_payload(entry)
                for entry in payload.get("estimates", ())
            ),
            pilot_cells=int(payload.get("pilot_cells", 0)),
            cache_hit=bool(payload.get("cache_hit", False)),
            rationale=str(payload.get("rationale", "")),
        )

    def merged(self, other: "PlanExplanation") -> "PlanExplanation":
        """Combine two shards' explanations into one workload-level record.

        Shards of one workload run the same pinned-seed pilot recipe,
        so they normally choose identical stage lists — the estimates
        are then averaged weighted by pilot cells.  If a degenerate
        shard shape made a different choice, the first shard's plan is
        reported and the divergence is called out in the rationale
        instead of silently averaging incompatible records.
        """
        if other.chosen_stages != self.chosen_stages:
            note = (
                f"shards diverged: {'+'.join(other.chosen_stages) or 'none'}"
                f" vs {'+'.join(self.chosen_stages) or 'none'}"
            )
            if note in self.rationale:
                return self
            rationale = f"{self.rationale}; {note}" if self.rationale else note
            return replace(self, rationale=rationale)
        total = self.pilot_cells + other.pilot_cells
        if not self.estimates or not other.estimates or total == 0:
            return replace(self, pilot_cells=total)
        weight = self.pilot_cells / total
        other_by_stage = {entry.stage: entry for entry in other.estimates}
        estimates = []
        for entry in self.estimates:
            twin = other_by_stage.get(entry.stage)
            if twin is None:
                estimates.append(entry)
                continue
            estimates.append(
                replace(
                    entry,
                    selectivity=(
                        weight * entry.selectivity
                        + (1.0 - weight) * twin.selectivity
                    ),
                    seconds_per_cell=(
                        weight * entry.seconds_per_cell
                        + (1.0 - weight) * twin.seconds_per_cell
                    ),
                )
            )
        return replace(
            self,
            estimates=tuple(estimates),
            pilot_cells=total,
            cache_hit=self.cache_hit and other.cache_hit,
        )

    def summary_lines(self) -> List[str]:
        """The ``cli --stats`` rendering (indented under the stage table)."""
        chosen = " -> ".join(self.chosen_stages) or "(none)"
        cache = ", cached plan" if self.cache_hit else ""
        lines = [f"  plan [{self.mode}] {chosen}{cache}"]
        for entry in self.estimates:
            verdict = "kept" if entry.kept else "dropped"
            lines.append(
                f"    {entry.stage:12s} est. selectivity "
                f"{100.0 * entry.selectivity:5.1f}%, "
                f"~{entry.seconds_per_cell * 1e9:.0f} ns/cell "
                f"({entry.bytes_per_cell:.0f} B/cell) -> {verdict}: "
                f"{entry.reason}"
            )
        if self.rationale:
            lines.append(f"    rationale: {self.rationale}")
        return lines


@dataclass(frozen=True)
class ExplainReport:
    """What ``QuerySet.explain()`` returns: chosen plan + est vs actual.

    ``records`` pairs each *executed* stage with the pilot's estimated
    selectivity (``None`` when the stage was not piloted — fixed mode,
    tiny workloads, cache-bypassed runs) and the actual selectivity
    measured during execution.  Identical across in-process, daemon
    and cluster backends for the same workload and policy.
    """

    technique_name: str
    kind: str
    mode: str
    plan: Tuple[str, ...]
    records: Tuple[Dict[str, Any], ...]
    rationale: str
    cache_hit: bool
    executor: Optional[Dict] = None

    @classmethod
    def from_stats(cls, stats: "PruningStats") -> "ExplainReport":
        """Build the report off one executed plan's stats record."""
        explanation = stats.explanation
        estimates = {}
        if explanation is not None:
            estimates = {
                entry.stage: entry for entry in explanation.estimates
            }
        records = []
        executed = set()
        for entry in stats.stages:
            executed.add(entry.stage)
            estimate = estimates.get(entry.stage)
            actual = (
                entry.decided / entry.entered if entry.entered else 0.0
            )
            records.append(
                {
                    "stage": entry.stage,
                    "estimated_selectivity": (
                        estimate.selectivity if estimate else None
                    ),
                    "actual_selectivity": actual,
                    "decided": entry.decided,
                    "entered": entry.entered,
                }
            )
        # Dropped stages never execute, so they have no actuals — their
        # pilot estimate is still part of the decision record.
        for estimate in (explanation.estimates if explanation else ()):
            if estimate.stage in executed:
                continue
            records.append(
                {
                    "stage": estimate.stage,
                    "estimated_selectivity": estimate.selectivity,
                    "actual_selectivity": None,
                    "decided": 0,
                    "entered": 0,
                }
            )
        return cls(
            technique_name=stats.technique_name,
            kind=stats.kind,
            mode=explanation.mode if explanation else "fixed",
            plan=tuple(entry.stage for entry in stats.stages),
            records=tuple(records),
            rationale=explanation.rationale if explanation else "",
            cache_hit=explanation.cache_hit if explanation else False,
            executor=stats.executor,
        )

    def summary(self) -> str:
        """Human-readable rendering (the ``cli explain`` output)."""
        chosen = " -> ".join(self.plan) or "(none)"
        cache = " (cached plan)" if self.cache_hit else ""
        lines = [
            f"{self.technique_name} ({self.kind}) plan "
            f"[{self.mode}]{cache}: {chosen}"
        ]
        for record in self.records:
            estimated = record["estimated_selectivity"]
            actual = record["actual_selectivity"]
            est = (
                f"{100.0 * estimated:5.1f}%"
                if estimated is not None
                else "  n/a"
            )
            if actual is None:
                lines.append(
                    f"  {record['stage']:12s} estimated {est}  "
                    f"(dropped by the chooser)"
                )
                continue
            lines.append(
                f"  {record['stage']:12s} estimated {est}  actual "
                f"{100.0 * actual:5.1f}% "
                f"({record['decided']}/{record['entered']} cells)"
            )
        if self.rationale:
            lines.append(f"  rationale: {self.rationale}")
        if self.executor:
            pairs = ", ".join(
                f"{key}={value}" for key, value in self.executor.items()
            )
            lines.append(f"  executor: {pairs}")
        return "\n".join(lines)


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

    ``stages`` preserves execution order; on a sharded run the per-shard
    stats are merged stage-by-stage and the executor's chosen shard plan
    is logged in ``executor``.
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
    #: Why this plan was chosen (policy-aware executions record it;
    #: merged shard-by-shard so the sharded/cluster paths explain
    #: themselves the same way an in-process run does).
    explanation: Optional[PlanExplanation] = None

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
    def index_selectivity(self) -> Optional[float]:
        """Fraction of cells the summarization index kept as candidates.

        ``None`` when no index stage ran (or the workload had no cells);
        ``1.0`` means the index pruned nothing.
        """
        entry = self.stage("index")
        if entry is None or self.total_cells <= 0:
            return None
        return 1.0 - entry.decided / self.total_cells

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
        if self.explanation is None:
            explanation = other.explanation
        elif other.explanation is None:
            explanation = self.explanation
        else:
            explanation = self.explanation.merged(other.explanation)
        return PruningStats(
            technique_name=self.technique_name,
            kind=self.kind,
            n_queries=self.n_queries,
            n_candidates=self.n_candidates,
            stages=tuple(merged),
            executor=self.executor if self.executor else other.executor,
            explanation=explanation,
        )

    @staticmethod
    def merge_shards(
        shards: Sequence["PruningStats"],
        n_queries: int,
        n_candidates: int,
        executor: Optional[Dict] = None,
    ) -> Optional["PruningStats"]:
        """Merge per-shard stats into one workload-level record.

        Stage counters sum stage-by-stage and the shards'
        :class:`PlanExplanation` records merge pilot-cell-weighted
        (see :meth:`PlanExplanation.merged`), so estimated-vs-actual
        selectivities — hence ``explain()`` output — read the same
        whether the plan ran in-process, sharded, or on a cluster.
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
            kept = total - self.decided_by("index")
            lines.append(
                f"  index selectivity {kept}/{total} candidates kept "
                f"({100.0 * selectivity:5.1f}%)"
            )
        if self.executor:
            pairs = ", ".join(
                f"{key}={value}" for key, value in self.executor.items()
            )
            lines.append(f"  executor     {pairs}")
        if self.explanation is not None:
            lines.extend(self.explanation.summary_lines())
        return "\n".join(lines)


@dataclass
class PlanContext:
    """Mutable state one plan execution threads through its stages."""

    technique: "object"
    kind: str
    queries: Sequence
    collection: Sequence
    epsilons: Optional[np.ndarray]
    #: Decision target — a scalar τ or a τ-grid tuple (one bracketing
    #: pass covers the whole optimal-τ sweep).
    tau: Union[None, float, Tuple[float, ...]]
    values: np.ndarray
    undecided: np.ndarray
    #: Top-k target for kNN workloads — lets the index stage derive
    #: per-row pruning thresholds from upper bounds.  ``exclude`` marks
    #: at most one self-match column per row (``-1`` for none).
    knn_k: Optional[int] = None
    exclude: Optional[np.ndarray] = None
    stage_stats: List[StageStats] = field(default_factory=list)
    #: The policy this execution runs under (stages consult it — the
    #: index stage's enable switch lives here, not in module state).
    policy: Optional[PlanPolicy] = None

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

    The technique supplies ``matrix_bounds(queries, collection)`` —
    ``(lower, upper)`` stacks valid for *every* materialization of each
    pair, computed from engine-cached stacks (bounding intervals,
    band-inflated envelopes).  Cells with ``lower > ε`` are certain
    misses (probability 0), cells with ``upper <= ε`` certain hits
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
            context.queries, context.collection
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
    always terminates the plan's undecided set.
    """

    name = "refine"
    #: Whether the context's τ is forwarded to the refine kernel
    #: (enables the adaptive stopping rule in the subclass).
    forward_tau = False

    def run(self, context: PlanContext) -> Tuple[int, int]:
        tau = context.tau if self.forward_tau else None
        refined, samples = context.technique.refine_matrix(
            context.kind,
            context.queries,
            context.collection,
            context.epsilons,
            context.values,
            context.undecided,
            tau=tau,
        )
        context.undecided[:] = False
        return int(refined), int(samples)


class AdaptiveMCStage(RefineStage):
    """Monte Carlo refinement with the sequential stopping rule.

    Identical to :class:`RefineStage` except that the decision
    threshold ``τ`` is forwarded to the technique's refine kernel, which
    evaluates the seeded draw stack in escalating rounds
    (:func:`adaptive_mc_schedule`) and stops as soon as
    :func:`sequential_mc_decision` settles the cell.  Reported values
    are guaranteed to sit on the same side of ``τ`` as the fixed-sample
    path's, so decision queries (``prob_range``) are unchanged — only
    cheaper.
    """

    name = "adaptive-mc"
    forward_tau = True


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
        queries: Sequence,
        collection: Sequence,
        epsilon=None,
        tau: Union[None, float, Tuple[float, ...]] = None,
        knn_k: Optional[int] = None,
        exclude: Optional[np.ndarray] = None,
        policy: Optional[PlanPolicy] = None,
    ) -> Tuple[np.ndarray, PruningStats]:
        """Run the cascade; returns ``(values, stats)``.

        ``epsilon`` (scalar or per-query vector) is required for
        probability workloads; for *distance* workloads it optionally
        marks a decision-mode range query, letting index stages retire
        certain non-matches as ``+inf`` instead of materializing them.
        ``tau`` is the optional decision threshold adaptive stages stop
        against; ``knn_k``/``exclude`` describe a top-k workload the
        same way (pruned cells become ``+inf``; ``exclude`` holds each
        row's self-match column, ``-1`` for none).
        """
        from .techniques import _epsilon_vector

        if kind not in PLAN_KINDS:
            raise InvalidParameterError(
                f"kind must be one of {PLAN_KINDS}, got {kind!r}"
            )
        n_queries = len(queries)
        n_candidates = len(collection)
        if kind == "probability":
            epsilons = _epsilon_vector(epsilon, n_queries)
        elif kind == "distance" and epsilon is not None:
            epsilons = _epsilon_vector(epsilon, n_queries)
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
        context = PlanContext(
            technique=technique,
            kind=kind,
            queries=queries,
            collection=collection,
            epsilons=epsilons,
            tau=tau,
            values=values,
            undecided=np.ones((n_queries, n_candidates), dtype=bool),
            knn_k=knn_k,
            exclude=exclude,
            policy=policy,
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


# ---------------------------------------------------------------------------
# Cost-based plan choice: pilot sampling, the bytes-streamed model, cache
# ---------------------------------------------------------------------------


def _series_length(collection: Sequence) -> int:
    """Timestamp count of the workload's series (cost-model input)."""
    try:
        return max(1, len(collection[0]))
    except (IndexError, TypeError):
        return 1


def _stage_bytes_per_cell(
    stage_name: str,
    technique,
    length: int,
    policy: Optional[PlanPolicy] = None,
) -> float:
    """Streamed bytes one cell costs a stage, under the cost model.

    Deliberately coarse — the point is *relative* stage ordering on a
    memory-bound machine, not absolute throughput: an index stage
    streams two ``S``-segment float64 summaries, a bound stage two
    full-length interval stacks, an exact refine two full-length value
    stacks, and a Monte Carlo refine its whole per-cell draw stack.
    No policy changes a stage's bytes; ``policy`` is accepted so
    external cost probes can keep passing it.
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


def _pilot_workload(
    queries: Sequence,
    collection: Sequence,
    epsilons: Optional[np.ndarray],
    policy: PlanPolicy,
) -> Tuple[Sequence, Sequence, Optional[np.ndarray]]:
    """The pinned-seed pilot sample of one ``(M, N)`` workload."""
    n_queries = len(queries)
    n_candidates = len(collection)
    rng = np.random.default_rng(policy.pilot_seed)
    rows = np.sort(
        rng.choice(
            n_queries,
            size=min(policy.pilot_queries, n_queries),
            replace=False,
        )
    )
    cols = np.sort(
        rng.choice(
            n_candidates,
            size=min(policy.pilot_candidates, n_candidates),
            replace=False,
        )
    )
    pilot_queries = [queries[int(i)] for i in rows]
    pilot_collection = [collection[int(j)] for j in cols]
    pilot_eps = epsilons[rows] if epsilons is not None else None
    return pilot_queries, pilot_collection, pilot_eps


def tune_plan(
    technique,
    plan: QueryPlan,
    kind: str,
    queries: Sequence,
    collection: Sequence,
    epsilons: Optional[np.ndarray],
    tau,
    knn_k: Optional[int],
    policy: PlanPolicy,
) -> Tuple[QueryPlan, PlanExplanation]:
    """Score the cascade on a pilot sample and choose the stages to run.

    Only *filter* stages (everything before the plan's final refine)
    are candidates for dropping/reordering — the final refine stage is
    what guarantees every cell gets a verdict, and filter stages are
    sound (they decide a cell only when its outcome is certain), so any
    subset in any order produces identical decisions; the chooser
    affects cost only.  Filters run on the pinned-seed pilot to
    estimate selectivity and per-cell cost; the refine stage is priced
    by the streamed-bytes model (running it might consume seeded Monte
    Carlo draws).  A filter stays when its estimated selectivity clears
    ``policy.min_selectivity`` *and* the refine work it saves exceeds
    its own modeled cost; the kept filters run cheapest-first by
    modeled bytes (deterministic across processes, unlike wall-clock).
    """
    names = tuple(stage.name for stage in plan.stages)
    length = _series_length(collection)
    prunable = list(plan.stages[:-1])
    final = plan.stages[-1]
    if policy.mode == "fixed":
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale="fixed policy: technique cascade as authored",
        )
    if not prunable:
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale="single-stage plan; nothing to tune",
        )
    total_cells = len(queries) * len(collection)
    if total_cells < policy.pilot_floor_cells:
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale=(
                f"workload of {total_cells} cells is below the pilot "
                f"floor ({policy.pilot_floor_cells}); authored cascade"
            ),
        )
    if knn_k is not None and policy.pilot_candidates <= 2 * knn_k:
        return plan, PlanExplanation(
            technique_name=technique.name,
            kind=kind,
            mode=policy.mode,
            chosen_stages=names,
            rationale=(
                f"pilot of {policy.pilot_candidates} candidates is too "
                f"small to judge top-{knn_k} pruning; authored cascade"
            ),
        )
    pilot_queries, pilot_collection, pilot_eps = _pilot_workload(
        queries, collection, epsilons, policy
    )
    pilot_cells = len(pilot_queries) * len(pilot_collection)
    context = PlanContext(
        technique=technique,
        kind=kind,
        queries=pilot_queries,
        collection=pilot_collection,
        epsilons=pilot_eps,
        tau=tau,
        values=np.empty((len(pilot_queries), len(pilot_collection))),
        undecided=np.ones(
            (len(pilot_queries), len(pilot_collection)), dtype=bool
        ),
        knn_k=knn_k,
        exclude=None,
        policy=policy,
    )
    refine_cost = (
        _stage_bytes_per_cell(final.name, technique, length)
        / STREAM_BYTES_PER_SECOND
    )
    estimates: List[StageEstimate] = []
    kept: List[Tuple[float, int, PlanStage]] = []
    pilot_broken = False
    for position, stage in enumerate(prunable):
        bytes_per_cell = _stage_bytes_per_cell(stage.name, technique, length)
        if pilot_broken:
            kept.append((bytes_per_cell, position, stage))
            estimates.append(
                StageEstimate(
                    stage=stage.name,
                    selectivity=0.0,
                    seconds_per_cell=0.0,
                    bytes_per_cell=bytes_per_cell,
                    kept=True,
                    reason="pilot aborted earlier; kept as authored",
                )
            )
            continue
        entered = context.n_undecided
        started = time.perf_counter()
        try:
            stage.run(context)
        except Exception as error:  # sound fallback: keep as authored
            pilot_broken = True
            kept.append((bytes_per_cell, position, stage))
            estimates.append(
                StageEstimate(
                    stage=stage.name,
                    selectivity=0.0,
                    seconds_per_cell=0.0,
                    bytes_per_cell=bytes_per_cell,
                    kept=True,
                    reason=f"pilot failed ({type(error).__name__}); kept",
                )
            )
            continue
        elapsed = time.perf_counter() - started
        decided = entered - context.n_undecided
        selectivity = decided / entered if entered else 0.0
        seconds_per_cell = elapsed / max(entered, 1)
        stage_cost = max(
            seconds_per_cell, bytes_per_cell / STREAM_BYTES_PER_SECOND
        )
        if selectivity < policy.min_selectivity:
            keep = False
            reason = (
                f"estimated selectivity {100.0 * selectivity:.1f}% is "
                f"below the {100.0 * policy.min_selectivity:.1f}% floor"
            )
        elif selectivity * refine_cost <= stage_cost:
            keep = False
            reason = "costs more than the refine work it saves"
        else:
            keep = True
            reason = (
                f"saves ~{selectivity * refine_cost / stage_cost:.1f}x "
                f"its cost in refine work"
            )
        if keep:
            kept.append((bytes_per_cell, position, stage))
        estimates.append(
            StageEstimate(
                stage=stage.name,
                selectivity=selectivity,
                seconds_per_cell=seconds_per_cell,
                bytes_per_cell=bytes_per_cell,
                kept=keep,
                reason=reason,
            )
        )
    kept.sort(key=lambda entry: (entry[0], entry[1]))
    stages = tuple(stage for _, _, stage in kept) + (final,)
    dropped = len(prunable) - len(kept)
    rationale = (
        f"pilot scored {pilot_cells} of {total_cells} cells: kept "
        f"{len(kept)}/{len(prunable)} filter stages"
        + (f", dropped {dropped}" if dropped else "")
        + ", ordered cheapest-first"
    )
    return QueryPlan(stages), PlanExplanation(
        technique_name=technique.name,
        kind=kind,
        mode=policy.mode,
        chosen_stages=tuple(stage.name for stage in stages),
        estimates=tuple(estimates),
        pilot_cells=pilot_cells,
        cache_hit=False,
        rationale=rationale,
    )


class _PlanCache:
    """Bounded LRU of chosen plans per (technique, workload-shape, policy).

    Keys use the technique's identity with a strong reference pinned in
    the entry (the engine cache's precedent), so ids can never be
    recycled while an entry lives.
    """

    def __init__(self, max_entries: int = 128) -> None:
        self._entries: "OrderedDict[Tuple, Tuple]" = OrderedDict()
        self._max_entries = max_entries
        self._lock = threading.Lock()

    def get(self, key: Tuple) -> Optional[Tuple[QueryPlan, PlanExplanation]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            _, plan, explanation = entry
            return plan, explanation

    def put(
        self,
        key: Tuple,
        technique,
        plan: QueryPlan,
        explanation: PlanExplanation,
    ) -> None:
        with self._lock:
            self._entries[key] = (technique, plan, explanation)
            self._entries.move_to_end(key)
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


_PLAN_CACHE = _PlanCache()


def clear_plan_cache() -> None:
    """Drop every cached plan (tests; or after mutating a collection)."""
    _PLAN_CACHE.clear()


def plan_cache_size() -> int:
    """Number of cached plans (observability hook)."""
    return len(_PLAN_CACHE)


def _epsilon_signature(epsilon) -> Optional[Tuple]:
    """A coarse ε fingerprint for the plan-cache key.

    Selectivity depends on the threshold's magnitude, not its exact
    per-query values — the mean (rounded) plus the vector-vs-scalar
    shape is enough to keep workloads with materially different
    thresholds from sharing a plan.
    """
    if epsilon is None:
        return None
    values = np.asarray(epsilon, dtype=np.float64)
    mean = float(np.round(values.mean(), 9)) if values.size else 0.0
    return (int(values.ndim), int(values.size), mean)


def plan_for_workload(
    technique,
    plan: QueryPlan,
    kind: str,
    queries: Sequence,
    collection: Sequence,
    epsilon,
    tau,
    knn_k: Optional[int],
    policy: PlanPolicy,
) -> Tuple[QueryPlan, PlanExplanation]:
    """The tuned (possibly cached) plan for one workload.

    ``plan`` is the technique's authored cascade (``build_plan`` plus
    the index-stage prepend); the chooser tunes it under ``policy`` and
    memoizes the result per ``(technique identity, kind, M, N, ε
    signature, τ, k, policy)`` — one pilot prices a whole sweep of
    identically-shaped executions.
    """
    from .techniques import _epsilon_vector

    epsilons = (
        _epsilon_vector(epsilon, len(queries))
        if epsilon is not None
        else None
    )
    key: Optional[Tuple] = None
    if policy.cost_cache and policy.mode != "fixed":
        key = (
            id(technique),
            kind,
            len(queries),
            len(collection),
            _epsilon_signature(epsilon),
            tau,
            knn_k,
            policy,
        )
        cached = _PLAN_CACHE.get(key)
        if cached is not None:
            plan, explanation = cached
            return plan, replace(explanation, cache_hit=True)
    tuned, explanation = tune_plan(
        technique, plan, kind, queries, collection, epsilons, tau, knn_k, policy
    )
    if key is not None:
        _PLAN_CACHE.put(key, technique, tuned, explanation)
    return tuned, explanation
