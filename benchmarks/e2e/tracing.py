"""Span recorder for the traced benchmark run, installed from outside ``src/``.

The traced run wraps public functions of the ``repro`` package *at their
call sites* (the module-global name a caller looks up, e.g.
``repro.queries.session.sparse_knn_table``) so no library file changes.
Every wrapped call records one span ``(id, name, start, end, parent,
op)``; the parent is the innermost enclosing span of the same thread and
the op id is the benchmark operation the thread is executing.  Spans stay
in memory and are written out once, when the process ends its run.

Wrappers are installed disabled and cost one attribute check until
:meth:`Tracer.enable` flips them on, which lets one process measure an
untraced phase and a traced phase back to back (the difference is the
tracing overhead).  A wrapped name that no longer exists is skipped, so
the benchmark keeps running when a later change removes a layer; the
layer's metrics then read 0.

:func:`layer_metrics` turns the spans and counters of every process of a
workload into the per-layer metrics named in ``spec.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Plan stages whose time, decided share and computed bandwidth are reported.
PLAN_STAGES = ("index", "bounds", "refine", "adaptive-mc")

#: Span record layout: (id, name, start, end, parent id or -1, op id or -1).
Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counters: Dict[str, List[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.op = -1
            local.last_encode_end = None
        return local

    def enable(self) -> None:
        self.enabled = True

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name].append(float(value))

    def call(self, name: str, function: Callable, args, kwargs):
        """Run ``function`` inside a span named ``name``."""
        state = self._state()
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else -1
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self.spans.append((span_id, name, start, end, parent, state.op))

    def op(self, op_id: int, function: Callable, *args):
        """Run one benchmark operation as a root span named ``op``."""
        state = self._state()
        state.op = int(op_id)
        state.last_encode_end = None
        try:
            return self.call("op", function, args, {})
        finally:
            state.op = -1

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a span derived from two timestamps of this thread."""
        state = self._state()
        parent = state.stack[-1] if state.stack else -1
        self.spans.append((next(self._ids), name, start, end, parent, state.op))

    # -- installation ------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attribute: str,
        name: Optional[str],
        on_result: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> bool:
        """Replace ``owner.attribute`` with a recording wrapper.

        ``name=None`` records no span, only what ``on_result`` counts.
        Returns False (and changes nothing) when the attribute is gone.
        """
        raw = inspect.getattr_static(owner, attribute, None)
        if raw is None:
            return False
        is_static = isinstance(raw, staticmethod)
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original, updated=())
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            if before is not None:
                before(tracer)
            if name is None:
                result = original(*args, **kwargs)
            else:
                result = tracer.call(name, original, args, kwargs)
            if on_result is not None:
                try:
                    on_result(tracer, args, kwargs, result)
                except Exception:  # noqa: BLE001 — a counter must not fail a query
                    tracer.counters["trace.callback_errors"].append(1.0)
            return result

        setattr(owner, attribute, staticmethod(wrapper) if is_static else wrapper)
        return True

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": self.spans, "counters": dict(self.counters)}, handle)


# ---------------------------------------------------------------------------
# What gets wrapped
# ---------------------------------------------------------------------------


def _mark_encode_end(tracer: Tracer, args, kwargs, result) -> None:
    tracer._state().last_encode_end = time.perf_counter()


def _client_wait(tracer: Tracer) -> None:
    """Before a client decodes a reply: the time since its request went out.

    Client-side only, so the derived ``client.wait`` span covers the wire
    round trip plus all daemon-side work of the request.
    """
    state = tracer._state()
    if state.last_encode_end is not None and state.op >= 0:
        tracer.add_span("client.wait", state.last_encode_end, time.perf_counter())
        state.last_encode_end = None


def _on_shard_reply(tracer: Tracer, args, kwargs, result) -> None:
    """Group shard replies by their logical request for the fan-out skew."""
    request_id = result.get("id") if isinstance(result, dict) else None
    elapsed = result.get("elapsed_ms") if isinstance(result, dict) else None
    if isinstance(request_id, str) and elapsed is not None:
        # One append per reply: the shard threads interleave.
        tracer.counters["cluster.replies"].append(
            [request_id.split(".s")[0], float(elapsed)]
        )


def _on_ok_response(tracer: Tracer, args, kwargs, result) -> None:
    batch = result.get("batch") if isinstance(result, dict) else None
    if batch:
        tracer.count("batching.wait_ms", batch.get("waited_ms", 0.0))


def _on_batch(tracer: Tracer, args, kwargs, result) -> None:
    jobs = args[3] if len(args) > 3 else kwargs.get("jobs", ())
    tracer.count("batching.jobs", len(jobs))


def _on_plan_choice(tracer: Tracer, args, kwargs, result) -> None:
    explanation = result[1]
    tracer.count("planner.cache_hit", 1.0 if explanation.cache_hit else 0.0)
    tracer.count("planner.pilot_cells", explanation.pilot_cells)


def _stage_bytes(stage: str, technique, collection, policy) -> float:
    """Bytes one cell costs ``stage`` under the planner's own cost model."""
    try:
        length = max(1, len(collection[0]))
    except (IndexError, TypeError):
        length = 1
    try:
        from repro.queries.planner import _stage_bytes_per_cell
    except ImportError:
        return 16.0 * length
    return float(_stage_bytes_per_cell(stage, technique, length, policy))


def _on_plan_execute(tracer: Tracer, args, kwargs, result) -> None:
    stats = result[1]
    technique, collection = args[1], args[4]
    policy = kwargs.get("policy")
    samples = 0
    for entry in stats.stages:
        prefix = f"plan.{entry.stage}"
        tracer.count(f"{prefix}.seconds", entry.seconds)
        tracer.count(f"{prefix}.entered", entry.entered)
        tracer.count(f"{prefix}.decided", entry.decided)
        tracer.count(
            f"{prefix}.bytes",
            entry.entered * _stage_bytes(entry.stage, technique, collection, policy),
        )
        samples += entry.samples_drawn
    tracer.count("plan.mc_samples", samples)
    selectivity = stats.index_selectivity
    if selectivity is not None:
        tracer.count("index.selectivity", selectivity)


def _targets() -> List[Tuple[str, Optional[str], str, Optional[str], Any, Any]]:
    """(module, class or None, attribute, span name, on_result, before)."""
    verbs = ("knn", "range", "prob_range", "profile_matrix", "calibration_matrix")
    targets = [
        ("repro.service.client", None, "encode_message", "protocol.encode",
         _mark_encode_end, None),
        ("repro.service.client", None, "decode_message", "protocol.decode",
         None, _client_wait),
        ("repro.service.cluster", None, "encode_message", "protocol.encode",
         None, None),
        ("repro.service.cluster", None, "decode_message", "protocol.decode",
         _on_shard_reply, None),
        ("repro.service.daemon", None, "encode_message", "protocol.encode",
         None, None),
        ("repro.service.daemon", None, "decode_message", "protocol.decode",
         None, None),
        ("repro.service.daemon", None, "parse_request", "daemon.parse", None, None),
        ("repro.service.daemon", None, "ok_response", None, _on_ok_response, None),
        ("repro.service.daemon", None, "execute_batch", "batching.execute",
         _on_batch, None),
        ("repro.service.daemon", None, "execute_shard_batch", "batching.execute",
         _on_batch, None),
        ("repro.service.cluster", None, "merge_knn_rows", "cluster.merge",
         None, None),
        ("repro.service.cluster", "PruningStats", "merge_shards", "cluster.merge",
         None, None),
        ("repro.queries.session", None, "sparse_knn_table", "session.topk",
         None, None),
        ("repro.queries.session", None, "knn_table", "session.topk", None, None),
        ("repro.service.batching", None, "local_topk_rows", "session.topk",
         None, None),
        ("repro.queries.techniques", None, "plan_for_workload", "planner.choose",
         _on_plan_choice, None),
        ("repro.queries.planner", "QueryPlan", "execute", "plan.execute",
         _on_plan_execute, None),
        ("repro.queries.techniques", None, "euclidean_matrix", "kernel.gemm",
         None, None),
        ("repro.queries.techniques", None, "squared_euclidean_matrix",
         "kernel.gemm", None, None),
        ("repro.queries.knn", None, "euclidean_matrix", "kernel.gemm", None, None),
        ("repro.queries.techniques", None, "banded_dtw_from_costs", "kernel.dtw",
         None, None),
        ("repro.queries.techniques", None, "rolling_dtw_from_cost_fn",
         "kernel.dtw", None, None),
        ("repro.queries.techniques", None, "dtw_hits_paired", "kernel.dtw",
         None, None),
        ("repro.queries.techniques", None, "convolved_probability_batch",
         "kernel.munich_conv", None, None),
        ("repro.experiments.runner", None, "run_similarity_experiment",
         "harness.experiment", None, None),
        ("repro.experiments.fig04", None, "run_similarity_experiment",
         "harness.experiment", None, None),
        ("repro.queries.session", "QuerySet", "profile_matrix",
         "queryset.profile_matrix", None, None),
        ("repro.queries.session", "QuerySet", "calibration_matrix",
         "harness.calibrate", None, None),
        ("repro.evaluation.harness", None, "calibrate_queries", "harness.calibrate",
         None, None),
        ("repro.evaluation.harness", None, "optimal_tau", "harness.tau_search",
         None, None),
        ("repro.evaluation.harness", None, "SimilaritySession", "harness.session",
         None, None),
    ]
    targets += [
        ("repro.service.cluster", "ClusterCoordinator", verb, "cluster.call",
         None, None)
        for verb in ("knn", "range", "prob_range")
    ]
    targets += [
        ("repro.queries.session", "InProcessBackend", verb, "session.call",
         None, None)
        for verb in verbs
    ]
    return targets


def install(tracer: Tracer) -> Tracer:
    """Wrap every target that exists in this version of ``repro``."""
    for module_name, class_name, attribute, name, on_result, before in _targets():
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            continue
        if class_name is not None:
            owner = getattr(owner, class_name, None)
            if owner is None:
                continue
        tracer.wrap(owner, attribute, name, on_result=on_result, before=before)
    return tracer


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def _mean(values: Sequence[float]) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def check_spans(spans: Sequence[Span]) -> List[str]:
    """Violations of the span invariants within one process.

    Every child lies inside its parent, and every span's self time (its
    duration minus the union of its children) is non-negative.
    """
    by_id = {span[0]: span for span in spans}
    children: Dict[int, List[Span]] = defaultdict(list)
    problems: List[str] = []
    for span in spans:
        span_id, name, start, end, parent, _ = span
        if end < start:
            problems.append(f"span {span_id} ({name}) ends before it starts")
        if parent < 0:
            continue
        outer = by_id.get(parent)
        if outer is None:
            problems.append(f"span {span_id} ({name}) has no parent {parent}")
            continue
        if start < outer[2] or end > outer[3]:
            problems.append(
                f"span {span_id} ({name}) lies outside its parent {outer[1]}"
            )
        children[parent].append(span)
    for span_id, kids in children.items():
        outer = by_id[span_id]
        self_time = (outer[3] - outer[2]) - _covered((k[2], k[3]) for k in kids)
        if self_time < -1e-9:
            problems.append(f"span {span_id} ({outer[1]}) has negative self time")
    return problems


def _durations(processes, name: str, scale: float = 1e3) -> List[float]:
    return [
        (span[3] - span[2]) * scale
        for process in processes
        for span in process["spans"]
        if span[1] == name
    ]


def _counter(processes, name: str) -> List[float]:
    return [
        value for process in processes for value in process["counters"].get(name, ())
    ]


def _under(processes, name: str, ancestor: str, scale: float) -> List[float]:
    """Durations of ``name`` spans that run inside an ``ancestor`` span."""
    found = []
    for process in processes:
        by_id = {span[0]: span for span in process["spans"]}
        for span in process["spans"]:
            if span[1] != name:
                continue
            parent = span[4]
            while parent >= 0:
                outer = by_id.get(parent)
                if outer is None:
                    break
                if outer[1] == ancestor:
                    found.append((span[3] - span[2]) * scale)
                    break
                parent = outer[4]
    return found


def _per_parent_sum(processes, names, parent_name: str) -> List[float]:
    sums = []
    for process in processes:
        by_id = {span[0]: span for span in process["spans"]}
        totals: Dict[int, float] = defaultdict(float)
        for span in process["spans"]:
            outer = by_id.get(span[4])
            if span[1] in names and outer is not None and outer[1] == parent_name:
                totals[span[4]] += span[3] - span[2]
        parents = [s[0] for s in process["spans"] if s[1] == parent_name]
        sums.extend(totals.get(p, 0.0) * 1e3 for p in parents)
    return sums


def _fanout_skew(processes) -> List[float]:
    skews = []
    for process in processes:
        groups: Dict[str, List[float]] = defaultdict(list)
        for logical, value in process["counters"].get("cluster.replies", ()):
            groups[logical].append(value)
        for values in groups.values():
            if len(values) > 1:
                skews.append(max(values) - percentile(values, 50))
    return skews


def unattributed_fraction(processes) -> float:
    """Share of op wall time that no child span of the op covers."""
    total = uncovered = 0.0
    for process in processes:
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for span in process["spans"]:
            if span[4] >= 0:
                children[span[4]].append((span[2], span[3]))
        for span in process["spans"]:
            if span[1] != "op":
                continue
            duration = span[3] - span[2]
            total += duration
            uncovered += duration - _covered(children.get(span[0], ()))
    return uncovered / total if total > 0 else 0.0


def layer_metrics(processes: List[Dict], n_ops: int) -> Dict[str, float]:
    """Per-layer metrics from every traced process of one workload run.

    Times are p50 per call of the wrapped function unless the metric name
    says otherwise; layers a workload never enters read 0.
    """
    p50 = lambda values: percentile(values, 50)  # noqa: E731
    metrics: Dict[str, float] = {
        "protocol.encode_ms": p50(_durations(processes, "protocol.encode")),
        "protocol.decode_ms": p50(_durations(processes, "protocol.decode")),
        "daemon.parse_ms": p50(_durations(processes, "daemon.parse")),
        "client.wait_ms": p50(_durations(processes, "client.wait")),
        "batching.wait_ms": p50(_counter(processes, "batching.wait_ms")),
        "batching.occupancy": _mean(_counter(processes, "batching.jobs")),
        "batching.execute_ms": p50(_durations(processes, "batching.execute")),
        "cluster.call_ms": p50(_durations(processes, "cluster.call")),
        "cluster.merge_ms": p50(
            _per_parent_sum(processes, {"cluster.merge"}, "cluster.call")
        ),
        "cluster.fanout_skew_ms": p50(_fanout_skew(processes)),
        "session.topk_ms": p50(_durations(processes, "session.topk")),
        "session.call_ms": p50(_durations(processes, "session.call")),
        "planner.choose_ms": p50(_durations(processes, "planner.choose")),
        "planner.cache_hit_rate": _mean(_counter(processes, "planner.cache_hit")),
        "planner.pilot_cells": _mean(_counter(processes, "planner.pilot_cells")),
        "plan.execute_ms": p50(_durations(processes, "plan.execute")),
        "plan.mc_samples": _mean(_counter(processes, "plan.mc_samples")),
        "index.selectivity": _mean(_counter(processes, "index.selectivity")),
        "kernel.gemm_ms": p50(_durations(processes, "kernel.gemm")),
        "kernel.dtw_ms": p50(_durations(processes, "kernel.dtw")),
        "kernel.munich_conv_ms": p50(_durations(processes, "kernel.munich_conv")),
        "harness.experiment_s": p50(
            _durations(processes, "harness.experiment", scale=1.0)
        ),
        "harness.matrix_s": p50(
            _under(processes, "queryset.profile_matrix", "harness.experiment", 1.0)
        ),
        "harness.calibrate_s": p50(
            _under(processes, "harness.calibrate", "harness.experiment", 1.0)
        ),
        "harness.tau_search_s": p50(
            _durations(processes, "harness.tau_search", scale=1.0)
        ),
        "harness.sessions": (
            len(_durations(processes, "harness.session")) / n_ops if n_ops else 0.0
        ),
        "trace.unattributed_frac": unattributed_fraction(processes),
    }
    for stage in PLAN_STAGES:
        prefix = f"plan.{stage}"
        seconds = _counter(processes, f"{prefix}.seconds")
        entered = sum(_counter(processes, f"{prefix}.entered"))
        decided = sum(_counter(processes, f"{prefix}.decided"))
        moved = sum(_counter(processes, f"{prefix}.bytes"))
        metrics[f"{prefix}.ms"] = p50([value * 1e3 for value in seconds])
        metrics[f"{prefix}.decided_frac"] = decided / entered if entered else 0.0
        metrics[f"{prefix}.gbps"] = moved / sum(seconds) / 1e9 if sum(seconds) else 0.0
    return metrics
