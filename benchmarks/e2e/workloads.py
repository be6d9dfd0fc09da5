"""The four end-to-end workloads: set-up, closed-loop load, checks.

Each runner builds its inputs from the seed, deploys the real shape
(daemon, shard fleet, in-process sessions, or a fresh evaluation
process), drives it through the public surface — ``repro.api.connect()``
sessions or the ``repro.experiments`` figure runners — for the requested
seconds, and then checks the answers it recorded.  Set-up runs
``setup_repetitions`` times and the last deployment serves the load, so
the reported set-up time is a median.

A traced run splits the seconds in two: an untraced phase with the
wrappers installed but off, then a traced phase.  Per-layer metrics come
from the traced phase; the throughput difference between the phases is
the tracing overhead.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Sequence

import numpy as np

import deploy
import tracing

with open(os.path.join(deploy.HERE, "spec.json"), "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

K = 10
#: Figures cheap enough to re-run as the per-pass determinism check.
RECHECK_FIGURES = (8, 10, 16)
SETUP_PARTS = ("generate", "save", "index", "catalog", "ready", "warm")


class Op(NamedTuple):
    index: int
    kind: str
    row: int
    epsilon: Optional[float]
    noise_seed: int


class OpStream:
    """The seeded, endless op sequence of a workload: ``stream(i)`` is op i.

    Op ``i`` depends only on ``(seed, salt, i)`` and the seeded data, so
    every run with the same seed issues the same ops in the same order
    however many it gets through, and the checks can regenerate any op.

    Kinds are stratified: each block of ``block`` consecutive ops holds
    exactly the mix's share of every kind, in a seeded order, so a run's
    op mix does not drift with how many ops it completes.

    An op kind's ε is either drawn from a fixed ``epsilon`` range or, with
    ``epsilon_rank: [lo, hi]``, set to the query row's distance to its
    r-th nearest neighbour (``ranked[collection][row, r]``, rows sorted
    ascending with the row itself first) for r uniform in ``[lo, hi]`` —
    a fixed selectivity whatever distances the seed's data happens to have.
    """

    def __init__(self, seed: int, salt: int, mix: Dict[str, Dict], rows: Dict,
                 ranked: Optional[Dict[str, np.ndarray]] = None):
        self.seed, self.salt, self.mix = int(seed), int(salt), mix
        self.kinds = list(mix)
        shares = np.array([mix[kind]["share"] for kind in self.kinds])
        self.block = next(
            size for size in range(1, 1001)
            if np.allclose(shares * size, np.round(shares * size), atol=1e-9)
        )
        self.layout = np.repeat(np.arange(len(self.kinds)),
                                np.round(shares * self.block).astype(int))
        self.rows = rows
        self.ranked = ranked or {}

    def __call__(self, index: int) -> Op:
        block, position = divmod(int(index), self.block)
        order = np.random.default_rng([self.seed, self.salt, 0, block]).permutation(
            self.layout)
        kind = self.kinds[int(order[position])]
        rng = np.random.default_rng([self.seed, self.salt, 1, int(index)])
        spec = self.mix[kind]
        row = int(rng.integers(self.rows[spec["collection"]]))
        epsilon = None
        if "epsilon" in spec:
            epsilon = float(rng.uniform(*spec["epsilon"]))
        elif "epsilon_rank" in spec:
            low, high = spec["epsilon_rank"]
            rank = int(rng.integers(low, high + 1))
            epsilon = float(self.ranked[spec["collection"]][row, rank])
        return Op(int(index), kind, row, epsilon, int(rng.integers(2**31)))

    def first_of_each_kind(self, salt: int) -> List[Op]:
        """One op per kind from a separate stream (the warm-up ops)."""
        warm = OpStream(self.seed, salt, self.mix, self.rows, self.ranked)
        found: Dict[str, Op] = {}
        index = 0
        while len(found) < len(self.kinds):
            op = warm(index)
            found.setdefault(op.kind, op)
            index += 1
        return [found[kind] for kind in self.kinds]


def serve_stream(seed: int, sizes: Dict) -> OpStream:
    mix = SPEC["workloads"]["serve-daemon"]["op_mix"]
    rows = {"main": sizes["main_series"], "pdf": sizes["pdf_series"]}
    return OpStream(seed, 1, mix, rows)


def prob_stream(seed: int, sizes: Dict, ranked: Dict[str, np.ndarray]) -> OpStream:
    mix = SPEC["workloads"]["prob-inproc"]["op_mix"]
    rows = {"pdf": sizes["pdf_series"], "ms": sizes["ms_series"]}
    return OpStream(seed, 2, mix, rows, ranked)


def neighbour_distances(points: np.ndarray) -> np.ndarray:
    """Each row's Euclidean distances to every row, sorted ascending."""
    norms = np.einsum("ij,ij->i", points, points)
    squared = norms[:, None] + norms[None, :] - 2.0 * points @ points.T
    np.fill_diagonal(squared, 0.0)
    return np.sort(np.sqrt(np.maximum(squared, 0.0)), axis=1)


def sizes_of(workload: str, quick: bool) -> Dict:
    spec = SPEC["workloads"][workload]
    if workload == "serve-cluster":
        spec = SPEC["workloads"]["serve-daemon"]
    return spec["quick_sizes" if quick else "sizes"]


# ---------------------------------------------------------------------------
# Closed-loop load
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Phase:
    """What one timed phase did: one record per op, in completion order."""

    records: List[tuple] = dataclasses.field(default_factory=list)
    started: float = 0.0
    ended: float = 0.0
    cpu_s: float = 0.0

    @property
    def wall(self) -> float:
        return max(self.ended - self.started, 1e-9)

    @property
    def ok_latencies_ms(self) -> List[float]:
        return [(end - start) * 1e3 for _, start, end, error, _ in self.records
                if error is None]

    @property
    def errors(self) -> List[str]:
        return [error for *_, error, _ in self.records if error is not None]

    @property
    def throughput(self) -> float:
        return len(self.ok_latencies_ms) / self.wall


def closed_loop(
    contexts: Sequence[Any],
    seconds: float,
    stream: Callable[[int], Op],
    execute: Callable[[Op, Any], Any],
    first_index: int,
    check_every: int,
    tracer: Optional[tracing.Tracer],
    cpu: Callable[[], float],
) -> Phase:
    """One caller thread per context; each waits for its reply, then sends.

    Ops are handed out in stream order until ``seconds`` have passed;
    answers of every ``check_every``-th op are kept for the checks.
    """
    phase = Phase()
    lock = threading.Lock()
    next_index = [first_index]

    def caller(context) -> None:
        while True:
            with lock:
                if time.perf_counter() >= deadline:
                    return
                index = next_index[0]
                next_index[0] += 1
            op = stream(index)
            started = time.perf_counter()
            try:
                if tracer is not None and tracer.enabled:
                    answer = tracer.op(index, execute, op, context)
                else:
                    answer = execute(op, context)
                error = None
            except Exception as failure:  # noqa: BLE001 — counted as failed
                answer, error = None, f"{type(failure).__name__}: {failure}"
            ended = time.perf_counter()
            kept = answer if index % check_every == 0 else None
            phase.records.append((op, started, ended, error, kept))

    threads = [threading.Thread(target=caller, args=(c,)) for c in contexts]
    cpu_before = cpu()
    phase.started = time.perf_counter()
    deadline = phase.started + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.ended = max([r[2] for r in phase.records], default=time.perf_counter())
    phase.cpu_s = cpu() - cpu_before
    return phase


def phases_for(seconds: float, trace: bool) -> List[float]:
    """A traced run measures an untraced half, then a traced half."""
    return [seconds / 2.0, seconds / 2.0] if trace else [seconds]


def run_phases(seconds, trace, contexts, stream, execute, check_every, tracer,
               cpu, enable_remote=lambda: None) -> List[Phase]:
    phases = []
    first = 0
    for position, budget in enumerate(phases_for(seconds, trace)):
        if position == 1:
            tracer.enable()
            enable_remote()
        phase = closed_loop(contexts, budget, stream, execute, first,
                            check_every, tracer, cpu)
        first = max((r[0].index for r in phase.records), default=first) + 1
        phases.append(phase)
    if tracer is not None:
        tracer.enabled = False
    return phases


# ---------------------------------------------------------------------------
# Answers and how they are compared
# ---------------------------------------------------------------------------


def knn_answer(result) -> tuple:
    return ("knn", [int(i) for i in result.indices[0]],
            [float(s) for s in result.scores[0]])


def match_answer(result) -> tuple:
    return ("matches", sorted(int(i) for i in result.matches[0]))


def same_answer(got, expected, scores: bool) -> bool:
    if got is None or expected is None or got[0] != expected[0]:
        return False
    if got[1] != expected[1]:
        return False
    if got[0] == "knn" and scores:
        return bool(np.allclose(got[2], expected[2], rtol=0.0, atol=1e-9))
    return True


def check_recorded(phases: Sequence[Phase], recompute, scores: bool) -> Dict:
    """Re-execute every kept answer and compare; mismatches count as failed."""
    checked = mismatched = 0
    examples: List[str] = []
    for phase in phases:
        for op, _, _, error, kept in phase.records:
            if kept is None or error is not None:
                continue
            checked += 1
            try:
                expected = recompute(op)
            except Exception as failure:  # noqa: BLE001
                expected = None
                examples.append(f"op {op.index}: {type(failure).__name__}: {failure}")
            if not same_answer(kept, expected, scores):
                mismatched += 1
                if len(examples) < 5:
                    examples.append(f"op {op.index} ({op.kind}) differs")
    return {"checked": checked, "mismatched": mismatched, "examples": examples}


# ---------------------------------------------------------------------------
# Shared result assembly
# ---------------------------------------------------------------------------


def median_setup(setups: List[Dict[str, float]]) -> Dict[str, float]:
    totals = [sum(s.get(part, 0.0) for part in SETUP_PARTS) for s in setups]
    parts = {
        f"setup.{part}_s": statistics.median(s.get(part, 0.0) for s in setups)
        for part in SETUP_PARTS
    }
    return {"setup_s": statistics.median(totals), "totals": totals, **parts}


def summarize(phase: Phase, failed: int, attempted: int, setup: Dict,
              peak_rss: float, extra: Dict) -> Dict:
    """End-to-end metrics of the untraced (first) phase, plus diagnostics."""
    latencies = phase.ok_latencies_ms
    metrics = {
        "setup_s": setup["setup_s"],
        "throughput_ops": phase.throughput,
        "lat_p50_ms": tracing.percentile(latencies, 50),
        "lat_p90_ms": tracing.percentile(latencies, 90),
        "cpu_s_per_kop": phase.cpu_s / max(len(latencies), 1) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    by_kind: Dict[str, List[float]] = {}
    for op, start, end, error, _ in phase.records:
        if error is None:
            by_kind.setdefault(op.kind, []).append((end - start) * 1e3)
    diagnostics = {
        "lat_p99_ms": tracing.percentile(latencies, 99),
        "lat_p50_ms_by_kind": {
            kind: [len(values), tracing.percentile(values, 50)]
            for kind, values in sorted(by_kind.items())
        },
        "ops_completed": len(latencies),
        "measured_s": phase.wall,
        "fail_frac": failed / max(attempted, 1),
        "errors": phase.errors[:5],
        "setup_totals_s": setup["totals"],
        **{k: v for k, v in setup.items() if k.startswith("setup.")},
        **extra,
    }
    return {"metrics": metrics, "diagnostics": diagnostics}


def trace_metrics(processes, n_ops, phases, setup, cpu_util, extra) -> Dict:
    metrics = tracing.layer_metrics(processes, n_ops)
    metrics.update({k: v for k, v in setup.items() if k.startswith("setup.")})
    metrics["proc.cpu_util"] = cpu_util
    untraced, traced = phases[0].throughput, phases[1].throughput
    metrics["trace.overhead_frac"] = 1.0 - traced / untraced if untraced else 0.0
    metrics.update(extra)
    problems = [p for process in processes
                for p in tracing.check_spans(process["spans"])]
    return {"layers": metrics, "span_problems": problems[:10],
            "span_problem_count": len(problems)}


def load_spans(paths: Sequence[str]) -> List[Dict]:
    processes = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            processes.append(json.load(handle))
    return processes


def timed(timings: Dict[str, float], part: str, function, *args, **kwargs):
    started = time.perf_counter()
    try:
        return function(*args, **kwargs)
    finally:
        timings[part] = timings.get(part, 0.0) + time.perf_counter() - started


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> Dict:
    from repro.queries.planner import get_default_policy

    try:
        from repro.core.kernels import available_backends

        backends = list(available_backends())
    except ImportError:
        backends = ["numpy"]
    policy = get_default_policy()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc(),
        "machine": platform.machine(),
        "backends": backends,
        "policy": dataclasses.asdict(policy),
        "REPRO_PLAN_MODE": os.environ.get("REPRO_PLAN_MODE"),
    }


# ---------------------------------------------------------------------------
# serve-daemon and serve-cluster
# ---------------------------------------------------------------------------


def build_serve_data(directory: str, seed: int, sizes: Dict, timings: Dict) -> Dict:
    from repro import api

    def generate():
        main = api.stream_fourier_collection(
            os.path.join(directory, "main"), sizes["main_series"],
            sizes["main_length"], seed=seed,
        )
        exact = api.generate_dataset(
            sizes["pdf_dataset"], seed=seed, n_series=sizes["pdf_series"],
            length=sizes["pdf_length"],
        )
        scenario = api.ConstantScenario("normal", sizes["sigma"])
        pdf = [scenario.apply(series, api.spawn(seed, "pdf", index))
               for index, series in enumerate(exact)]
        return main, pdf

    main, pdf_items = timed(timings, "generate", generate)
    pdf = timed(timings, "save", api.save_collection, pdf_items,
                os.path.join(directory, "pdf"))
    timed(timings, "index", api.build_index, main,
          n_segments=sizes["index_segments"])
    return {"dir": directory, "manifests": {"main": main, "pdf": pdf},
            "n_series": {"main": sizes["main_series"], "pdf": sizes["pdf_series"]}}


def register(catalog_path: str, manifests: Dict[str, str]) -> str:
    from repro import api

    with api.ServiceCatalog(catalog_path) as catalog:
        for name, manifest in manifests.items():
            catalog.register(name, manifest)
    return catalog_path


def deploy_serve(data: Dict, shards: int, callers: int, timings: Dict,
                 spans_dir: Optional[str]):
    """Start the daemon(s); returns the fleet and one session set per caller."""
    from repro import api

    directory = data["dir"]
    catalogs = [
        timed(timings, "catalog", register,
              os.path.join(directory, f"daemon{i}.db"), data["manifests"])
        for i in range(shards)
    ]
    fleet = timed(timings, "ready", deploy.Fleet, catalogs, spans_dir)
    try:
        if shards == 1:
            def sessions():
                port = fleet.ports[0]
                return {name: api.connect(f"tcp://127.0.0.1:{port}/{name}")
                        for name in data["manifests"]}
        else:
            routing = os.path.join(directory, "routing.db")

            def shard_maps():
                register(routing, data["manifests"])
                with api.ServiceCatalog(routing) as catalog:
                    for name, n_series in data["n_series"].items():
                        bounds = np.linspace(0, n_series, shards + 1).astype(int)
                        catalog.set_shard_map(name, [
                            ("127.0.0.1", port, int(lo), int(hi))
                            for port, lo, hi in zip(fleet.ports, bounds[:-1],
                                                    bounds[1:])
                        ])

            timed(timings, "catalog", shard_maps)

            def sessions():
                return {name: api.connect(routing, collection=name)
                        for name in data["manifests"]}

        contexts = [timed(timings, "ready", sessions) for _ in range(callers)]
    except BaseException:
        fleet.stop()
        raise
    return fleet, contexts


class ServeExecutor:
    """Runs one serve op through a session set (remote or in-process)."""

    def __init__(self, manifests: Dict[str, str], local: bool):
        from repro import api

        self.api = api
        self.local = local
        self.main = api.load_collection(manifests["main"])
        self.euclidean = api.EuclideanTechnique()
        self.dust = api.DustTechnique()

    def query_values(self, op: Op):
        values = np.asarray(self.main[op.row].values, dtype=np.float64)
        noise = np.random.default_rng(op.noise_seed).normal(0.0, 0.05, values.size)
        row = values + noise
        return self.api.TimeSeries(row) if self.local else row

    def __call__(self, op: Op, sessions) -> tuple:
        if op.kind == "knn-index":
            query = sessions["main"].queries([op.row]).using(self.euclidean)
            return knn_answer(query.knn(K))
        if op.kind == "knn-values":
            query = sessions["main"].queries([self.query_values(op)])
            return knn_answer(query.using(self.euclidean).knn(K))
        if op.kind == "range-index":
            query = sessions["main"].queries([op.row]).using(self.euclidean)
            return match_answer(query.range(op.epsilon))
        if op.kind == "dust-knn":
            query = sessions["pdf"].queries([op.row]).using(self.dust)
            return knn_answer(query.knn(K))
        raise ValueError(f"unknown serve op kind {op.kind!r}")


def _coordinator_counts(contexts) -> Dict[str, float]:
    totals = {"hedges_fired": 0.0, "duplicates_discarded": 0.0}
    for sessions in contexts:
        for session in sessions.values():
            coordinator = getattr(session.backend, "coordinator", None)
            for key in totals:
                totals[key] += float(getattr(coordinator, key, 0) or 0)
    return totals


def run_serve(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
              workdir: str) -> Dict:
    spec = SPEC["workloads"][workload]
    sizes = sizes_of(workload, quick)
    shards = spec.get("shards", 1)
    callers = spec["callers"]
    check_every = SPEC["workloads"]["serve-daemon"]["check_every"]
    stream = serve_stream(seed, sizes)
    tracer = tracing.install(tracing.Tracer()) if trace else None
    spans_dir = os.path.join(workdir, "spans") if trace else None
    if spans_dir:
        os.makedirs(spans_dir, exist_ok=True)
    repetitions = 1 if quick else SPEC["setup_repetitions"]
    setups: List[Dict] = []
    fleet, contexts = None, []
    try:
        for repetition in range(repetitions):
            if fleet is not None:
                _close(contexts)
                fleet.stop()
                fleet, contexts = None, []
            timings: Dict[str, float] = {}
            data = build_serve_data(os.path.join(workdir, f"setup{repetition}"),
                                    seed, sizes, timings)
            fleet, contexts = deploy_serve(data, shards, callers, timings,
                                           spans_dir)
            executor = ServeExecutor(data["manifests"], local=False)
            for op in stream.first_of_each_kind(salt=101):
                timed(timings, "warm", executor, op, contexts[0])
            setups.append(timings)
        counts_before = _coordinator_counts(contexts)
        cpu = lambda: deploy.cpu_seconds() + fleet.cpu_seconds()  # noqa: E731
        phases = run_phases(
            seconds, trace, contexts, stream, executor, check_every, tracer, cpu,
            enable_remote=lambda: fleet.signal(signal.SIGUSR1),
        )
        counts = {k: v - counts_before[k]
                  for k, v in _coordinator_counts(contexts).items()}
        peak_rss = fleet.peak_rss_mb()
    finally:
        _close(contexts)
        if fleet is not None:
            fleet.stop()
    local = ServeExecutor(data["manifests"], local=True)
    with local.api.connect(data["manifests"]["main"]) as main, \
            local.api.connect(data["manifests"]["pdf"]) as pdf:
        checks = check_recorded(phases, lambda op: local(op, {"main": main,
                                                              "pdf": pdf}),
                                scores=True)
    return _assemble(phases, checks, median_setup(setups), peak_rss, trace,
                     tracer, fleet.span_files if trace else [], counts)


def _close(contexts) -> None:
    for sessions in contexts:
        for session in sessions.values():
            session.close()


def _assemble(phases, checks, setup, peak_rss, trace, tracer, span_files,
              counts=None) -> Dict:
    failed = sum(len(p.errors) for p in phases) + checks["mismatched"]
    main_phase = phases[0]
    counts = counts or {}
    n_ops = sum(len(p.records) for p in phases)
    per_kop = {
        f"cluster.{name}": value / max(n_ops, 1) * 1e3
        for name, value in (("hedges_per_kop", counts.get("hedges_fired", 0.0)),
                            ("duplicates_per_kop",
                             counts.get("duplicates_discarded", 0.0)))
    }
    result = summarize(main_phase, failed, n_ops, setup, peak_rss,
                       {"checks": checks, **per_kop})
    result.update(attempted=n_ops, failed=failed)
    if trace:
        processes = [{"spans": tracer.spans, "counters": dict(tracer.counters)}]
        processes += load_spans(span_files)
        traced = phases[1]
        cpu_util = traced.cpu_s / traced.wall / nproc()
        result.update(trace_metrics(processes, len(traced.records), phases, setup,
                                    cpu_util, per_kop))
    return result


# ---------------------------------------------------------------------------
# prob-inproc
# ---------------------------------------------------------------------------


def build_prob_data(directory: str, seed: int, sizes: Dict, timings: Dict) -> Dict:
    from repro import api

    def exact(name: str):
        manifest = api.stream_fourier_collection(
            os.path.join(directory, f"{name}-exact"), sizes[f"{name}_series"],
            sizes[f"{name}_length"], seed=api.spawn(seed, f"{name}-exact"),
        )
        return [api.TimeSeries(np.asarray(s.values))
                for s in api.load_collection(manifest)]

    def generate():
        scenario = api.ConstantScenario("normal", sizes["sigma"])
        pdf = [scenario.apply(series, api.spawn(seed, "pdf", index))
               for index, series in enumerate(exact("pdf"))]
        ms = [scenario.apply_multisample(series, sizes["samples_per_timestamp"],
                                         api.spawn(seed, "ms", index))
              for index, series in enumerate(exact("ms"))]
        return pdf, ms

    pdf, ms = timed(timings, "generate", generate)
    manifests = {
        "pdf": timed(timings, "save", api.save_collection, pdf,
                     os.path.join(directory, "pdf")),
        "ms": timed(timings, "save", api.save_collection, ms,
                    os.path.join(directory, "ms")),
    }
    for manifest in manifests.values():
        timed(timings, "index", api.build_index, manifest)
    ranked = {
        "pdf": neighbour_distances(np.vstack([s.values for s in pdf])),
        "ms": neighbour_distances(np.vstack([s.samples.mean(axis=1) for s in ms])),
    }
    return manifests, ranked


class ProbExecutor:
    """Runs one prob-inproc op through in-process sessions."""

    def __init__(self, seed: int):
        from repro import api

        spec = SPEC["workloads"]["prob-inproc"]["op_mix"]
        self.tau = {kind: spec[kind].get("tau") for kind in spec}
        dtw_mc = spec["munich-dtw-prob-range"]
        self.techniques = {
            "proud-prob-range": api.ProudTechnique(),
            "dust-dtw-knn": api.DustDtwTechnique(
                window=spec["dust-dtw-knn"]["window"]),
            "munich-prob-range": api.MunichTechnique(),
            "munich-dtw-prob-range": api.MunichDtwTechnique(
                window=dtw_mc["window"],
                munich=api.Munich(tau=dtw_mc["tau"], method="montecarlo",
                                  n_samples=dtw_mc["mc_samples"], rng=int(seed)),
            ),
        }
        self.collection = {kind: spec[kind]["collection"] for kind in spec}

    def __call__(self, op: Op, sessions) -> tuple:
        session = sessions[self.collection[op.kind]]
        query = session.queries([op.row]).using(self.techniques[op.kind])
        if op.kind == "dust-dtw-knn":
            return knn_answer(query.knn(K))
        return match_answer(query.prob_range(op.epsilon, self.tau[op.kind]))


def reference_policy():
    """The slow, exact plan the checks compare against."""
    from repro import api

    try:
        return api.PlanPolicy(mode="fixed", precision="float64")
    except TypeError:
        return api.PlanPolicy(mode="fixed")


def run_prob(seed: int, seconds: float, trace: bool, quick: bool,
             workdir: str) -> Dict:
    from repro import api

    spec = SPEC["workloads"]["prob-inproc"]
    sizes = sizes_of("prob-inproc", quick)
    tracer = tracing.install(tracing.Tracer()) if trace else None
    repetitions = 1 if quick else SPEC["setup_repetitions"]
    setups: List[Dict] = []
    sessions: Dict = {}
    try:
        for repetition in range(repetitions):
            for session in sessions.values():
                session.close()
            timings: Dict[str, float] = {}
            manifests, ranked = build_prob_data(
                os.path.join(workdir, f"setup{repetition}"), seed, sizes, timings)
            stream = prob_stream(seed, sizes, ranked)
            sessions = {name: timed(timings, "ready", api.connect, manifest)
                        for name, manifest in manifests.items()}
            executor = ProbExecutor(seed)
            for op in stream.first_of_each_kind(salt=102):
                timed(timings, "warm", executor, op, sessions)
            setups.append(timings)
        phases = run_phases(seconds, trace, [sessions], stream, executor,
                            spec["check_every"], tracer, deploy.cpu_seconds)
        peak_rss = deploy.peak_rss_mb()
    finally:
        for session in sessions.values():
            session.close()
    policy = reference_policy()
    checking = ProbExecutor(seed)
    reference = {name: api.connect(manifest, policy=policy)
                 for name, manifest in manifests.items()}
    try:
        checks = check_recorded(phases, lambda op: checking(op, reference),
                                scores=False)
    finally:
        for session in reference.values():
            session.close()
    return _assemble(phases, checks, median_setup(setups), peak_rss, trace,
                     tracer, [])


# ---------------------------------------------------------------------------
# paper-figures
# ---------------------------------------------------------------------------


class FigureProcess:
    """A fresh evaluation process; ``ready_s`` is its start-up time."""

    def __init__(self):
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(deploy.HERE, "figures_child.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=deploy.child_env(), cwd=deploy.ROOT,
        )
        line = self.process.stdout.readline()
        if line.strip() != "ready":
            self.close()
            raise RuntimeError(f"figure process failed to start: {line!r}")
        self.ready_s = time.perf_counter() - started

    def run(self, job: Dict) -> Dict:
        self.process.stdin.write(json.dumps(job) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        self.close()
        if not line:
            raise RuntimeError("figure process died during its pass")
        return json.loads(line)

    def close(self) -> None:
        if self.process.stdin and not self.process.stdin.closed:
            self.process.stdin.close()
        try:
            self.process.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        if self.process.stdout:
            self.process.stdout.close()


def reference_path(seed: int) -> str:
    return os.path.join(deploy.HERE, "reference", f"paper-figures-seed{seed}.json")


def figure_job(seed: int, quick: bool) -> Dict:
    """One pass: every figure runner at the spec's scale, experiment seed = seed."""
    sizes = sizes_of("paper-figures", quick)
    figures = list(sizes["figures"])
    candidates = [f for f in RECHECK_FIGURES if f in figures] or figures
    pick = int(np.random.default_rng([seed, 3]).integers(len(candidates)))
    return {
        "seed": seed,
        "figures": figures,
        "scale": {key: sizes[key] for key in
                  ("n_series", "series_length", "n_queries", "sigmas", "datasets")},
        "recheck": candidates[pick],
        "spans_out": None,
    }


def write_reference(seed: int) -> str:
    """Record the full-size tables of ``seed`` as the committed reference."""
    job = figure_job(seed, quick=False)
    outcome = FigureProcess().run({**job, "recheck": None})
    if outcome["errors"]:
        raise RuntimeError(f"figure runners failed: {outcome['errors']}")
    path = reference_path(seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tables = {figure: json.loads(table) for figure, table in outcome["tables"].items()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"seed": seed, "scale": job["scale"], "tables": tables},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


def run_figures(seed: int, seconds: float, trace: bool, quick: bool,
                workdir: str) -> Dict:
    """One op is one pass over every figure runner in a fresh process.

    A pass is the paper's evaluation run; its figure calls differ in cost
    by 1000x, so per-call percentiles of a handful of calls would follow
    whichever figure sits at the percentile rather than the system.
    """
    job = figure_job(seed, quick)
    repetitions = 1 if quick else SPEC["setup_repetitions"]
    ready_times: List[float] = []
    child: Optional[FigureProcess] = None
    passes: List[List[Dict]] = []
    try:
        for _ in range(repetitions):
            if child is not None:
                child.close()
            child = FigureProcess()
            ready_times.append(child.ready_s)
        for position, budget in enumerate(phases_for(seconds, trace)):
            phase_passes: List[Dict] = []
            started = time.perf_counter()
            # Passes are indivisible: start another only while at least
            # half a pass of the budget is left, so a run overshoots its
            # seconds by at most half a pass.
            while not phase_passes or budget - (time.perf_counter() - started) >= (
                (time.perf_counter() - started) / len(phase_passes) / 2.0
            ):
                if child is None:
                    child = FigureProcess()
                spans_out = None
                if trace and position == 1:
                    spans_out = os.path.join(workdir,
                                             f"figspans{len(phase_passes)}.json")
                outcome = child.run({**job, "spans_out": spans_out})
                outcome["spans_out"] = spans_out
                child = None
                phase_passes.append(outcome)
            passes.append(phase_passes)
    finally:
        if child is not None:
            child.close()
    checks = check_figures([p for phase in passes for p in phase], seed, job["scale"],
                           quick)
    return _assemble_figures(passes, checks, ready_times, trace)


def _leaves(table) -> List[float]:
    if isinstance(table, dict):
        return [leaf for value in table.values() for leaf in _leaves(value)]
    return [table]


def check_figures(passes: List[Dict], seed: int, scale: Dict, quick: bool) -> Dict:
    """Tables must repeat exactly across passes and re-runs, stay in [0, 1],
    and equal the committed reference for the seeds that have one."""
    problems: List[str] = []
    first = passes[0]["tables"]
    reference = None
    if not quick and os.path.exists(reference_path(seed)):
        with open(reference_path(seed), "r", encoding="utf-8") as handle:
            reference = json.load(handle)
        if reference["scale"] != scale:
            problems.append("reference was made at another scale")
            reference = None
        else:
            reference = {figure: json.dumps(table, sort_keys=True)
                         for figure, table in reference["tables"].items()}
    failed_passes = 0
    for outcome in passes:
        wrong = bool(outcome["errors"])
        for figure, table in outcome["tables"].items():
            differs = table != first.get(figure) or (
                reference is not None and table != reference.get(figure)
            )
            in_range = all(0.0 <= value <= 1.0 for value in _leaves(json.loads(table)))
            if differs or not in_range:
                wrong = True
                problems.append(f"figure {figure} table differs or is out of range")
        recheck, table = outcome["recheck"]
        if recheck is not None and table != outcome["tables"].get(str(recheck)):
            wrong = True
            problems.append(f"figure {recheck} re-run differs")
        failed_passes += wrong
    return {"checked": sum(len(p["tables"]) + 1 for p in passes),
            "mismatched": failed_passes, "examples": problems[:5],
            "reference": reference is not None}


def _figure_phase(outcomes: List[Dict]) -> Phase:
    """One record per pass; its latency is the summed figure-call time."""
    phase = Phase()
    clock = 0.0
    for index, outcome in enumerate(outcomes):
        seconds = sum(s for _, s in outcome["calls"])
        error = "; ".join(outcome["errors"].values()) or None
        phase.records.append((Op(index, "pass", 0, None, 0), clock, clock + seconds,
                              error, None))
        clock += seconds
        phase.cpu_s += outcome["cpu_s"]
    phase.ended = clock
    return phase


def _assemble_figures(passes, checks, ready_times, trace) -> Dict:
    phases = [_figure_phase(outcomes) for outcomes in passes]
    failed = checks["mismatched"]
    attempted = sum(len(p.records) for p in phases)
    setup = median_setup([{"ready": t} for t in ready_times])
    outcomes = [o for phase in passes for o in phase]
    peak_rss = max(o["peak_rss_mb"] for o in outcomes)
    per_figure: Dict[str, List[float]] = {}
    for outcome in outcomes:
        for number, seconds in outcome["calls"]:
            per_figure.setdefault(str(number), []).append(seconds)
    result = summarize(phases[0], failed, attempted, setup, peak_rss, {
        "checks": checks,
        "passes": [len(phase) for phase in passes],
        "figure_s": {k: statistics.median(v) for k, v in per_figure.items()},
    })
    result.update(attempted=attempted, failed=failed)
    if trace:
        traced = phases[1]
        processes = load_spans([o["spans_out"] for o in passes[1]])
        calls = sum(len(o["calls"]) for o in passes[1])
        cpu_util = traced.cpu_s / traced.wall / nproc()
        result.update(trace_metrics(processes, calls, phases, setup, cpu_util,
                                    {"cluster.hedges_per_kop": 0.0,
                                     "cluster.duplicates_per_kop": 0.0}))
    return result


RUNNERS = {
    "serve-daemon": lambda *a: run_serve("serve-daemon", *a),
    "serve-cluster": lambda *a: run_serve("serve-cluster", *a),
    "prob-inproc": run_prob,
    "paper-figures": run_figures,
}
