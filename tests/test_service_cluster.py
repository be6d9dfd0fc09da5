"""Distributed scatter-gather: parity, degradation, retries, connect().

A real 4-daemon localhost fleet column-shards one collection; the
contracts under test:

* the cluster coordinator's merged kNN / range / prob-range answers are
  bit-identical to the in-process session (Monte Carlo techniques
  included — integer seeds replay per-pair draws on every shard);
* the same fluent ``queries().using(technique).verb(...)`` chain runs
  unchanged against an in-process session, one remote daemon, and the
  shard fleet, returning the same structured results with populated
  pruning statistics;
* killing a shard daemon mid-fleet — stopped between queries, or
  SIGKILLed while it executes a request — either raises (strict) or
  returns a partial result *tagged* with the failed shard set whose
  survivor merge is exactly the survivor-restricted reference ranking;
* each shard is asked exactly once per request: a transport failure is
  retried once, at once, and a shard's error reply is its answer —
  raised as a structured error naming the shard (strict) or tagged as a
  failed shard (partial), never retried;
* ``connect("tcp://...")`` is one daemon as a one-shard map on the same
  coordinator: it keeps one daemon's error types (a structured error,
  or the ``OSError`` of a dead daemon), retries a dropped pooled
  connection once, holds to its ``timeout`` budget, and closes its
  resolution connection when it cannot resolve the collection;
* a scatter sends every shard's request before it reads any reply, all
  on the caller's thread, so no shard count starts a thread, and reads
  every reply that came in time, so a held shard fails no other; a
  connection returns to the pool only once its reply was read whole, so
  the next request on it gets its own reply;
* the shard map lives in the catalog (schema v3) behind strict tiling
  validation, and v2 catalogs migrate in place on open.
"""

from __future__ import annotations

import contextlib
import gc
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest
from daemon_harness import DaemonHarness, ExecutionGate, LoopGate

from repro.core import save_collection, spawn
from repro.core.errors import (
    InvalidParameterError,
    UnsupportedQueryError,
)
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession
from repro.queries.planner import PlanPolicy
from repro.queries.techniques import (
    DustTechnique,
    EuclideanTechnique,
    ProudTechnique,
)
from repro.service import ServiceCatalog
from repro.service.catalog import SCHEMA_VERSION, CatalogError, ShardEntry
from repro.service.client import Channel, ServiceError
from repro.service.cluster import (
    ClusterCoordinator,
    ClusterError,
    RemoteSession,
    connect,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    decode_message,
    encode_message,
)
from repro.service.registry import build_technique

SEED = 626
N_SERIES = 12
LENGTH = 16

#: (wire spec, collection key) pairs covering the distance and
#: probabilistic families, including seeded Monte Carlo DTW.
KNN_SPECS = ["euclidean", "dust", {"name": "dust-dtw", "params": {"window": 4}}]
PROB_RANGE_SPECS = [
    ({"name": "proud", "params": {"assumed_std": 0.4}}, "pdf"),
    ("munich", "ms"),
    ({"name": "munich-dtw", "params": {"window": 4, "n_samples": 16}}, "ms"),
]


@pytest.fixture(scope="module")
def exact():
    return generate_dataset(
        "GunPoint", seed=SEED, n_series=N_SERIES, length=LENGTH
    )


@pytest.fixture(scope="module")
def pdf(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(SEED, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(SEED, "ms", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def collections(pdf, multisample, exact, tmp_path_factory):
    base = tmp_path_factory.mktemp("cluster-collections")
    return {
        "pdf": save_collection(pdf, str(base / "pdf")),
        "ms": save_collection(multisample, str(base / "ms")),
        "exact": save_collection(exact, str(base / "exact")),
    }


def _spawn_fleet(collections, tmp_path, count):
    """``count`` daemons, each cataloging every saved collection."""
    fleet = []
    for index in range(count):
        catalog_path = str(tmp_path / f"shard{index}.db")
        with ServiceCatalog(catalog_path) as catalog:
            for name, manifest in collections.items():
                catalog.register(name, manifest)
        fleet.append(DaemonHarness(catalog_path))
    return fleet


def _stage_names(stats):
    return [entry.stage for entry in stats.stages]


def _chain(coordinator, collection, spec, queries=None, n_series=N_SERIES):
    """``queries(...).using(...)`` on a session over ``coordinator``.

    The session is never closed: the coordinator belongs to its caller.
    """
    session = RemoteSession(coordinator, collection, n_series)
    return session.queries(queries).using(build_technique(spec))


def _assert_survivor_ranking(degraded, pdf, start, stop, k):
    """``degraded`` is the DUST kNN reference restricted to the columns
    outside the failed ``[start, stop)`` slice, exactly."""
    columns = np.asarray(
        [column for column in range(N_SERIES) if not start <= column < stop]
    )
    restricted = DustTechnique().distance_matrix(pdf, pdf)[:, columns]
    for row in range(N_SERIES):
        scores = restricted[row].astype(float).copy()
        own = np.where(columns == row)[0]
        if own.size:
            scores[own[0]] = np.inf
        order = np.lexsort((columns, scores))[:k]
        np.testing.assert_array_equal(degraded.indices[row], columns[order])
        np.testing.assert_array_equal(degraded.scores[row], scores[order])


def _tile(n_series, count):
    bounds = np.linspace(0, n_series, count + 1).astype(int)
    return list(zip(bounds[:-1], bounds[1:]))


@pytest.fixture(scope="module")
def fleet(collections, tmp_path_factory):
    base = tmp_path_factory.mktemp("cluster-fleet")
    daemons = _spawn_fleet(collections, base, 4)
    yield daemons
    for daemon in daemons:
        daemon.stop()


@pytest.fixture(scope="module")
def cluster_catalog(collections, fleet, tmp_path_factory):
    """A catalog whose every collection is 4-way sharded over the fleet."""
    path = str(tmp_path_factory.mktemp("cluster-catalog") / "cluster.db")
    with ServiceCatalog(path) as catalog:
        for name, manifest in collections.items():
            catalog.register(name, manifest)
            catalog.set_shard_map(
                name,
                [
                    ("127.0.0.1", daemon.port, start, stop)
                    for daemon, (start, stop) in zip(
                        fleet, _tile(N_SERIES, 4)
                    )
                ],
            )
    return path


@pytest.fixture(scope="module")
def coordinator(cluster_catalog):
    with ClusterCoordinator.from_catalog(cluster_catalog) as coordinator:
        yield coordinator


@pytest.fixture(scope="module")
def sessions(pdf, multisample, exact):
    opened = {
        "pdf": SimilaritySession(pdf),
        "ms": SimilaritySession(multisample),
        "exact": SimilaritySession(exact),
    }
    yield opened
    for session in opened.values():
        session.close()


class TestScatterGatherParity:
    @pytest.mark.parametrize("spec", KNN_SPECS)
    def test_knn_bit_identical(self, coordinator, sessions, spec):
        merged = _chain(coordinator, "pdf", spec).knn(5)
        reference = (
            sessions["pdf"].queries().using(build_technique(spec)).knn(5)
        )
        np.testing.assert_array_equal(merged.indices, reference.indices)
        np.testing.assert_allclose(
            merged.scores, reference.scores, atol=1e-9
        )
        assert merged.complete and merged.failed_shards == ()

    @pytest.mark.parametrize("spec,key", PROB_RANGE_SPECS)
    def test_prob_range_identical(self, coordinator, sessions, spec, key):
        merged = _chain(coordinator, key, spec).prob_range(4.0, 0.3)
        reference = (
            sessions[key]
            .queries()
            .using(build_technique(spec))
            .prob_range(4.0, 0.3)
        )
        assert [list(row) for row in merged.matches] == [
            list(row) for row in reference.matches
        ]

    def test_range_identical(self, coordinator, sessions):
        merged = _chain(coordinator, "pdf", "dust").range(4.0)
        reference = (
            sessions["pdf"].queries().using(DustTechnique()).range(4.0)
        )
        assert [list(row) for row in merged.matches] == [
            list(row) for row in reference.matches
        ]
        # Ascending disjoint shard slices concatenate globally sorted.
        for row in merged.matches:
            assert np.all(np.diff(row) > 0) if len(row) > 1 else True

    def test_subset_and_value_queries(self, coordinator, sessions):
        subset = _chain(coordinator, "pdf", "dust", [0, 5, 11]).knn(3)
        reference = (
            sessions["pdf"].queries([0, 5, 11]).using(DustTechnique()).knn(3)
        )
        np.testing.assert_array_equal(subset.indices, reference.indices)
        np.testing.assert_array_equal(
            subset.query_positions, [0, 5, 11]
        )

    def test_merged_stats_name_the_cluster(self, coordinator):
        merged = _chain(coordinator, "pdf", "dust").knn(5)
        stats = merged.pruning_stats
        assert stats is not None
        assert stats.executor["backend"] == "cluster"
        assert stats.executor["n_shards"] == 4
        assert stats.n_queries == N_SERIES

    def test_knn_validates_k_before_scattering(self, coordinator):
        with pytest.raises(InvalidParameterError, match="eligible"):
            _chain(coordinator, "pdf", "dust").knn(N_SERIES)
        with pytest.raises(InvalidParameterError, match=">= 1"):
            _chain(coordinator, "pdf", "dust").knn(0)

    def test_unknown_collection_names_the_shard_maps(self, coordinator):
        with pytest.raises(ClusterError, match="no shard map"):
            _chain(coordinator, "nope", "dust").knn(3)


class TestUnifiedFluentSurface:
    """One chain, three deployment shapes, identical results."""

    def test_same_chain_everywhere(
        self, collections, fleet, cluster_catalog, sessions
    ):
        reference = (
            sessions["pdf"].queries().using(DustTechnique()).knn(5)
        )
        remote = connect(
            f"tcp://127.0.0.1:{fleet[0].port}/pdf", timeout=60
        )
        clustered = connect(cluster_catalog, collection="pdf")
        try:
            assert isinstance(remote.backend, ClusterCoordinator)
            assert isinstance(clustered.backend, ClusterCoordinator)
            assert remote.backend.shard_map("pdf") == (
                ShardEntry(0, "127.0.0.1", fleet[0].port, 0, N_SERIES),
            )
            for session in (remote, clustered):
                result = (
                    session.queries().using(DustTechnique()).knn(5)
                )
                np.testing.assert_array_equal(
                    result.indices, reference.indices
                )
                np.testing.assert_allclose(
                    result.scores, reference.scores, atol=1e-9
                )
                np.testing.assert_array_equal(
                    result.query_positions, reference.query_positions
                )
                assert result.technique_name == reference.technique_name
                assert result.pruning_stats is not None
                assert result.pruning_stats.n_queries == N_SERIES
        finally:
            remote.close()
            clustered.close()

    def test_validation_errors_match_in_process(
        self, fleet, sessions
    ):
        remote = connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf")
        try:
            with pytest.raises(UnsupportedQueryError, match="top-k"):
                remote.queries().using(
                    ProudTechnique(assumed_std=0.4)
                ).knn(3)
            with pytest.raises(InvalidParameterError, match="within"):
                remote.queries([0, 99])
            with pytest.raises(InvalidParameterError, match="at least"):
                remote.queries([])
            with pytest.raises(InvalidParameterError, match="eligible"):
                remote.queries().using(DustTechnique()).knn(N_SERIES)
            with pytest.raises(UnsupportedQueryError, match="matrices"):
                remote.queries().using(
                    DustTechnique()
                ).profile_matrix()
        finally:
            remote.close()

    def test_shard_error_reply_raises_like_one_daemon(
        self, fleet, cluster_catalog
    ):
        """One daemon's structured error reaches the caller as its own
        :class:`ServiceError`; a fleet's as a :class:`ClusterError`
        naming the shard, with the error type and message one daemon
        would have raised."""
        row = [0.0] * LENGTH
        remote = connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf")
        clustered = connect(cluster_catalog, collection="pdf")
        try:
            with pytest.raises(ServiceError) as single:
                remote.queries([row]).using(DustTechnique()).knn(3)
            with pytest.raises(ClusterError) as fleet_error:
                clustered.queries([row]).using(DustTechnique()).knn(3)
        finally:
            remote.close()
            clustered.close()
        assert single.value.error_type == "ProtocolError"
        message = str(fleet_error.value)
        assert str(single.value) in message
        assert message.startswith(
            f"shard {fleet_error.value.failed_shards[0]} failed"
        )
        assert len(fleet_error.value.failed_shards) == len(fleet)

    def test_explain_identical_across_backends(
        self, fleet, cluster_catalog, sessions
    ):
        """``explain()`` reports one executed plan, whatever the backend."""
        fixed = PlanPolicy(mode="fixed")
        with SimilaritySession(
            sessions["pdf"].collection, policy=fixed
        ) as local:
            reference = local.queries().using(DustTechnique()).explain(k=3)
        assert _stage_names(reference) == ["refine"]
        remote = connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf", policy=fixed)
        clustered = connect(cluster_catalog, collection="pdf", policy=fixed)
        try:
            for session in (remote, clustered):
                stats = session.queries().using(DustTechnique()).explain(k=3)
                assert _stage_names(stats) == ["refine"]
                assert stats.technique_name == reference.technique_name
                assert stats.n_queries == reference.n_queries
                assert [entry.decided for entry in stats.stages] == [
                    entry.decided for entry in reference.stages
                ]
        finally:
            remote.close()
            clustered.close()

    def test_policy_ships_to_every_backend(
        self, fleet, cluster_catalog, sessions
    ):
        """``mode="fixed"`` bound via ``connect(policy=...)`` reaches the
        daemon and every shard.  Euclidean kNN plans an index stage by
        default, so a backend (or any one shard) that lost the policy
        would report an ``index`` stage."""
        policy = PlanPolicy(mode="fixed")
        address = f"tcp://127.0.0.1:{fleet[0].port}/pdf"
        default_sessions = (
            connect(address),
            connect(cluster_catalog, collection="pdf"),
        )
        fixed_sessions = (
            connect(address, policy=policy),
            connect(cluster_catalog, collection="pdf", policy=policy),
        )
        try:
            local = sessions["pdf"].queries().using(EuclideanTechnique())
            assert _stage_names(local.explain(k=3)) == ["index", "refine"]
            with SimilaritySession(
                sessions["pdf"].collection, policy=policy
            ) as fixed_local:
                assert _stage_names(
                    fixed_local.queries()
                    .using(EuclideanTechnique())
                    .explain(k=3)
                ) == ["refine"]
            for session in default_sessions:
                stats = session.queries().using(EuclideanTechnique()).explain(
                    k=3
                )
                assert _stage_names(stats) == ["index", "refine"]
            for session in fixed_sessions:
                assert session.policy == policy
                stats = session.queries().using(EuclideanTechnique()).explain(
                    k=3
                )
                assert _stage_names(stats) == ["refine"]
        finally:
            for session in default_sessions + fixed_sessions:
                session.close()

    def test_remote_policy_must_be_a_plan_policy(self, coordinator):
        with pytest.raises(InvalidParameterError, match="PlanPolicy"):
            RemoteSession(coordinator, "pdf", N_SERIES, policy="fixed")

    def test_remote_session_reports_shape(self, fleet):
        remote = connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf")
        try:
            assert len(remote) == N_SERIES
            assert remote.collection_name == "pdf"
        finally:
            remote.close()


def _threads_started_here(monkeypatch):
    """The names of the threads this thread starts from now on.

    The in-thread daemons start their own pool threads from their loop
    threads; only the caller's starts are the coordinator's."""
    caller = threading.current_thread()
    started = []
    original = threading.Thread.start

    def start(thread):
        if threading.current_thread() is caller:
            started.append(thread.name)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


class TestOneDaemonIsOneShard:
    """``connect("tcp://...")`` runs the fleet's coordinator over one
    ``[0, N)`` shard and keeps one daemon's error types and budget."""

    @pytest.fixture()
    def lone(self, collections, tmp_path):
        [daemon] = _spawn_fleet({"pdf": collections["pdf"]}, tmp_path, 1)
        yield daemon
        daemon.stop()

    def test_no_scatter_thread_for_any_shard_count(
        self, fleet, cluster_catalog, sessions, monkeypatch
    ):
        """Every shard is asked on the caller's thread: neither a
        one-shard map nor a 4-shard map starts a thread, and both answer
        like the in-process session."""
        chain = sessions["pdf"].queries().using(DustTechnique())
        reference_knn, reference_range = chain.knn(5), chain.range(4.0)
        started = _threads_started_here(monkeypatch)
        for address, kwargs in (
            (f"tcp://127.0.0.1:{fleet[0].port}/pdf", {}),
            (cluster_catalog, {"collection": "pdf"}),
        ):
            with connect(address, **kwargs) as session:
                chain = session.queries().using(DustTechnique())
                knn = chain.knn(5)
                found = chain.range(4.0)
            assert started == []
            np.testing.assert_array_equal(knn.indices, reference_knn.indices)
            np.testing.assert_allclose(
                knn.scores, reference_knn.scores, atol=1e-9
            )
            assert [list(row) for row in found.matches] == [
                list(row) for row in reference_range.matches
            ]

    def test_partial_mode_keeps_one_daemons_error(self, fleet):
        """A one-shard partial result would have no survivors, so
        ``allow_partial`` still raises the daemon's own error."""
        row = [0.0] * LENGTH
        with connect(
            f"tcp://127.0.0.1:{fleet[0].port}/pdf", allow_partial=True
        ) as remote:
            with pytest.raises(ServiceError) as excinfo:
                remote.queries([row]).using(DustTechnique()).knn(3)
        assert excinfo.value.error_type == "ProtocolError"

    def test_stopped_daemon_raises_its_os_error(self, lone):
        """A daemon gone after ``connect()`` surfaces as the transport's
        ``OSError`` (not :class:`ClusterError`), at once."""
        session = connect(f"tcp://127.0.0.1:{lone.port}/pdf", timeout=30)
        try:
            lone.stop()
            started = time.perf_counter()
            with pytest.raises(OSError):
                session.queries([0]).using(DustTechnique()).knn(3)
            assert time.perf_counter() - started < 10
        finally:
            session.close()

    def test_dropped_pooled_connection_is_retried_once(
        self, fleet, sessions
    ):
        """A pooled connection that died while idle costs one immediate
        retry on a fresh connection, not the answer."""
        reference = sessions["pdf"].queries([3]).using(DustTechnique()).knn(3)
        key = ("127.0.0.1", fleet[0].port)
        with connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf") as session:
            chain = session.queries([3]).using(DustTechnique())
            chain.knn(3)
            [dropped] = session.backend._pools[key]
            dropped._sock.shutdown(socket.SHUT_RDWR)
            answer = chain.knn(3)
            [pooled] = session.backend._pools[key]
        assert pooled is not dropped
        np.testing.assert_array_equal(answer.indices, reference.indices)
        np.testing.assert_allclose(
            answer.scores, reference.scores, atol=1e-9
        )

    def test_timeout_is_the_request_budget(self, lone, pdf, monkeypatch):
        """A held execution fails the request within its 0.5 s budget,
        by the daemon's ``Timeout`` reply or the socket's
        ``TimeoutError``; the session's next query gets its own answer."""
        gate = ExecutionGate(monkeypatch)
        session = connect(f"tcp://127.0.0.1:{lone.port}/pdf", timeout=0.5)
        try:
            started = time.perf_counter()
            with pytest.raises((ServiceError, TimeoutError)) as excinfo:
                session.queries([1]).using(DustTechnique()).knn(3)
            # The budget plus scheduling slack on a busy box.
            assert time.perf_counter() - started < 3.0
            if isinstance(excinfo.value, ServiceError):
                assert excinfo.value.error_type == "Timeout"
            gate.release()
            answer = session.queries([2]).using(DustTechnique()).knn(3)
        finally:
            gate.release()
            session.close()
        with SimilaritySession(pdf) as local:
            expected = local.queries([2]).using(DustTechnique()).knn(3)
        np.testing.assert_array_equal(answer.indices, expected.indices)


class TestPartialShardFailure:
    @pytest.fixture()
    def small_fleet(self, collections, tmp_path):
        daemons = _spawn_fleet(
            {"pdf": collections["pdf"]}, tmp_path, 3
        )
        yield daemons
        for daemon in daemons:
            daemon.stop()

    @pytest.fixture()
    def small_catalog(self, collections, small_fleet, tmp_path):
        path = str(tmp_path / "small-cluster.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("pdf", collections["pdf"])
            catalog.set_shard_map(
                "pdf",
                [
                    ("127.0.0.1", daemon.port, start, stop)
                    for daemon, (start, stop) in zip(
                        small_fleet, _tile(N_SERIES, 3)
                    )
                ],
            )
        return path

    def test_strict_mode_raises_naming_the_shard(
        self, small_fleet, small_catalog
    ):
        dead_port = small_fleet[1].port
        small_fleet[1].stop()
        with ClusterCoordinator.from_catalog(
            small_catalog, timeout=30, connect_timeout=3
        ) as coordinator:
            with pytest.raises(ClusterError) as excinfo:
                _chain(coordinator, "pdf", "dust").knn(3)
            assert f"127.0.0.1:{dead_port}" in str(excinfo.value)
            assert excinfo.value.failed_shards == (
                f"127.0.0.1:{dead_port}",
            )

    def test_partial_result_tags_failed_shard_and_merges_survivors(
        self, small_fleet, small_catalog, pdf
    ):
        dead = small_fleet[1]
        start, stop = _tile(N_SERIES, 3)[1]
        dead_port = dead.port
        dead.stop()
        with ClusterCoordinator.from_catalog(
            small_catalog,
            allow_partial=True,
            timeout=30,
            connect_timeout=3,
        ) as coordinator:
            degraded = _chain(coordinator, "pdf", "dust").knn(3)
            assert degraded.failed_shards == (f"127.0.0.1:{dead_port}",)
            assert not degraded.complete
            # The merge over the survivors is the survivor-restricted
            # reference ranking, exactly.
            _assert_survivor_ranking(degraded, pdf, start, stop, 3)
            # Degradation is visible in the merged stats too.
            assert degraded.pruning_stats.executor["failed_shards"] == [
                f"127.0.0.1:{dead_port}"
            ]

    def test_partial_range_skips_failed_slice(
        self, small_fleet, small_catalog, pdf
    ):
        dead = small_fleet[2]
        start, stop = _tile(N_SERIES, 3)[2]
        dead_port = dead.port
        dead.stop()
        with ClusterCoordinator.from_catalog(
            small_catalog,
            allow_partial=True,
            timeout=30,
            connect_timeout=3,
        ) as coordinator:
            degraded = _chain(coordinator, "pdf", "dust").range(4.0)
            assert degraded.failed_shards == (f"127.0.0.1:{dead_port}",)
            with SimilaritySession(pdf) as session:
                reference = (
                    session.queries().using(DustTechnique()).range(4.0)
                )
            for row in range(N_SERIES):
                expected = [
                    int(index)
                    for index in reference.matches[row]
                    if not (start <= index < stop)
                ]
                assert list(degraded.matches[row]) == expected


#: ``repro.cli serve`` with every query execution stalled before its
#: kernel, so a request the victim receives stays unanswered until it is
#: killed.
STALLED_SERVE = """
import sys
import time

import repro.service.daemon as daemon
from repro.service.cli import serve_main

execute_query = daemon.execute_query


def stalled(*args, **kwargs):
    time.sleep(30.0)
    return execute_query(*args, **kwargs)


daemon.execute_query = stalled
sys.exit(serve_main(sys.argv[1:]))
"""


class TestShardKilledMidQuery:
    """A shard daemon SIGKILLed while it executes a query.

    The middle shard runs ``repro.cli serve`` in a subprocess whose
    query executions stall before their kernel (:data:`STALLED_SERVE`);
    the test kills the process once the coordinator has sent it a
    request.
    """

    #: The killed shard's column slice.
    VICTIM = _tile(N_SERIES, 3)[1]

    @pytest.fixture()
    def victim(self, collections, tmp_path, subprocess_env):
        catalog_path = str(tmp_path / "victim.db")
        process = subprocess.Popen(
            [
                sys.executable, "-c", STALLED_SERVE,
                "--catalog", catalog_path,
                "--port", "0",
                "--register", f"pdf={collections['pdf']}",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=subprocess_env,
        )
        watchdog = threading.Timer(120.0, process.kill)
        watchdog.start()
        try:
            port = None
            for line in process.stdout:
                if "listening on" in line:
                    port = int(line.split()[3].rsplit(":", 1)[1])
                    break
            assert port is not None, "shard daemon did not come up"
            yield process, port
        finally:
            watchdog.cancel()
            process.kill()
            process.wait(timeout=60)
            process.stdout.close()

    @pytest.fixture()
    def catalog(self, collections, victim, tmp_path):
        live = _spawn_fleet({"pdf": collections["pdf"]}, tmp_path, 2)
        ports = [live[0].port, victim[1], live[1].port]
        path = str(tmp_path / "killed-cluster.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("pdf", collections["pdf"])
            catalog.set_shard_map(
                "pdf",
                [
                    ("127.0.0.1", port, start, stop)
                    for port, (start, stop) in zip(ports, _tile(N_SERIES, 3))
                ],
            )
        yield path
        for daemon in live:
            daemon.stop()

    def _knn_while_killing(self, catalog, victim, monkeypatch, allow_partial):
        """Run a DUST 3-NN, SIGKILL the victim once its request is on
        the wire; returns the knn result or the exception it raised."""
        process, port = victim
        sent = threading.Event()
        original = Channel.send

        def send(channel, *args, **kwargs):
            original(channel, *args, **kwargs)
            if channel.port == port:
                sent.set()

        monkeypatch.setattr(Channel, "send", send)
        outcome = {}
        with ClusterCoordinator.from_catalog(
            catalog,
            allow_partial=allow_partial,
            timeout=60,
            connect_timeout=3,
        ) as coordinator:

            def run():
                try:
                    outcome["result"] = _chain(
                        coordinator, "pdf", "dust"
                    ).knn(3)
                except Exception as error:  # noqa: BLE001 — asserted below
                    outcome["error"] = error

            worker = threading.Thread(target=run)
            worker.start()
            assert sent.wait(timeout=60), "the victim never got its request"
            time.sleep(0.5)
            # The victim's execution is stalled: no reply yet.
            assert worker.is_alive()
            os.kill(process.pid, signal.SIGKILL)
            worker.join(timeout=60)
            assert not worker.is_alive()
        return outcome.get("result", outcome.get("error"))

    def test_partial_result_names_the_killed_shard(
        self, catalog, victim, monkeypatch, pdf
    ):
        degraded = self._knn_while_killing(
            catalog, victim, monkeypatch, allow_partial=True
        )
        assert not isinstance(degraded, Exception), degraded
        assert degraded.failed_shards == (f"127.0.0.1:{victim[1]}",)
        assert not degraded.complete
        _assert_survivor_ranking(degraded, pdf, *self.VICTIM, 3)

    def test_strict_mode_raises_naming_the_killed_shard(
        self, catalog, victim, monkeypatch
    ):
        error = self._knn_while_killing(
            catalog, victim, monkeypatch, allow_partial=False
        )
        assert isinstance(error, ClusterError), error
        assert f"127.0.0.1:{victim[1]}" in str(error)
        assert error.failed_shards == (f"127.0.0.1:{victim[1]}",)


class FlakyShard:
    """A fake shard daemon: canned kNN replies, scripted per-request delay.

    Speaks just enough of the versioned JSON protocol for the
    coordinator: echoes the request id, answers ``knn`` with fixed
    2-series rankings.  ``delays`` is consumed once per request in
    arrival order; requests beyond the script answer instantly.  With
    ``error`` (a ``{"type", "message"}`` mapping) every reply is that
    structured ``ok: false`` error instead.
    """

    def __init__(self, delays=(), error=None):
        self.delays = list(delays)
        self.error = error
        self.request_ids = []
        self._lock = threading.Lock()
        self._listener = socket.socket(
            socket.AF_INET, socket.SOCK_STREAM
        )
        self._listener.setsockopt(
            socket.SOL_SOCKET, socket.SO_REUSEADDR, 1
        )
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self.port = self._listener.getsockname()[1]
        self._open = True
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while self._open:
            try:
                connection, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(
                target=self._serve, args=(connection,), daemon=True
            ).start()

    def _serve(self, connection):
        reader = connection.makefile("rb")
        try:
            for line in reader:
                request = decode_message(line)
                with self._lock:
                    self.request_ids.append(request["id"])
                    delay = self.delays.pop(0) if self.delays else 0.0
                if delay:
                    time.sleep(delay)
                reply = {
                    "v": PROTOCOL_VERSION,
                    "id": request["id"],
                    "ok": self.error is None,
                }
                if self.error is None:
                    reply["result"] = {
                        "indices": [[1], [0]],
                        "scores": [[1.0], [1.0]],
                    }
                else:
                    reply["error"] = self.error
                try:
                    connection.sendall(encode_message(reply))
                except OSError:
                    return
        finally:
            reader.close()
            connection.close()

    def close(self):
        self._open = False
        self._listener.close()


def _single_shard_coordinator(shard, **kwargs):
    entries = (ShardEntry(0, "127.0.0.1", shard.port, 0, 2),)
    return ClusterCoordinator({"fake": entries}, **kwargs)


def _fake_knn(coordinator):
    """A Euclidean 1-NN over the 2-series fake collection."""
    return _chain(coordinator, "fake", "euclidean", n_series=2).knn(1)


class TestShardRetries:
    def test_lagging_shard_is_asked_once(self):
        """However much slower a reply is than the shard's earlier ones,
        the coordinator waits for it and never asks again."""
        shard = FlakyShard(delays=[0.0] * 8 + [0.5])
        coordinator = _single_shard_coordinator(shard, timeout=30)
        try:
            for _ in range(9):
                _fake_knn(coordinator)
            assert len(shard.request_ids) == 9
            assert len(set(shard.request_ids)) == 9
        finally:
            coordinator.close()
            shard.close()

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_error_reply_is_the_shards_answer(self, allow_partial):
        """An ``ok: false`` reply is never retried: strict mode raises it
        naming the shard, its type and message; partial mode tags the
        shard as failed and merges the survivor."""
        healthy = FlakyShard()
        failing = FlakyShard(
            error={"type": "CatalogError", "message": "manifest is gone"}
        )
        entries = (
            ShardEntry(0, "127.0.0.1", healthy.port, 0, 1),
            ShardEntry(1, "127.0.0.1", failing.port, 1, 2),
        )
        coordinator = ClusterCoordinator(
            {"fake": entries}, timeout=30, allow_partial=allow_partial
        )
        try:
            if allow_partial:
                result = _fake_knn(coordinator)
                assert result.failed_shards == (entries[1].endpoint,)
                np.testing.assert_array_equal(result.indices, [[1], [0]])
            else:
                with pytest.raises(ClusterError) as excinfo:
                    _fake_knn(coordinator)
                message = str(excinfo.value)
                assert entries[1].endpoint in message
                assert "[CatalogError] manifest is gone" in message
                assert excinfo.value.failed_shards == (entries[1].endpoint,)
            assert len(failing.request_ids) == 1
            # A whole error reply keeps its connection pooled.
            assert len(coordinator._pools[("127.0.0.1", failing.port)]) == 1
        finally:
            coordinator.close()
            healthy.close()
            failing.close()

    def test_spent_budget_raises_timeout_error(self):
        """A shard slower than the budget times out: a lone shard raises
        ``TimeoutError`` naming it (the retry finds the budget spent and
        asks no second time); a fleet wraps it in :class:`ClusterError`."""
        slow = FlakyShard(delays=[2.0, 2.0])
        fast = FlakyShard()
        lone = _single_shard_coordinator(slow, timeout=0.3)
        fleet = ClusterCoordinator(
            {
                "fake": (
                    ShardEntry(0, "127.0.0.1", fast.port, 0, 1),
                    ShardEntry(1, "127.0.0.1", slow.port, 1, 2),
                )
            },
            timeout=0.3,
        )
        try:
            with pytest.raises(TimeoutError, match="deadline budget"):
                _fake_knn(lone)
            assert len(slow.request_ids) == 1
            with pytest.raises(ClusterError) as excinfo:
                _fake_knn(fleet)
            assert isinstance(excinfo.value.__cause__, TimeoutError)
            assert f"127.0.0.1:{slow.port}" in str(excinfo.value)
        finally:
            lone.close()
            fleet.close()
            slow.close()
            fast.close()

    def test_connection_error_retries_immediately(self):
        # A dead primary endpoint: with allow_partial off and a healthy
        # retry budget, the error (not a timeout) surfaces promptly.
        coordinator = ClusterCoordinator(
            {
                "fake": (
                    ShardEntry(0, "127.0.0.1", _free_port(), 0, 2),
                )
            },
            timeout=20,
            connect_timeout=1,
        )
        try:
            started = time.perf_counter()
            with pytest.raises((ClusterError, OSError)):
                _fake_knn(coordinator)
            assert time.perf_counter() - started < 15
        finally:
            coordinator.close()


def _pooled(coordinator, daemons):
    """The pooled channels of each daemon's endpoint, in fleet order."""
    return [
        list(coordinator._pools.get(("127.0.0.1", daemon.port), []))
        for daemon in daemons
    ]


class TestPipelinedScatter:
    """The scatter puts every shard's request on the wire, then reads
    the replies in send order, all on the caller's thread.  A channel goes
    back to the pool only once its reply was read whole; one whose reply
    was not read is closed, so no stale reply answers the next request."""

    @pytest.fixture()
    def trio(self, collections, tmp_path):
        """Three in-thread daemons; the middle one does not catalog
        ``pdf``, so it answers every ``pdf`` request with an error."""
        daemons = []
        for index in range(3):
            path = str(tmp_path / f"trio{index}.db")
            with ServiceCatalog(path) as catalog:
                name = "exact" if index == 1 else "pdf"
                catalog.register(name, collections[name])
            daemons.append(DaemonHarness(path))
        yield daemons
        for daemon in daemons:
            daemon.stop()

    @staticmethod
    def _fleet(daemons, **kwargs):
        entries = tuple(
            ShardEntry(index, "127.0.0.1", daemon.port, int(start), int(stop))
            for index, (daemon, (start, stop)) in enumerate(
                zip(daemons, _tile(N_SERIES, len(daemons)))
            )
        )
        return ClusterCoordinator({"pdf": entries}, **kwargs)

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_error_reply_keeps_every_channel_in_step(
        self, trio, collections, pdf, sessions, allow_partial
    ):
        """An error reply is its shard's answer and pools its channel;
        the other shards' replies are read and pool theirs; the next
        request on every pooled channel gets its own reply."""
        failing = trio[1]
        endpoint = f"127.0.0.1:{failing.port}"
        start, stop = _tile(N_SERIES, 3)[1]
        coordinator = self._fleet(
            trio, timeout=30, allow_partial=allow_partial
        )
        try:
            chain = _chain(coordinator, "pdf", "dust")
            pooled = None
            for _ in range(2):
                if allow_partial:
                    result = chain.knn(3)
                    assert result.failed_shards == (endpoint,)
                    _assert_survivor_ranking(result, pdf, start, stop, 3)
                else:
                    with pytest.raises(ClusterError) as excinfo:
                        chain.knn(3)
                    assert "[CatalogError]" in str(excinfo.value)
                    assert excinfo.value.failed_shards == (endpoint,)
                channels = _pooled(coordinator, trio)
                assert [len(pool) for pool in channels] == [1, 1, 1]
                # The second request reuses the very same channels.
                assert pooled in (None, channels)
                pooled = channels
            with failing.client() as client:
                client.register("pdf", collections["pdf"])
            answer = chain.knn(3)
            assert _pooled(coordinator, trio) == pooled
        finally:
            coordinator.close()
        reference = sessions["pdf"].queries().using(DustTechnique()).knn(3)
        np.testing.assert_array_equal(answer.indices, reference.indices)
        np.testing.assert_allclose(
            answer.scores, reference.scores, atol=1e-9
        )

    def test_held_shard_times_out_and_its_channel_is_closed(
        self, collections, tmp_path
    ):
        """A shard whose reply does not come within the budget fails:
        alone with the ``TimeoutError`` naming it, in a fleet as a
        :class:`ClusterError`.  Its channel, with the reply still owed,
        is closed; the fleet's other channel is pooled."""
        daemons = _spawn_fleet({"pdf": collections["pdf"]}, tmp_path, 2)
        held = daemons[1]
        endpoint = f"127.0.0.1:{held.port}"
        lone = ClusterCoordinator(
            {"pdf": (ShardEntry(0, "127.0.0.1", held.port, 0, N_SERIES),)},
            timeout=0.5,
        )
        fleet = self._fleet(daemons, timeout=0.5)
        gate = LoopGate(held)
        try:
            started = time.perf_counter()
            with pytest.raises(TimeoutError, match=endpoint):
                _chain(lone, "pdf", "dust").knn(3)
            with pytest.raises(ClusterError) as excinfo:
                _chain(fleet, "pdf", "dust").knn(3)
            # Two budgets plus scheduling slack on a busy box.
            assert time.perf_counter() - started < 5.0
            assert isinstance(excinfo.value.__cause__, TimeoutError)
            assert excinfo.value.failed_shards == (endpoint,)
            assert _pooled(lone, daemons) == [[], []]
            assert [len(pool) for pool in _pooled(fleet, daemons)] == [1, 0]
        finally:
            gate.release()
            lone.close()
            fleet.close()
            for daemon in daemons:
                daemon.stop()

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_held_first_shard_spares_the_replies_after_it(
        self, collections, pdf, tmp_path, allow_partial
    ):
        """A held shard ahead of a live one does not fail the live one:
        its reply came long before the deadline and is read, so only the
        held shard is tagged, in partial and in strict mode."""
        daemons = _spawn_fleet({"pdf": collections["pdf"]}, tmp_path, 2)
        held = daemons[0]
        endpoint = f"127.0.0.1:{held.port}"
        start, stop = _tile(N_SERIES, 2)[0]
        fleet = self._fleet(daemons, timeout=2.0, allow_partial=allow_partial)
        gate = LoopGate(held)
        try:
            chain = _chain(fleet, "pdf", "dust")
            if allow_partial:
                result = chain.knn(3)
                assert result.failed_shards == (endpoint,)
                _assert_survivor_ranking(result, pdf, start, stop, 3)
            else:
                with pytest.raises(ClusterError) as excinfo:
                    chain.knn(3)
                assert isinstance(excinfo.value.__cause__, TimeoutError)
                assert excinfo.value.failed_shards == (endpoint,)
            assert [len(pool) for pool in _pooled(fleet, daemons)] == [0, 1]
        finally:
            gate.release()
            fleet.close()
            for daemon in daemons:
                daemon.stop()

    def test_hung_connect_holds_back_no_pooled_request(
        self, collections, pdf, tmp_path, monkeypatch
    ):
        """Requests on pooled channels go out before any new connection
        is opened: a first shard whose connect hangs past the budget
        fails alone, and the second shard's pooled request is answered."""
        daemons = _spawn_fleet({"pdf": collections["pdf"]}, tmp_path, 2)
        hung = daemons[0]
        endpoint = f"127.0.0.1:{hung.port}"
        start, stop = _tile(N_SERIES, 2)[0]
        fleet = self._fleet(
            daemons, timeout=1.0, connect_timeout=1.2, allow_partial=True
        )

        class HungConnect(Channel):
            """A connect to ``hung`` that runs out its connect timeout."""

            def __init__(self, host, port, connect_timeout):
                if port == hung.port:
                    time.sleep(connect_timeout)
                    raise TimeoutError("timed out")
                super().__init__(host, port, connect_timeout)

        try:
            chain = _chain(fleet, "pdf", "dust")
            chain.knn(3)
            fleet._pools.pop(("127.0.0.1", hung.port)).pop().close()
            monkeypatch.setattr("repro.service.cluster.Channel", HungConnect)
            result = chain.knn(3)
        finally:
            fleet.close()
            for daemon in daemons:
                daemon.stop()
        assert result.failed_shards == (endpoint,)
        _assert_survivor_ranking(result, pdf, start, stop, 3)

    def test_hung_connect_on_a_cold_coordinator_fails_alone(
        self, collections, pdf, tmp_path
    ):
        """With no pooled channel, every connect starts before any is
        waited on: a first shard whose connect hangs past the budget
        fails alone, and the live shard behind it is answered."""
        hung = socket.socket()
        hung.bind(("127.0.0.1", 0))
        hung.listen(0)
        # One queued connection fills the accept backlog, so every
        # later connect to ``hung`` hangs.
        filler = socket.create_connection(hung.getsockname(), timeout=5.0)
        [live] = _spawn_fleet({"pdf": collections["pdf"]}, tmp_path, 1)
        stand_in = types.SimpleNamespace(port=hung.getsockname()[1])
        endpoint = f"127.0.0.1:{stand_in.port}"
        start, stop = _tile(N_SERIES, 2)[0]
        fleet = self._fleet(
            [stand_in, live], timeout=1.0, connect_timeout=1.2,
            allow_partial=True,
        )
        try:
            result = _chain(fleet, "pdf", "dust").knn(3)
        finally:
            fleet.close()
            live.stop()
            filler.close()
            hung.close()
        assert result.failed_shards == (endpoint,)
        _assert_survivor_ranking(result, pdf, start, stop, 3)

    def test_callers_sharing_a_coordinator_stay_in_step(self, trio, pdf):
        """Six caller threads share one coordinator and its pools, with
        a short switch interval and one shard answering errors: every
        answer is the survivor ranking, so no reply ever answered
        another request."""
        start, stop = _tile(N_SERIES, 3)[1]
        coordinator = self._fleet(trio, timeout=30, allow_partial=True)
        errors = []

        def caller():
            try:
                for _ in range(8):
                    result = _chain(coordinator, "pdf", "dust").knn(3)
                    _assert_survivor_ranking(result, pdf, start, stop, 3)
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            callers = [threading.Thread(target=caller) for _ in range(6)]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            coordinator.close()
        assert not any(thread.is_alive() for thread in callers)
        assert errors == []

    @pytest.mark.parametrize("n_shards", [1, 2])
    def test_restarted_daemon_costs_one_retry(
        self, collections, sessions, tmp_path, n_shards
    ):
        """A pooled channel whose daemon restarted fails its send or its
        receive; the one retry, on a new connection to the restarted
        daemon, gets the answer."""
        daemons = _spawn_fleet(
            {"pdf": collections["pdf"]}, tmp_path, n_shards
        )
        coordinator = self._fleet(daemons, timeout=30)
        reference = sessions["pdf"].queries([4]).using(DustTechnique())
        reference = reference.knn(3)
        try:
            chain = _chain(coordinator, "pdf", "dust", queries=[4])
            chain.knn(3)
            [[dead], *_] = _pooled(coordinator, daemons[-1:])
            port = daemons[-1].port
            daemons[-1].stop()
            daemons[-1] = DaemonHarness(
                str(tmp_path / f"shard{n_shards - 1}.db"), port=port
            )
            answer = chain.knn(3)
            [[pooled], *_] = _pooled(coordinator, daemons[-1:])
        finally:
            coordinator.close()
            for daemon in daemons:
                daemon.stop()
        assert pooled is not dead
        np.testing.assert_array_equal(answer.indices, reference.indices)
        np.testing.assert_allclose(
            answer.scores, reference.scores, atol=1e-9
        )


@contextlib.contextmanager
def _no_resource_warnings():
    """Fail if the block leaves an unclosed socket (or other resource)
    for the garbage collector."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        yield
        gc.collect()
    leaked = [
        str(warning.message)
        for warning in caught
        if issubclass(warning.category, ResourceWarning)
    ]
    assert not leaked, leaked


def _free_port() -> int:
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestShardMapCatalog:
    def test_set_and_read_back(self, collections, tmp_path):
        path = str(tmp_path / "cat.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("pdf", collections["pdf"])
            installed = catalog.set_shard_map(
                "pdf", [("a", 1, 0, 6), ("b", 2, 6, 12)]
            )
            assert [shard.endpoint for shard in installed] == [
                "a:1",
                "b:2",
            ]
            assert catalog.shard_map("pdf") == installed
            assert catalog.sharded_names() == ["pdf"]
            catalog.clear_shard_map("pdf")
            assert catalog.shard_map("pdf") == ()
            assert catalog.sharded_names() == []

    @pytest.mark.parametrize(
        "shards",
        [
            [],
            [("a", 1, 0, 6)],  # does not reach n_series
            [("a", 1, 1, 12)],  # does not start at 0
            [("a", 1, 0, 6), ("b", 2, 7, 12)],  # gap
            [("a", 1, 0, 7), ("b", 2, 6, 12)],  # overlap
            [("a", 1, 0, 13)],  # beyond the collection
            [("", 1, 0, 12)],  # empty host
        ],
    )
    def test_rejects_bad_tilings(self, collections, tmp_path, shards):
        path = str(tmp_path / "cat.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("pdf", collections["pdf"])
            with pytest.raises(CatalogError):
                catalog.set_shard_map("pdf", shards)

    def test_requires_registered_collection(self, tmp_path):
        path = str(tmp_path / "cat.db")
        with ServiceCatalog(path) as catalog:
            with pytest.raises(CatalogError):
                catalog.set_shard_map("ghost", [("a", 1, 0, 12)])

    def test_unregister_drops_the_shard_map(self, collections, tmp_path):
        path = str(tmp_path / "cat.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("pdf", collections["pdf"])
            catalog.set_shard_map("pdf", [("a", 1, 0, 12)])
            catalog.unregister("pdf")
            assert catalog.sharded_names() == []

    def test_v2_catalog_migrates_to_v3(self, collections, tmp_path):
        path = str(tmp_path / "v2.db")
        connection = sqlite3.connect(path)
        connection.executescript(
            """
            CREATE TABLE catalog_meta (
                key TEXT PRIMARY KEY, value TEXT NOT NULL
            );
            CREATE TABLE collections (
                name          TEXT PRIMARY KEY,
                manifest_path TEXT NOT NULL,
                kind          TEXT NOT NULL,
                n_series      INTEGER NOT NULL,
                length        INTEGER NOT NULL,
                registered_at TEXT NOT NULL,
                indexed       INTEGER NOT NULL DEFAULT 0,
                artifacts     TEXT NOT NULL DEFAULT '{}'
            );
            """
        )
        connection.execute(
            "INSERT INTO catalog_meta (key, value) "
            "VALUES ('schema_version', '2')"
        )
        connection.execute(
            "INSERT INTO collections (name, manifest_path, kind, "
            "n_series, length, registered_at, indexed, artifacts) "
            "VALUES (?, ?, 'pdf', ?, ?, '2025', 0, '{}')",
            (
                "pdf",
                collections["pdf"],
                N_SERIES,
                LENGTH,
            ),
        )
        connection.commit()
        connection.close()
        with ServiceCatalog(path) as catalog:
            assert catalog.schema_version() == SCHEMA_VERSION
            # Migration preserves registrations and unlocks shard maps.
            assert catalog.get("pdf").n_series == N_SERIES
            assert catalog.shard_map("pdf") == ()
            catalog.set_shard_map("pdf", [("a", 1, 0, N_SERIES)])
            assert len(catalog.shard_map("pdf")) == 1


class TestConnectDispatch:
    def test_collection_directory_opens_in_process(self, collections):
        session = connect(collections["pdf"])
        try:
            assert isinstance(session, SimilaritySession)
            assert len(session.collection) == N_SERIES
        finally:
            session.close()

    def test_unsharded_catalog_opens_in_process(
        self, collections, tmp_path
    ):
        path = str(tmp_path / "plain.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("pdf", collections["pdf"])
        session = connect(path)
        try:
            assert isinstance(session, SimilaritySession)
        finally:
            session.close()

    def test_sharded_catalog_returns_cluster_session(
        self, cluster_catalog
    ):
        session = connect(cluster_catalog, collection="pdf")
        try:
            assert isinstance(session, RemoteSession)
            assert isinstance(session.backend, ClusterCoordinator)
            assert len(session) == N_SERIES
        finally:
            session.close()

    def test_ambiguous_catalog_requires_collection(self, cluster_catalog):
        with pytest.raises(InvalidParameterError, match="collection"):
            connect(cluster_catalog)

    def test_tcp_url_path_names_the_collection(self, fleet):
        session = connect(f"tcp://127.0.0.1:{fleet[0].port}/ms")
        try:
            assert session.collection_name == "ms"
        finally:
            session.close()

    def test_tcp_requires_a_name_when_daemon_serves_many(self, fleet):
        with _no_resource_warnings():
            with pytest.raises(InvalidParameterError, match="name one"):
                connect(f"tcp://127.0.0.1:{fleet[0].port}")

    def test_tcp_unknown_collection_lists_served(self, fleet):
        with _no_resource_warnings():
            with pytest.raises(InvalidParameterError, match="serves no"):
                connect(f"tcp://127.0.0.1:{fleet[0].port}/ghost")

    def test_bad_tcp_addresses_rejected(self):
        with pytest.raises(InvalidParameterError, match="host:port"):
            connect("tcp://nohost")
        with pytest.raises(InvalidParameterError, match="bad port"):
            connect("tcp://host:notaport")
