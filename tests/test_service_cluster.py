"""Distributed scatter-gather: parity, degradation, hedging, connect().

A real 4-daemon localhost fleet column-shards one collection; the
contracts under test:

* the cluster coordinator's merged kNN / range / prob-range answers are
  bit-identical to the in-process session (Monte Carlo techniques
  included — integer seeds replay per-pair draws on every shard);
* the same fluent ``queries().using(technique).verb(...)`` chain runs
  unchanged against an in-process session, one remote daemon, and the
  shard fleet, returning the same structured results with populated
  pruning statistics;
* killing a shard daemon mid-fleet either raises (strict) or returns a
  partial result *tagged* with the failed shard set whose survivor
  merge is exactly the survivor-restricted reference ranking;
* hedged retries fire only past the latency threshold, reuse the
  primary's request id, and duplicate replies are discarded by id;
* the shard map lives in the catalog (schema v3) behind strict tiling
  validation, and v2 catalogs migrate in place on open.
"""

from __future__ import annotations

import asyncio
import socket
import sqlite3
import threading
import time

import numpy as np
import pytest

from repro.core import save_collection, spawn
from repro.core.errors import (
    InvalidParameterError,
    UnsupportedQueryError,
)
from repro.core.mmapio import load_collection
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession
from repro.queries.techniques import DustTechnique, ProudTechnique
from repro.service import ServiceCatalog
from repro.service.catalog import SCHEMA_VERSION, CatalogError, ShardEntry
from repro.service.cluster import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterError,
    RemoteBackend,
    RemoteSession,
    connect,
)
from repro.service.daemon import SimilarityDaemon
from repro.service.protocol import (
    PROTOCOL_VERSION,
    build_technique,
    decode_message,
    encode_message,
)

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


class DaemonHarness:
    """A live daemon on a background thread with its own event loop."""

    def __init__(self, catalog_path: str, **kwargs) -> None:
        self.daemon: SimilarityDaemon = None  # type: ignore[assignment]
        self.loop: asyncio.AbstractEventLoop = None  # type: ignore
        ready = threading.Event()

        def _serve() -> None:
            async def _main() -> None:
                self.daemon = SimilarityDaemon(catalog_path, **kwargs)
                await self.daemon.start()
                self.loop = asyncio.get_running_loop()
                ready.set()
                await self.daemon.serve_forever()

            asyncio.run(_main())

        self.thread = threading.Thread(target=_serve, daemon=True)
        self.thread.start()
        if not ready.wait(timeout=120.0):
            raise RuntimeError("daemon did not come up")

    @property
    def port(self) -> int:
        return self.daemon.port

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.daemon.stop())
            )
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "daemon failed to drain"


def _spawn_fleet(collections, tmp_path, count):
    """``count`` daemons, each cataloging every saved collection."""
    fleet = []
    for index in range(count):
        catalog_path = str(tmp_path / f"shard{index}.db")
        with ServiceCatalog(catalog_path) as catalog:
            for name, manifest in collections.items():
                catalog.register(name, manifest)
        fleet.append(DaemonHarness(catalog_path, max_delay=0.001))
    return fleet


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
        merged = coordinator.knn("pdf", 5, spec)
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
        merged = coordinator.prob_range(key, 4.0, 0.3, spec)
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
        merged = coordinator.range("pdf", 4.0, "dust")
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
        subset = coordinator.knn("pdf", 3, "dust", indices=[0, 5, 11])
        reference = (
            sessions["pdf"].queries([0, 5, 11]).using(DustTechnique()).knn(3)
        )
        np.testing.assert_array_equal(subset.indices, reference.indices)
        np.testing.assert_array_equal(
            subset.query_positions, [0, 5, 11]
        )

    def test_merged_stats_name_the_cluster(self, coordinator):
        merged = coordinator.knn("pdf", 5, "dust")
        stats = merged.pruning_stats
        assert stats is not None
        assert stats.executor["backend"] == "cluster"
        assert stats.executor["n_shards"] == 4
        assert stats.n_queries == N_SERIES

    def test_knn_validates_k_before_scattering(self, coordinator):
        with pytest.raises(InvalidParameterError, match="eligible"):
            coordinator.knn("pdf", N_SERIES, "dust")
        with pytest.raises(InvalidParameterError, match=">= 1"):
            coordinator.knn("pdf", 0, "dust")

    def test_unknown_collection_names_the_shard_maps(self, coordinator):
        with pytest.raises(ClusterError, match="no shard map"):
            coordinator.knn("nope", 3, "dust")


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
            assert isinstance(remote.backend, RemoteBackend)
            assert isinstance(clustered.backend, ClusterBackend)
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
            with pytest.raises(UnsupportedQueryError, match="matrices"):
                remote.queries().using(
                    DustTechnique()
                ).profile_matrix()
        finally:
            remote.close()

    def test_explain_identical_across_backends(
        self, fleet, cluster_catalog, sessions
    ):
        """``explain()`` reports one chosen plan, whatever the backend."""
        reference = (
            sessions["pdf"].queries().using(DustTechnique()).explain(k=3)
        )
        remote = connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf")
        clustered = connect(cluster_catalog, collection="pdf")
        try:
            for session in (remote, clustered):
                report = (
                    session.queries().using(DustTechnique()).explain(k=3)
                )
                assert report.plan == reference.plan
                assert report.mode == reference.mode
                assert report.technique_name == reference.technique_name
                assert [r["stage"] for r in report.records] == [
                    r["stage"] for r in reference.records
                ]
        finally:
            remote.close()
            clustered.close()

    def test_policy_ships_to_every_backend(
        self, fleet, cluster_catalog, sessions
    ):
        """``never_index`` bound via ``connect(policy=...)`` reaches the
        daemon and every shard: no backend plans an index stage."""
        from repro.queries.planner import PlanPolicy

        policy = PlanPolicy(mode="never_index")
        remote = connect(
            f"tcp://127.0.0.1:{fleet[0].port}/pdf", policy=policy
        )
        clustered = connect(
            cluster_catalog, collection="pdf", policy=policy
        )
        try:
            local_report = (
                sessions["pdf"]
                .queries()
                .using(DustTechnique())
                .with_policy(policy)
                .explain(k=3)
            )
            assert "index" not in local_report.plan
            assert local_report.mode == "never_index"
            for session in (remote, clustered):
                assert session.policy == policy
                report = (
                    session.queries().using(DustTechnique()).explain(k=3)
                )
                assert report.plan == local_report.plan
                assert report.mode == "never_index"
        finally:
            remote.close()
            clustered.close()

    def test_remote_session_reports_shape(self, fleet):
        remote = connect(f"tcp://127.0.0.1:{fleet[0].port}/pdf")
        try:
            assert len(remote) == N_SERIES
            assert remote.collection_name == "pdf"
        finally:
            remote.close()


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
                coordinator.knn("pdf", 3, "dust")
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
            degraded = coordinator.knn("pdf", 3, "dust")
            assert degraded.failed_shards == (f"127.0.0.1:{dead_port}",)
            assert not degraded.complete
            # The merge over the survivors is the survivor-restricted
            # reference ranking, exactly.
            survivors = [
                column
                for column in range(N_SERIES)
                if not (start <= column < stop)
            ]
            matrix = DustTechnique().distance_matrix(pdf, pdf)
            columns = np.asarray(survivors)
            restricted = matrix[:, columns]
            for row in range(N_SERIES):
                scores = restricted[row].astype(float).copy()
                own = np.where(columns == row)[0]
                if own.size:
                    scores[own[0]] = np.inf
                order = np.lexsort((columns, scores))[:3]
                np.testing.assert_array_equal(
                    degraded.indices[row], columns[order]
                )
                np.testing.assert_array_equal(
                    degraded.scores[row], scores[order]
                )
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
            degraded = coordinator.range("pdf", 4.0, "dust")
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


class FlakyShard:
    """A fake shard daemon: canned kNN replies, scripted per-request delay.

    Speaks just enough of the versioned JSON protocol for the
    coordinator: echoes the request id, answers ``knn`` with fixed
    2-series rankings.  ``delays`` is consumed once per request in
    arrival order; requests beyond the script answer instantly.
    """

    def __init__(self, delays=()):
        self.delays = list(delays)
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
                    "ok": True,
                    "result": {
                        "indices": [[1], [0]],
                        "scores": [[1.0], [1.0]],
                    },
                }
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


class TestHedgedRetries:
    def test_hedge_fires_past_threshold_and_dedupes_by_id(self):
        shard = FlakyShard(delays=[1.5])  # primary lags; hedge is instant
        coordinator = _single_shard_coordinator(
            shard, hedge_after=0.1, timeout=30
        )
        try:
            started = time.perf_counter()
            result = coordinator.knn("fake", 1, "euclidean")
            elapsed = time.perf_counter() - started
            assert elapsed < 1.4, "winner must be the hedge, not the lag"
            np.testing.assert_array_equal(result.indices, [[1], [0]])
            assert coordinator.hedges_fired == 1
            # Both attempts carried the SAME request id — that is what
            # makes the late primary reply a discardable duplicate.
            deadline = time.monotonic() + 10
            while (
                len(shard.request_ids) < 2
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert len(shard.request_ids) == 2
            assert shard.request_ids[0] == shard.request_ids[1]
            while (
                coordinator.duplicates_discarded < 1
                and time.monotonic() < deadline
            ):
                time.sleep(0.02)
            assert coordinator.duplicates_discarded == 1
        finally:
            coordinator.close()
            shard.close()

    def test_no_hedge_below_threshold(self):
        shard = FlakyShard()
        coordinator = _single_shard_coordinator(
            shard, hedge_after=5.0, timeout=30
        )
        try:
            coordinator.knn("fake", 1, "euclidean")
            coordinator.knn("fake", 1, "euclidean")
            assert coordinator.hedges_fired == 0
            assert coordinator.duplicates_discarded == 0
            assert len(set(shard.request_ids)) == 2
        finally:
            coordinator.close()
            shard.close()

    def test_hedging_disabled_with_infinite_threshold(self):
        shard = FlakyShard(delays=[0.3])
        coordinator = _single_shard_coordinator(
            shard, hedge_after=float("inf"), timeout=30
        )
        try:
            coordinator.knn("fake", 1, "euclidean")
            assert coordinator.hedges_fired == 0
        finally:
            coordinator.close()
            shard.close()

    def test_latency_percentile_needs_history(self):
        shard = FlakyShard()
        coordinator = _single_shard_coordinator(shard, timeout=30)
        try:
            entry = coordinator.shard_map("fake")[0]
            assert coordinator._hedge_delay(entry) is None
            for _ in range(8):
                coordinator._record_latency(entry, 0.010)
            delay = coordinator._hedge_delay(entry)
            assert delay == pytest.approx(0.010)
        finally:
            coordinator.close()
            shard.close()

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
                coordinator.knn("fake", 1, "euclidean")
            assert time.perf_counter() - started < 15
        finally:
            coordinator.close()


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
            assert isinstance(session.backend, ClusterBackend)
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
        with pytest.raises(InvalidParameterError, match="name one"):
            connect(f"tcp://127.0.0.1:{fleet[0].port}")

    def test_tcp_unknown_collection_lists_served(self, fleet):
        with pytest.raises(InvalidParameterError, match="serves no"):
            connect(f"tcp://127.0.0.1:{fleet[0].port}/ghost")

    def test_bad_tcp_addresses_rejected(self):
        with pytest.raises(InvalidParameterError, match="host:port"):
            connect("tcp://nohost")
        with pytest.raises(InvalidParameterError, match="bad port"):
            connect("tcp://host:notaport")
