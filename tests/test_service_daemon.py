"""Daemon end-to-end: concurrency, structured errors, graceful shutdown.

One in-process daemon (real asyncio server on an ephemeral port, real
sockets) serves a pdf and a multisample collection for the whole module.
The contracts under test:

* client answers match the in-process :class:`SimilaritySession` for
  every servable verb and technique family;
* concurrent same-plan requests coalesce into one batch, and the
  coalesced answers still match serial execution;
* failures cross the wire as structured ``{"type", "message"}`` errors
  — bad collection, bad technique, bad params, version mismatch,
  malformed JSON, an over-limit line — and never kill the daemon, nor
  does a client that hangs up mid-line;
* a per-request timeout returns a ``Timeout`` error while the daemon
  keeps serving;
* shutdown drains: a request in flight when ``shutdown`` arrives still
  completes with its real answer.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading

import numpy as np
import pytest

from repro.core import TimeSeries, save_collection, spawn
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession
from repro.service import ServiceCatalog, ServiceClient, ServiceError
from repro.service.client import ServiceResult
from repro.service.cli import query_main
from repro.service.daemon import SimilarityDaemon
from repro.service.protocol import (
    PROTOCOL_VERSION,
    build_technique,
    stats_from_payload,
)

SEED = 626
N_SERIES = 12
LENGTH = 16

KNN_SPECS = [
    "euclidean",
    {"name": "uma", "params": {"window": 2}},
    {"name": "uema", "params": {"window": 2, "decay": 0.8}},
    "dust",
    {"name": "dust-dtw", "params": {"window": 4}},
]
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

    def client(self, **kwargs) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, **kwargs)

    def stop(self, timeout: float = 60.0) -> None:
        if self.thread.is_alive():
            self.loop.call_soon_threadsafe(
                lambda: asyncio.ensure_future(self.daemon.stop())
            )
        self.thread.join(timeout=timeout)
        assert not self.thread.is_alive(), "daemon failed to drain"


@pytest.fixture(scope="module")
def collections(pdf, multisample, exact, tmp_path_factory):
    base = tmp_path_factory.mktemp("daemon-collections")
    return {
        "pdf": save_collection(pdf, str(base / "pdf")),
        "ms": save_collection(multisample, str(base / "ms")),
        "exact": save_collection(exact, str(base / "exact")),
    }


@pytest.fixture(scope="module")
def harness(collections, tmp_path_factory):
    catalog_path = str(
        tmp_path_factory.mktemp("daemon-catalog") / "catalog.db"
    )
    with ServiceCatalog(catalog_path) as catalog:
        for name, manifest in collections.items():
            catalog.register(name, manifest)
    live = DaemonHarness(catalog_path, max_delay=0.001)
    yield live
    live.stop()


def _serial(collection, spec, verb):
    with SimilaritySession(collection) as session:
        return verb(session.queries().using(build_technique(spec)))


class TestQueryParity:
    @pytest.mark.parametrize("spec", KNN_SPECS)
    def test_knn_matches_in_process(self, spec, pdf, harness):
        expected = _serial(pdf, spec, lambda q: q.knn(3))
        with harness.client() as client:
            answer = client.query("knn", "pdf", {"k": 3}, technique=spec)
        assert answer.indices == expected.indices.tolist()
        np.testing.assert_allclose(
            answer.scores, expected.scores, atol=1e-9
        )
        assert answer.batch is not None and answer.batch["size"] >= 1
        assert answer.elapsed_ms is not None

    def test_range_with_per_query_epsilons(self, pdf, harness):
        epsilons = np.linspace(2.0, 6.0, 4)
        expected = _serial(
            pdf,
            "euclidean",
            lambda q: q.session.queries([0, 1, 2, 3])
            .using(build_technique("euclidean"))
            .range(epsilons),
        )
        with harness.client() as client:
            answer = client.query(
                "range",
                "pdf",
                {"epsilon": list(epsilons)},
                technique="euclidean",
                indices=[0, 1, 2, 3],
            )
        assert answer.matches == [
            [int(i) for i in found] for found in expected.matches
        ]

    @pytest.mark.parametrize("spec,name", PROB_RANGE_SPECS)
    def test_prob_range_matches_in_process(
        self, spec, name, pdf, multisample, harness
    ):
        collection = pdf if name == "pdf" else multisample
        expected = _serial(
            collection, spec, lambda q: q.prob_range(5.0, 0.5)
        )
        with harness.client() as client:
            answer = client.query(
                "prob_range", name, {"epsilon": 5.0, "tau": 0.5}, spec
            )
        assert answer.matches == [
            [int(i) for i in found] for found in expected.matches
        ]

    def test_raw_value_queries_against_exact(self, exact, harness):
        outside = TimeSeries(exact[0].values + 0.01)
        rows = [list(map(float, outside.values))]
        with SimilaritySession(exact) as session:
            expected = (
                session.queries([outside])
                .using(build_technique("euclidean"))
                .knn(3)
            )
        with harness.client() as client:
            answer = client.query(
                "knn", "exact", {"k": 3}, "euclidean", values=rows
            )
        assert answer.indices == expected.indices.tolist()

    def test_subset_indices(self, pdf, harness):
        with SimilaritySession(pdf) as session:
            expected = (
                session.queries([5, 2])
                .using(build_technique("dust"))
                .knn(2)
            )
        with harness.client() as client:
            answer = client.query("knn", "pdf", {"k": 2}, "dust", [5, 2])
        assert answer.indices == expected.indices.tolist()

    def test_response_carries_pruning_stats(self, harness):
        with harness.client() as client:
            answer = client.query("knn", "pdf", {"k": 3}, technique="dust")
        assert answer.stats is not None
        assert answer.stats["n_queries"] == N_SERIES
        assert answer.stats["stages"]

    def test_stats_parse_ignores_retired_fields(self, harness):
        """An older daemon's payload may still carry ``backend`` and
        ``bound_dtype``; parsing drops them and keeps everything else."""
        with harness.client() as client:
            answer = client.query("knn", "pdf", {"k": 3}, technique="dust")
        legacy = dict(answer.stats, backend="numpy", bound_dtype="float32")
        parsed = stats_from_payload(legacy)
        assert parsed == stats_from_payload(answer.stats)
        assert parsed.n_queries == N_SERIES


class TestBatchingOverTheWire:
    def test_concurrent_same_plan_requests_coalesce(
        self, collections, tmp_path_factory
    ):
        """Same-key requests issued together share one kernel run."""
        catalog_path = str(
            tmp_path_factory.mktemp("batch-catalog") / "catalog.db"
        )
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        live = DaemonHarness(catalog_path, max_delay=0.25)
        try:
            barrier = threading.Barrier(3)
            answers: list = [None] * 3

            def worker(slot: int) -> None:
                with live.client() as client:
                    barrier.wait(timeout=30.0)
                    answers[slot] = client.query(
                        "knn", "pdf", {"k": 3}, "dust", [slot]
                    )

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert all(answer is not None for answer in answers)
            assert max(a.batch["size"] for a in answers) >= 2
        finally:
            live.stop()

    def test_coalesced_answers_still_match_serial(
        self, pdf, collections, tmp_path_factory
    ):
        catalog_path = str(
            tmp_path_factory.mktemp("batch-parity") / "catalog.db"
        )
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        live = DaemonHarness(catalog_path, max_delay=0.25)
        try:
            barrier = threading.Barrier(3)
            answers: list = [None] * 3

            def worker(slot: int) -> None:
                with live.client() as client:
                    barrier.wait(timeout=30.0)
                    answers[slot] = client.query(
                        "knn", "pdf", {"k": 3}, "euclidean", [slot]
                    )

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            with SimilaritySession(pdf) as session:
                for slot, answer in enumerate(answers):
                    expected = (
                        session.queries([slot])
                        .using(build_technique("euclidean"))
                        .knn(3)
                    )
                    assert answer.indices == expected.indices.tolist()
        finally:
            live.stop()


def _raw_exchange(harness, raw: bytes) -> dict:
    """Send raw bytes on a fresh connection and decode the reply line."""
    with socket.create_connection(
        ("127.0.0.1", harness.port), timeout=30.0
    ) as sock:
        sock.sendall(raw)
        reader = sock.makefile("rb")
        return json.loads(reader.readline())


class TestStructuredErrors:
    def test_unknown_collection(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query("knn", "ghost", {"k": 3})
        assert excinfo.value.error_type == "CatalogError"
        assert "ghost" in str(excinfo.value)

    def test_unknown_technique(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query("knn", "pdf", {"k": 3}, technique="cosine")
        assert excinfo.value.error_type == "ProtocolError"

    def test_unknown_technique_param(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query(
                    "knn",
                    "pdf",
                    {"k": 3},
                    technique={"name": "dust", "params": {"bogus": 1}},
                )
        assert excinfo.value.error_type == "ProtocolError"
        assert "bogus" in str(excinfo.value)

    def test_bad_query_params(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError, match="params.k"):
                client.query("knn", "pdf", {"k": 0})
            with pytest.raises(ServiceError, match="tau"):
                client.query("prob_range", "pdf", {"epsilon": 4.0, "tau": 1.5})
            with pytest.raises(ServiceError, match=r"\[0, 11\]"):
                client.query("knn", "pdf", {"k": 3}, indices=[99])

    def test_raw_values_rejected_on_uncertain_kind(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError, match="exact-kind"):
                client.query(
                    "knn", "pdf", {"k": 3}, values=[[0.0] * LENGTH]
                )

    def test_protocol_version_mismatch(self, harness):
        request = json.dumps(
            {"v": 99, "id": "x", "op": "ping"}
        ).encode() + b"\n"
        response = _raw_exchange(harness, request)
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert "version" in response["error"]["message"]
        assert response["v"] == PROTOCOL_VERSION

    def test_malformed_json_line(self, harness):
        response = _raw_exchange(harness, b"{nope\n")
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"

    def test_unknown_op(self, harness):
        request = json.dumps(
            {"v": PROTOCOL_VERSION, "id": "x", "op": "frobnicate"}
        ).encode() + b"\n"
        response = _raw_exchange(harness, request)
        assert response["error"]["type"] == "ProtocolError"
        assert "frobnicate" in response["error"]["message"]

    @pytest.mark.parametrize(
        "policy", [{"precision": "float64"}, {"backend": "numpy"}]
    )
    def test_unknown_policy_fields(self, harness, policy):
        request = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "id": "x",
                "op": "knn",
                "collection": "pdf",
                "params": {"k": 3, "policy": policy},
            }
        ).encode() + b"\n"
        response = _raw_exchange(harness, request)
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert "unknown policy fields" in response["error"]["message"]
        assert next(iter(policy)) in response["error"]["message"]

    def test_errors_do_not_kill_the_daemon(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError):
                client.query("knn", "ghost", {"k": 3})
            assert client.ping()


class TestWireFaults:
    def test_oversized_line_gets_structured_error(
        self, collections, tmp_path, monkeypatch
    ):
        import repro.service.daemon as daemon_module

        limit = 1024
        monkeypatch.setattr(daemon_module, "MAX_LINE_BYTES", limit)
        catalog_path = str(tmp_path / "catalog.db")
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        live = DaemonHarness(catalog_path, max_delay=0.001)
        try:
            request = json.dumps(
                {
                    "v": PROTOCOL_VERSION,
                    "id": "big",
                    "op": "knn",
                    "collection": "pdf",
                    "params": {"k": 3},
                    "queries": {"values": [[0.0] * (4 * limit)]},
                }
            ).encode() + b"\n"
            assert len(request) > limit
            response = _raw_exchange(live, request)
            assert response["ok"] is False
            assert response["error"]["type"] == "ProtocolError"
            assert f"exceeds {limit} bytes" in response["error"]["message"]
            with live.client() as client:
                assert client.ping()
        finally:
            live.stop()

    def test_half_line_then_close_leaves_daemon_serving(self, harness):
        with socket.create_connection(
            ("127.0.0.1", harness.port), timeout=30.0
        ) as sock:
            sock.sendall(b'{"v": 1, "id": "cut", "op": "kn')
        with harness.client() as client:
            assert client.ping()
            answer = client.query("knn", "pdf", {"k": 2}, "euclidean")
        assert len(answer.indices) == N_SERIES


class TestTimeouts:
    def test_expired_request_reports_timeout(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query(
                    "prob_range",
                    "ms",
                    {"epsilon": 5.0, "tau": 0.5},
                    technique={
                        "name": "munich-dtw",
                        "params": {"n_samples": 64},
                    },
                    timeout=1e-4,
                )
            assert excinfo.value.error_type == "Timeout"
            # The daemon survives an expired request and keeps serving.
            assert client.ping()


class TestControlOps:
    def test_status(self, harness):
        with harness.client() as client:
            status = client.status()
        assert status["protocol"] == PROTOCOL_VERSION
        assert set(status["collections"]) == {"pdf", "ms", "exact"}
        assert set(status["warm"]) == {"pdf", "ms", "exact"}  # preloaded
        assert status["uptime_seconds"] >= 0.0
        assert status["batching"]["max_batch"] >= 1

    def test_list_reports_entries_and_warmth(self, harness):
        with harness.client() as client:
            entries = client.list_collections()
        by_name = {entry["name"]: entry for entry in entries}
        assert by_name["pdf"]["kind"] == "pdf"
        assert by_name["pdf"]["n_series"] == N_SERIES
        assert by_name["pdf"]["warm"] is True

    def test_register_then_query(self, pdf, harness, tmp_path):
        manifest = save_collection(pdf[:6], str(tmp_path / "late"))
        with harness.client() as client:
            registered = client.register("late", manifest)
            assert registered == {"registered": "late", "n_series": 6}
            answer = client.query("knn", "late", {"k": 2}, "euclidean")
        assert len(answer.indices) == 6

    def test_query_cli_round_trip(self, pdf, harness, capsys):
        """The ``cli query`` surface prints rows + the batch footer."""
        code = query_main(
            [
                "--port",
                str(harness.port),
                "--collection",
                "pdf",
                "--technique",
                "dust",
                "--queries",
                "0,1",
                "--knn",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        rows = [
            line for line in out.splitlines() if line.startswith("query ")
        ]
        assert len(rows) == 2
        assert "[batch size" in out
        base = ["--port", str(harness.port), "--collection", "pdf",
                "--queries", "0,1"]
        for verb in (
            ["--technique", "euclidean", "--range", "4.0"],
            ["--technique", "proud", "--prob-range", "4.0", "0.4"],
        ):
            assert query_main(base + verb) == 0
            out = capsys.readouterr().out
            rows = [
                line for line in out.splitlines() if line.startswith("query ")
            ]
            assert [row.split(":")[0] for row in rows] == [
                "query 0", "query 1"
            ]
            assert "[" in rows[0]  # a match-index list per query row
        code = query_main(["--port", str(harness.port), "--status"])
        out = capsys.readouterr().out
        assert code == 0
        assert '"protocol"' in out


class TestGracefulShutdown:
    def test_in_flight_request_completes_through_shutdown(
        self, pdf, collections, tmp_path_factory
    ):
        catalog_path = str(
            tmp_path_factory.mktemp("drain-catalog") / "catalog.db"
        )
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        # A long delay window keeps the request in the admission queue
        # when shutdown arrives — the drain must still execute it.
        live = DaemonHarness(catalog_path, max_batch=64, max_delay=5.0)
        answer_box: dict = {}

        def slow_query() -> None:
            with live.client(timeout=120.0) as client:
                answer_box["answer"] = client.query(
                    "knn", "pdf", {"k": 3}, "dust"
                )

        worker = threading.Thread(target=slow_query)
        worker.start()
        try:
            import time

            time.sleep(0.3)  # the request is parked in the batch queue
            with live.client() as control:
                assert control.shutdown()
            worker.join(timeout=60.0)
            assert not worker.is_alive()
            live.thread.join(timeout=60.0)
            assert not live.thread.is_alive()
            answer = answer_box.get("answer")
            assert isinstance(answer, ServiceResult)
            expected = _serial(pdf, "dust", lambda q: q.knn(3))
            assert answer.indices == expected.indices.tolist()
        finally:
            live.stop()

    def test_new_connections_refused_after_shutdown(
        self, collections, tmp_path_factory
    ):
        catalog_path = str(
            tmp_path_factory.mktemp("refuse-catalog") / "catalog.db"
        )
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        live = DaemonHarness(catalog_path, preload=False)
        with live.client() as client:
            assert client.shutdown()
        live.thread.join(timeout=60.0)
        assert not live.thread.is_alive()
        with pytest.raises(OSError):
            socket.create_connection(
                ("127.0.0.1", live.port), timeout=5.0
            ).close()


class TestLazyWarming:
    def test_no_preload_warms_on_first_query(
        self, collections, tmp_path_factory
    ):
        catalog_path = str(
            tmp_path_factory.mktemp("lazy-catalog") / "catalog.db"
        )
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        live = DaemonHarness(catalog_path, preload=False)
        try:
            with live.client() as client:
                assert client.status()["warm"] == []
                client.query("knn", "pdf", {"k": 2}, technique="euclidean")
                assert client.status()["warm"] == ["pdf"]
        finally:
            live.stop()
