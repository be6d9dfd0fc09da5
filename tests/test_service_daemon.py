"""Daemon end-to-end: concurrency, structured errors, graceful shutdown.

One in-process daemon (real asyncio server on an ephemeral port, real
sockets) serves a pdf and a multisample collection for the whole module.
The contracts under test:

* client answers match the in-process :class:`SimilaritySession` for
  every servable verb and technique family;
* failures cross the wire as structured ``{"type", "message"}`` errors
  — bad collection, bad technique, bad params (a ``k`` deeper than the
  collection's eligible candidates included), wire fields that are not
  finite JSON numbers of the right kind, version mismatch, malformed
  JSON, an over-limit line — and never kill the daemon, nor does a
  client that hangs up mid-line or mid-request;
* a malformed request is rejected alone, before it executes, while a
  valid same-technique request is in flight beside a held one;
* same-spec requests run side by side on the pool: one answers while
  another is held, and many on two pool threads each equal a serial
  in-process run;
* a per-request timeout returns a ``Timeout`` error while the daemon
  keeps serving, and a client whose read timed out reconnects for its
  next request;
* every column slice, the whole collection included, is one session
  built from the collection's single memory map;
* shutdown drains: a request executing and one waiting behind it when
  ``shutdown`` arrives both complete with their real answers.

Executions are held with :class:`~daemon_harness.ExecutionGate` (or a
test's own wrapper of ``execute_query``), so requests overlap
deterministically, not by timing.
"""

from __future__ import annotations

import itertools
import json
import socket
import sys
import threading
import time

import numpy as np
import pytest
from daemon_harness import DaemonHarness, ExecutionGate

import repro.service.daemon as daemon_module
from repro.core import TimeSeries, save_collection, spawn
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import SimilaritySession
from repro.service import ServiceCatalog, ServiceError
from repro.service.catalog import ShardEntry
from repro.service.client import ServiceResult
from repro.service.cluster import ClusterCoordinator, RemoteSession
from repro.service.cli import query_main
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
    live = DaemonHarness(catalog_path)
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
        """An older daemon's payload may still carry ``backend``,
        ``bound_dtype`` and ``explanation``; parsing drops them and keeps
        everything else."""
        with harness.client() as client:
            answer = client.query("knn", "pdf", {"k": 3}, technique="dust")
        assert "explanation" not in answer.stats
        legacy = dict(
            answer.stats,
            backend="numpy",
            bound_dtype="float32",
            explanation={"mode": "auto", "chosen_stages": ["refine"]},
        )
        parsed = stats_from_payload(legacy)
        assert parsed == stats_from_payload(answer.stats)
        assert parsed.n_queries == N_SERIES


def _single_collection_daemon(collections, path, name="pdf", **kwargs):
    catalog_path = str(path / "catalog.db")
    with ServiceCatalog(catalog_path) as catalog:
        catalog.register(name, collections[name])
    return DaemonHarness(catalog_path, **kwargs)


class TestGatedRequests:
    def test_malformed_epsilon_is_rejected_alone(
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """A bad ε fails only its own request, at validation, while a
        valid same-technique request is held in flight beside a running
        one."""
        live = _single_collection_daemon(collections, tmp_path)
        gate = ExecutionGate(monkeypatch)

        def range_request(request_id, row, epsilon) -> bytes:
            return json.dumps(
                {
                    "v": PROTOCOL_VERSION,
                    "id": request_id,
                    "op": "range",
                    "collection": "pdf",
                    "params": {"epsilon": epsilon},
                    "technique": "euclidean",
                    "queries": {"indices": [row]},
                }
            ).encode() + b"\n"

        address = ("127.0.0.1", live.port)
        try:
            with socket.create_connection(
                address, timeout=30.0
            ) as held, socket.create_connection(
                address, timeout=30.0
            ) as valid, socket.create_connection(
                address, timeout=30.0
            ) as bad:
                held.sendall(range_request("held", 0, 4.0))
                gate.wait_entered()
                valid.sendall(range_request("valid", 1, 4.0))
                gate.wait_queued(live, 1)
                bad.sendall(range_request("bad", 2, [1.0, 2.0]))
                # Rejected before executing, while the gate is still shut.
                rejected = json.loads(bad.makefile("rb").readline())
                assert live.queued() == 1
                gate.release()
                answer = json.loads(valid.makefile("rb").readline())
                assert json.loads(held.makefile("rb").readline())["ok"]
            assert rejected["ok"] is False
            assert rejected["error"]["type"] == "ProtocolError"
            assert "params.epsilon" in rejected["error"]["message"]
            assert answer["ok"] is True
            with SimilaritySession(pdf) as session:
                expected = (
                    session.queries([1])
                    .using(build_technique("euclidean"))
                    .range(4.0)
                )
            assert answer["result"]["matches"] == [
                [int(i) for i in found] for found in expected.matches
            ]
        finally:
            gate.release()
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

    @pytest.mark.parametrize(
        "collection,queries,candidates,eligible,row_length",
        [
            pytest.param(
                "pdf", {"indices": [0, 1]}, None, N_SERIES - 1,
                N_SERIES - 1, id="whole",
            ),
            pytest.param(
                "pdf", {"indices": [0, 1]}, {"start": 0, "stop": 6},
                N_SERIES - 1, 5, id="slice",
            ),
            pytest.param(
                "exact", {"values": [[0.0] * LENGTH]}, None, N_SERIES,
                N_SERIES, id="raw-values",
            ),
        ],
    )
    def test_knn_k_bounded_by_eligible_candidates(
        self, harness, collection, queries, candidates, eligible, row_length
    ):
        """``k`` is checked against the whole collection before anything
        executes — ``N - 1`` for member rows, ``N`` for raw-value rows —
        for a column slice too, however narrow (its reply is then its
        ragged share)."""
        request = {
            "v": PROTOCOL_VERSION,
            "id": "deep",
            "op": "knn",
            "collection": collection,
            "technique": "euclidean",
            "queries": queries,
        }
        if candidates is not None:
            request["candidates"] = candidates
        for k in (eligible + 1, eligible):
            request["params"] = {"k": k}
            response = _raw_exchange(
                harness, json.dumps(request).encode() + b"\n"
            )
            if k > eligible:
                assert response["ok"] is False
                assert response["error"]["type"] == "InvalidParameterError"
                assert (
                    f"eligible candidates ({eligible})"
                    in response["error"]["message"]
                )
            else:
                assert response["ok"] is True
                assert {
                    len(row) for row in response["result"]["indices"]
                } == {row_length}

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
        "policy",
        [
            {"precision": "float64"},
            {"backend": "numpy"},
            {"use_index": False},
            {"pilot_floor_cells": 1},
            {"cost_cache": False},
        ],
    )
    def test_unknown_policy_fields(self, harness, policy):
        response = self._knn_with_policy(harness, policy)
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert "unknown policy fields" in response["error"]["message"]
        assert next(iter(policy)) in response["error"]["message"]

    def test_retired_policy_mode(self, harness):
        response = self._knn_with_policy(harness, {"mode": "never_index"})
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert "never_index" in response["error"]["message"]

    @staticmethod
    def _knn_with_policy(harness, policy):
        request = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "id": "x",
                "op": "knn",
                "collection": "pdf",
                "params": {"k": 3, "policy": policy},
            }
        ).encode() + b"\n"
        return _raw_exchange(harness, request)

    @pytest.mark.parametrize(
        "field,overrides",
        [
            pytest.param("timeout", {"timeout": "soon"}, id="timeout-str"),
            pytest.param("timeout", {"timeout": [1]}, id="timeout-list"),
            pytest.param(
                "timeout", {"timeout": float("nan")}, id="timeout-nan"
            ),
            pytest.param(
                "timeout", {"timeout": float("inf")}, id="timeout-inf"
            ),
            pytest.param("timeout", {"timeout": True}, id="timeout-bool"),
            pytest.param("timeout", {"timeout": 10**400}, id="timeout-huge"),
            pytest.param(
                "candidates.start",
                {"candidates": {"start": 1.7, "stop": 6}},
                id="start-fraction",
            ),
            pytest.param(
                "candidates.start",
                {"candidates": {"start": True, "stop": 6}},
                id="start-bool",
            ),
            pytest.param(
                "candidates.stop",
                {"candidates": {"start": 0, "stop": "2"}},
                id="stop-str",
            ),
            pytest.param("params.k", {"params": {"k": True}}, id="k-bool"),
            pytest.param(
                "params.tau",
                {
                    "op": "prob_range",
                    "technique": "proud",
                    "params": {"epsilon": 4.0, "tau": True},
                },
                id="tau-bool",
            ),
            pytest.param(
                "params.epsilon",
                {"op": "range", "params": {"epsilon": "4.0"}},
                id="epsilon-str",
            ),
            pytest.param(
                "params.epsilon",
                {"op": "range", "params": {"epsilon": float("nan")}},
                id="epsilon-nan",
            ),
            pytest.param(
                "params.epsilon",
                {"op": "range", "params": {"epsilon": -1.0}},
                id="epsilon-negative",
            ),
            pytest.param(
                "params.epsilon",
                {"op": "range", "params": {"epsilon": [1.0, 2.0]}},
                id="epsilon-shape",
            ),
            pytest.param(
                "queries.indices",
                {"queries": {"indices": [1.5]}},
                id="index-fraction",
            ),
            pytest.param(
                "queries.indices",
                {"queries": {"indices": [True]}},
                id="index-bool",
            ),
            pytest.param(
                "queries.indices",
                {"queries": {"indices": ["1"]}},
                id="index-str",
            ),
            pytest.param(
                "queries.values",
                {
                    "collection": "exact",
                    "queries": {
                        "values": [[0.0] * LENGTH, [0.0] * (LENGTH - 1)]
                    },
                },
                id="values-ragged",
            ),
            pytest.param(
                "queries.values",
                {"collection": "exact", "queries": {"values": "abc"}},
                id="values-str",
            ),
            pytest.param(
                "queries.values",
                {"collection": "exact", "queries": {"values": [[True] * LENGTH]}},
                id="values-bool-row",
            ),
            pytest.param(
                "queries.values",
                {"collection": "exact", "queries": {"values": [["0"] * LENGTH]}},
                id="values-str-row",
            ),
            pytest.param(
                "queries.values",
                {
                    "collection": "exact",
                    "queries": {"values": [[0.0] * (LENGTH - 1)]},
                },
                id="values-row-short",
            ),
            pytest.param(
                "queries.values",
                {
                    "collection": "exact",
                    "queries": {"values": [0.0] * (LENGTH - 1)},
                },
                id="values-flat-row-short",
            ),
        ],
    )
    def test_wire_fields_are_validated_not_coerced(
        self, harness, field, overrides
    ):
        """Each field must be a finite JSON number of the right kind —
        and each value row as long as the collection's series; anything
        else is a ``ProtocolError`` naming the field."""
        request = {
            "v": PROTOCOL_VERSION,
            "id": "x",
            "op": "knn",
            "collection": "pdf",
            "technique": "euclidean",
            "params": {"k": 3},
            "queries": {"indices": [0]},
            **overrides,
        }
        response = _raw_exchange(
            harness, json.dumps(request).encode() + b"\n"
        )
        assert response["ok"] is False
        assert response["error"]["type"] == "ProtocolError"
        assert field in response["error"]["message"]
        with harness.client() as client:
            assert client.ping()

    def test_errors_do_not_kill_the_daemon(self, harness):
        with harness.client() as client:
            with pytest.raises(ServiceError):
                client.query("knn", "ghost", {"k": 3})
            assert client.ping()


PROUD = {"name": "proud", "params": {"assumed_std": 0.4}}


class TestOpTechniqueKind:
    """An op must suit its technique's kind (``knn`` and ``range``:
    distance; ``prob_range``: probabilistic).  The daemon checks it on
    its event loop, so a wrong pairing never reaches the pool."""

    @pytest.mark.parametrize(
        "op,params,spec,message",
        [
            ("range", {"epsilon": 4.0}, PROUD, "range() requires"),
            ("range", {"epsilon": 4.0}, "munich", "range() requires"),
            (
                "prob_range",
                {"epsilon": 4.0, "tau": 0.5},
                "euclidean",
                "prob_range() requires",
            ),
            ("knn", {"k": 3}, PROUD, "top-k requires"),
        ],
        ids=["range-proud", "range-munich", "prob_range-euclidean",
             "knn-proud"],
    )
    def test_wrong_pairing_is_rejected_before_execution(
        self, harness, pdf, monkeypatch, op, params, spec, message
    ):
        executed = []
        original = daemon_module.execute_query

        def execute(*args, **kwargs):
            executed.append(args[2])
            return original(*args, **kwargs)

        monkeypatch.setattr(daemon_module, "execute_query", execute)
        with harness.client(timeout=30.0) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.query(op, "pdf", params, spec, [0, 1])
            assert executed == []
            answer = client.query("knn", "pdf", {"k": 3}, "euclidean", [1])
        assert excinfo.value.error_type == "UnsupportedQueryError"
        assert message in str(excinfo.value)
        assert executed == ["knn"]
        expected = _serial(pdf, "euclidean", lambda q: q.knn(3))
        assert answer.indices == [expected.indices[1].tolist()]


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
        live = DaemonHarness(catalog_path)
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

    def test_client_gone_mid_request_leaves_others_served(
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """One of two requests waiting behind a running one hangs up
        before its reply; the other still gets the in-process answer and
        the daemon keeps serving."""
        live = _single_collection_daemon(collections, tmp_path)
        gate = ExecutionGate(monkeypatch)
        try:
            def knn_request(row: int) -> bytes:
                return json.dumps(
                    {
                        "v": PROTOCOL_VERSION,
                        "id": f"row{row}",
                        "op": "knn",
                        "collection": "pdf",
                        "params": {"k": 3},
                        "technique": "dust",
                        "queries": {"indices": [row]},
                    }
                ).encode() + b"\n"

            address = ("127.0.0.1", live.port)
            with socket.create_connection(address, timeout=30.0) as held:
                held.sendall(knn_request(2))
                gate.wait_entered()
                with socket.create_connection(address, timeout=30.0) as stays:
                    with socket.create_connection(
                        address, timeout=30.0
                    ) as gone:
                        gone.sendall(knn_request(0))
                        stays.sendall(knn_request(1))
                        gate.wait_queued(live, 2)
                    # ``gone`` is closed while its request waits behind
                    # the held one, so its reply goes to a dead socket.
                    gate.release()
                    response = json.loads(stays.makefile("rb").readline())
                assert json.loads(held.makefile("rb").readline())["ok"]
            assert response["ok"] is True
            with SimilaritySession(pdf) as session:
                expected = (
                    session.queries([1]).using(build_technique("dust")).knn(3)
                )
            assert response["result"]["indices"] == expected.indices.tolist()
            with live.client() as client:
                assert client.ping()
        finally:
            gate.release()
            live.stop()


class TestConcurrentServing:
    def test_many_clients_mixing_techniques_match_in_process(
        self, pdf, harness
    ):
        """More client threads than cores, each mixing verbs of one spec
        (Euclidean kNN and range) with another spec (DUST kNN), under a
        short switch interval: every answer is still the in-process
        one."""
        plans = [
            ("knn", {"k": 3}, "euclidean"),
            ("range", {"epsilon": 4.0}, "euclidean"),
            ("knn", {"k": 3}, "dust"),
        ]
        expected = {}
        with SimilaritySession(pdf) as session:
            for op, params, spec in plans:
                queries = session.queries().using(build_technique(spec))
                if op == "knn":
                    expected[op, spec] = queries.knn(3).indices.tolist()
                else:
                    expected[op, spec] = [
                        [int(i) for i in found]
                        for found in queries.range(4.0).matches
                    ]
        answers: list = []
        errors: list = []

        def client_loop(slot: int) -> None:
            try:
                with harness.client(timeout=120.0) as client:
                    for step in range(6):
                        op, params, spec = plans[(slot + step) % len(plans)]
                        row = (slot + step) % N_SERIES
                        answer = client.query(op, "pdf", params, spec, [row])
                        rows = answer.indices if op == "knn" else answer.matches
                        answers.append((op, spec, row, rows[0]))
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=client_loop, args=(slot,))
                for slot in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(answers) == 8 * 6
        for op, spec, row, found in answers:
            assert found == expected[op, spec][row]


class TestSameSpecConcurrency:
    """Nothing serializes requests of one technique spec: each request
    builds its own technique, and the engine they share is safe to use
    from every pool thread."""

    def test_same_spec_request_answers_while_another_is_held(
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """Two pool threads: a Euclidean kNN answers while another
        Euclidean kNN on the same collection is held mid-execution."""
        live = _single_collection_daemon(collections, tmp_path, pool_size=2)
        held = threading.Event()
        release = threading.Event()
        original = daemon_module.execute_query

        def execute(session, technique, op, items, positions, *args, **kwargs):
            if positions.tolist() == [0]:
                held.set()
                release.wait(timeout=60.0)
            return original(
                session, technique, op, items, positions, *args, **kwargs
            )

        monkeypatch.setattr(daemon_module, "execute_query", execute)
        request = {
            "v": PROTOCOL_VERSION,
            "id": "held",
            "op": "knn",
            "collection": "pdf",
            "params": {"k": 3},
            "technique": "euclidean",
            "queries": {"indices": [0]},
        }
        expected = _serial(pdf, "euclidean", lambda q: q.knn(3))
        try:
            with socket.create_connection(
                ("127.0.0.1", live.port), timeout=60.0
            ) as held_socket:
                held_socket.sendall(json.dumps(request).encode() + b"\n")
                assert held.wait(timeout=30.0), "nothing executed"
                with live.client(timeout=20.0) as client:
                    answer = client.query(
                        "knn", "pdf", {"k": 3}, "euclidean", [1]
                    )
                assert not release.is_set()
                assert answer.indices == [expected.indices[1].tolist()]
                release.set()
                reply = json.loads(held_socket.makefile("rb").readline())
            assert reply["ok"] is True
            assert reply["result"]["indices"] == [
                expected.indices[0].tolist()
            ]
        finally:
            release.set()
            live.stop()

    def test_same_spec_requests_on_two_pool_threads_match_serial(
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """Four clients send same-spec requests to a two-thread pool; the
        first two executions are made to overlap, and every answer
        equals a serial in-process run."""
        live = _single_collection_daemon(collections, tmp_path, pool_size=2)
        overlap = threading.Barrier(2, timeout=30.0)
        calls = itertools.count()
        threads_seen: set = set()
        original = daemon_module.execute_query

        def execute(*args, **kwargs):
            threads_seen.add(threading.current_thread().name)
            if next(calls) < 2:
                overlap.wait()
            return original(*args, **kwargs)

        monkeypatch.setattr(daemon_module, "execute_query", execute)
        uma = {"name": "uma", "params": {"window": 2}}
        plans = [
            ("knn", {"k": 3}, "euclidean"),
            ("range", {"epsilon": 4.0}, "euclidean"),
            ("knn", {"k": 3}, uma),
        ]
        expected = {}
        for index, (op, params, spec) in enumerate(plans):
            if op == "knn":
                answer = _serial(pdf, spec, lambda q: q.knn(3))
                expected[index] = answer.indices.tolist()
            else:
                answer = _serial(pdf, spec, lambda q: q.range(4.0))
                expected[index] = [
                    [int(i) for i in found] for found in answer.matches
                ]
        answers: list = []
        errors: list = []

        def client_loop(slot: int) -> None:
            try:
                with live.client(timeout=60.0) as client:
                    for step in range(6):
                        # Every client opens with the same Euclidean kNN,
                        # so the two overlapping executions share a spec.
                        index = 0 if step == 0 else (slot + step) % len(plans)
                        op, params, spec = plans[index]
                        row = (slot * 5 + step) % N_SERIES
                        answer = client.query(op, "pdf", params, spec, [row])
                        rows = answer.indices if op == "knn" else answer.matches
                        answers.append((index, row, rows[0]))
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [
                threading.Thread(target=client_loop, args=(slot,))
                for slot in range(4)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=120.0)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(interval)
            live.stop()
        assert errors == []
        assert len(threads_seen) == 2
        assert len(answers) == 4 * 6
        for index, row, found in answers:
            assert found == expected[index][row]


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


    def test_client_reconnects_after_read_timeout(
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """A read that timed out closes the client's connection: the late
        reply is never read as the next request's answer, and the next
        request reconnects and gets its own."""
        live = _single_collection_daemon(collections, tmp_path)
        gate = ExecutionGate(monkeypatch)
        try:
            with live.client(timeout=0.5) as client:
                with pytest.raises(OSError):
                    client.query("knn", "pdf", {"k": 3}, "dust", [1])
                gate.release()
                answer = client.query("knn", "pdf", {"k": 3}, "dust", [2])
            with SimilaritySession(pdf) as session:
                expected = (
                    session.queries([2]).using(build_technique("dust")).knn(3)
                )
            assert answer.indices == expected.indices.tolist()
        finally:
            gate.release()
            live.stop()


class TestControlOps:
    def test_status(self, harness):
        with harness.client() as client:
            status = client.status()
        assert status["protocol"] == PROTOCOL_VERSION
        assert set(status["collections"]) == {"pdf", "ms", "exact"}
        assert set(status["warm"]) == {"pdf", "ms", "exact"}  # preloaded
        assert status["uptime_seconds"] >= 0.0
        assert {
            (entry["collection"], entry["start"], entry["stop"])
            for entry in status["sessions"]
        } >= {("pdf", 0, N_SERIES), ("ms", 0, N_SERIES), ("exact", 0, N_SERIES)}

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
        """The ``cli query`` surface prints one line per query row."""
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
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """One request executes and one waits behind it when
        ``shutdown`` arrives: the drain must answer both, however long
        the execution outlasts the daemon's closing of its listener."""
        live = _single_collection_daemon(collections, tmp_path)
        gate = ExecutionGate(monkeypatch)
        answers: dict = {}

        def query(slot, indices) -> None:
            with live.client(timeout=120.0) as client:
                answers[slot] = client.query(
                    "knn", "pdf", {"k": 3}, "dust", indices
                )

        workers = [
            threading.Thread(target=query, args=("running", None)),
            threading.Thread(target=query, args=("queued", [3, 7])),
        ]
        try:
            workers[0].start()
            gate.wait_entered()
            workers[1].start()
            gate.wait_queued(live, 1)
            with live.client() as control:
                assert control.shutdown()
            deadline = time.monotonic() + 30.0
            while live.daemon._server is not None:
                assert time.monotonic() < deadline, "listener never closed"
                time.sleep(0.01)
            # Hold past the daemon's 1 s grace for flushing replies: only
            # the drain keeps both connections open that long.
            time.sleep(1.5)
            gate.release()
            for worker in workers:
                worker.join(timeout=60.0)
                assert not worker.is_alive()
            live.thread.join(timeout=60.0)
            assert not live.thread.is_alive()
            assert all(
                isinstance(answers.get(slot), ServiceResult)
                for slot in ("running", "queued")
            )
            expected = _serial(pdf, "dust", lambda q: q.knn(3))
            assert answers["running"].indices == expected.indices.tolist()
            assert answers["queued"].indices == [
                expected.indices[3].tolist(),
                expected.indices[7].tolist(),
            ]
        finally:
            gate.release()
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


class TestSessionTable:
    def test_preloaded_daemon_opens_each_collection_once(
        self, pdf, collections, tmp_path, monkeypatch
    ):
        """Preload plus a 2-shard query whose two first-seen slices race
        on the pool: one open of the collection serves all three
        sessions."""
        opened = []
        original = ServiceCatalog.open_collection

        def counting(catalog, name, *args, **kwargs):
            opened.append(name)
            return original(catalog, name, *args, **kwargs)

        monkeypatch.setattr(ServiceCatalog, "open_collection", counting)
        live = _single_collection_daemon(collections, tmp_path)
        half = N_SERIES // 2
        shards = (
            ShardEntry(0, "127.0.0.1", live.port, 0, half),
            ShardEntry(1, "127.0.0.1", live.port, half, N_SERIES),
        )
        try:
            with RemoteSession(
                ClusterCoordinator({"pdf": shards}), "pdf", N_SERIES
            ) as session:
                merged = session.queries().using(build_technique("dust")).knn(3)
            with live.client() as client:
                status = client.status()
        finally:
            live.stop()
        assert opened == ["pdf"]
        assert [
            (entry["start"], entry["stop"]) for entry in status["sessions"]
        ] == [(0, half), (0, N_SERIES), (half, N_SERIES)]
        expected = _serial(pdf, "dust", lambda q: q.knn(3))
        np.testing.assert_array_equal(merged.indices, expected.indices)

    def test_a_served_slice_makes_its_collection_warm(
        self, collections, tmp_path
    ):
        catalog_path = str(tmp_path / "catalog.db")
        with ServiceCatalog(catalog_path) as catalog:
            catalog.register("pdf", collections["pdf"])
        live = DaemonHarness(catalog_path, preload=False)
        try:
            with live.client() as client:
                response = _raw_exchange(
                    live,
                    json.dumps(
                        {
                            "v": PROTOCOL_VERSION,
                            "id": "slice",
                            "op": "knn",
                            "collection": "pdf",
                            "params": {"k": 2},
                            "queries": {"indices": [0]},
                            "candidates": {"start": 0, "stop": 6},
                        }
                    ).encode()
                    + b"\n",
                )
                assert response["ok"] is True
                status = client.status()
                (entry,) = client.list_collections()
        finally:
            live.stop()
        assert status["warm"] == ["pdf"]
        assert status["sessions"] == [
            {"collection": "pdf", "start": 0, "stop": 6}
        ]
        assert entry["warm"] is True
