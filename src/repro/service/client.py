"""Blocking client for the similarity daemon.

One TCP connection, one request at a time, structured results::

    from repro.service import ServiceClient

    with ServiceClient("127.0.0.1", 7791) as client:
        client.ping()
        client.register("trades", "/data/trades_collection")

        hits = client.query("knn", "trades", {"k": 10},
                            technique="dust", indices=[0, 1, 2])
        hits.indices      # (3, 10) ranked neighbor lists
        hits.scores       # matching distances
        hits.batch        # {"size": ..., "n_queries": ..., "waited_ms": ...}
        hits.stats        # the plan's pruning statistics, if recorded

        prq = client.query("prob_range", "sensors",
                           {"epsilon": 4.0, "tau": 0.4},
                           technique={"name": "proud",
                                      "params": {"assumed_std": 0.7}})
        prq.matches       # per-query match index lists

Most callers want the fluent surface instead —
``repro.api.connect("tcp://host:port/name").queries().using(t).knn(k)`` —
which returns the same result types as an in-process session;
:meth:`ServiceClient.query` is the raw wire verb underneath it.

Server-side errors raise :class:`ServiceError` carrying the structured
``error.type`` — the daemon never ships tracebacks.
"""

from __future__ import annotations

import itertools
import socket
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

from ..core.errors import ReproError
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
)


class ServiceError(ReproError):
    """A structured error response from the daemon."""

    def __init__(self, error_type: str, message: str) -> None:
        super().__init__(f"[{error_type}] {message}")
        self.error_type = error_type


@dataclass(frozen=True)
class ServiceResult:
    """One query response: row-wise payload + service-side metadata."""

    op: str
    result: Dict[str, Any]
    stats: Optional[Dict[str, Any]] = None
    batch: Optional[Dict[str, Any]] = None
    elapsed_ms: Optional[float] = None

    @property
    def indices(self) -> List[List[int]]:
        """kNN neighbor table rows (kNN responses)."""
        return self.result["indices"]

    @property
    def scores(self) -> List[List[float]]:
        """kNN neighbor distances (kNN responses)."""
        return self.result["scores"]

    @property
    def matches(self) -> List[List[int]]:
        """Per-query match sets (range / prob-range responses)."""
        return self.result["matches"]

    def __repr__(self) -> str:
        batch = (
            f", batch={self.batch['size']}" if self.batch else ""
        )
        return f"ServiceResult(op={self.op!r}{batch})"


@dataclass
class ServiceClient:
    """A blocking newline-JSON client for one daemon endpoint."""

    host: str = "127.0.0.1"
    port: int = 7791
    timeout: Optional[float] = 60.0
    _sock: Optional[socket.socket] = field(default=None, repr=False)
    _reader: Any = field(default=None, repr=False)
    _ids: Any = field(default=None, repr=False)

    def connect(self) -> "ServiceClient":
        """Open the connection (lazy — every request path calls this)."""
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=self.timeout
            )
            self._reader = self._sock.makefile("rb")
            self._ids = itertools.count()
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._reader is not None:
            self._reader.close()
            self._reader = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        self.connect()
        request_id = f"c{next(self._ids)}"
        payload = {"v": PROTOCOL_VERSION, "id": request_id, **payload}
        assert self._sock is not None
        self._sock.sendall(encode_message(payload))
        line = self._reader.readline()
        if not line:
            self.close()
            raise ServiceError(
                "ConnectionClosed",
                f"daemon at {self.host}:{self.port} closed the connection",
            )
        response = decode_message(line)
        if response.get("v") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server answered protocol v{response.get('v')!r}, "
                f"client speaks v{PROTOCOL_VERSION}"
            )
        if response.get("id") not in (request_id, None):
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}"
            )
        if not response.get("ok"):
            error = response.get("error") or {}
            raise ServiceError(
                error.get("type", "UnknownError"),
                error.get("message", "daemon reported an error"),
            )
        return response

    # -- query op ---------------------------------------------------------

    def query(
        self,
        op: str,
        collection: str,
        params: Dict[str, Any],
        technique: Union[str, Dict[str, Any], None] = None,
        indices: Optional[Sequence[int]] = None,
        values: Optional[Sequence[Sequence[float]]] = None,
        timeout: Optional[float] = None,
    ) -> ServiceResult:
        """One ``knn`` / ``range`` / ``prob_range`` request.

        ``params`` is the op's wire parameters (``{"k": 10}``,
        ``{"epsilon": 4.0}``, ``{"epsilon": 4.0, "tau": 0.4}``, plus an
        optional ``"policy"``).  Queries default to *every* collection
        series (the paper's full protocol); pass ``indices`` for a subset
        or ``values`` for raw query rows against an exact-kind collection.
        """
        if indices is not None and values is not None:
            raise ProtocolError(
                "pass query 'indices' or raw 'values', not both"
            )
        payload: Dict[str, Any] = {
            "op": op,
            "collection": collection,
            "params": params,
        }
        if technique is not None:
            payload["technique"] = technique
        if indices is not None:
            payload["queries"] = {"indices": [int(i) for i in indices]}
        elif values is not None:
            payload["queries"] = {
                "values": [[float(v) for v in row] for row in values]
            }
        if timeout is not None:
            payload["timeout"] = float(timeout)
        response = self._request(payload)
        return ServiceResult(
            op=op,
            result=response.get("result", {}),
            stats=response.get("stats"),
            batch=response.get("batch"),
            elapsed_ms=response.get("elapsed_ms"),
        )

    # -- control ops --------------------------------------------------------

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._request({"op": "ping"})["result"]["pong"])

    def status(self) -> Dict[str, Any]:
        """Daemon status: collections, warm sessions, batching knobs."""
        return self._request({"op": "status"})["result"]

    def list_collections(self) -> List[Dict[str, Any]]:
        """Catalog entries with warm/indexed flags."""
        return self._request({"op": "list"})["result"]["collections"]

    def register(
        self, name: str, path: str, replace: bool = False
    ) -> Dict[str, Any]:
        """Register a saved collection on the daemon's catalog and warm it."""
        return self._request(
            {
                "op": "register",
                "params": {"name": name, "path": path, "replace": replace},
            }
        )["result"]

    def shutdown(self) -> bool:
        """Ask the daemon to drain and exit."""
        return bool(
            self._request({"op": "shutdown"})["result"]["stopping"]
        )


def _epsilon_param(epsilon: Union[float, Sequence[float]]):
    """ε as a JSON-safe scalar or flat list."""
    if hasattr(epsilon, "__len__"):
        return [float(value) for value in epsilon]
    return float(epsilon)
