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
        hits.stats        # the plan's pruning statistics, if recorded
        hits.elapsed_ms   # the daemon's execution time

        prq = client.query("prob_range", "sensors",
                           {"epsilon": 4.0, "tau": 0.4},
                           technique={"name": "proud",
                                      "params": {"assumed_std": 0.7}})
        prq.matches       # per-query match index lists

Most callers want the fluent surface instead —
``repro.api.connect("tcp://host:port/name").queries().using(t).knn(k)`` —
which returns the same result types as an in-process session.  It runs
through the cluster coordinator over a one-shard map, not through this
client; :meth:`ServiceClient.query` is the raw wire verb for scripts and
the ``query`` CLI.  Both send through this module's one connection
class.

Server-side errors raise :class:`ServiceError` carrying the structured
``error.type`` — the daemon never ships tracebacks.  Transport failures
raise ``OSError`` (a closed connection as :class:`ConnectionError`) and
close the client's connection, so the next request reconnects.
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


def checked_response(
    response: Dict[str, Any], request_id: str
) -> Dict[str, Any]:
    """``response`` if it is a success reply to ``request_id``.

    A reply in another protocol version or for another request id is a
    :class:`ProtocolError`; an ``ok: false`` reply raises the daemon's
    structured error as :class:`ServiceError` with its ``error_type``.
    """
    if response.get("v") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"peer answered protocol v{response.get('v')!r}, this end "
            f"speaks v{PROTOCOL_VERSION}"
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


@dataclass(frozen=True)
class ServiceResult:
    """One query response: row-wise payload + service-side metadata."""

    op: str
    result: Dict[str, Any]
    stats: Optional[Dict[str, Any]] = None
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
        return f"ServiceResult(op={self.op!r}, elapsed_ms={self.elapsed_ms})"


class Channel:
    """One blocking newline-JSON connection to a daemon.

    The service layer's one socket: :class:`ServiceClient` sends through
    one, and the cluster coordinator pools them per shard endpoint.  The
    caller names every request (``c<n>`` from a client, ``x<n>.s<shard>``
    from the coordinator), so a reply says which request it answers.
    A request and its reply are two steps, so a caller may put requests
    on several channels before it reads any reply.
    """

    __slots__ = ("host", "port", "_sock", "_reader")

    def __init__(
        self, host: str, port: int, connect_timeout: Optional[float]
    ) -> None:
        self.host = host
        self.port = port
        self._sock = socket.create_connection(
            (host, port), timeout=connect_timeout
        )
        self._reader = self._sock.makefile("rb")

    def send(
        self,
        request_id: str,
        payload: Dict[str, Any],
        timeout: Optional[float],
    ) -> None:
        """Write one request line; ``timeout`` bounds the write."""
        message = {"v": PROTOCOL_VERSION, "id": request_id, **payload}
        self._sock.settimeout(timeout)
        self._sock.sendall(encode_message(message))

    def receive(
        self, request_id: str, timeout: Optional[float]
    ) -> Dict[str, Any]:
        """Read the reply to ``request_id``; ``timeout`` bounds the read.

        An ``ok: false`` reply raises the daemon's structured error as
        :class:`ServiceError`; transport failures raise ``OSError`` (EOF
        as :class:`ConnectionError`).
        """
        self._sock.settimeout(timeout)
        line = self._reader.readline()
        if not line:
            raise ConnectionError(
                f"daemon at {self.host}:{self.port} closed the connection"
            )
        return checked_response(decode_message(line), request_id)

    def request(
        self,
        request_id: str,
        payload: Dict[str, Any],
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        """One round trip: :meth:`send`, then :meth:`receive`, each
        bounded by ``timeout``."""
        self.send(request_id, payload, timeout)
        return self.receive(request_id, timeout)

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


@dataclass
class ServiceClient:
    """A blocking newline-JSON client for one daemon endpoint."""

    host: str = "127.0.0.1"
    port: int = 7791
    timeout: Optional[float] = 60.0
    _channel: Optional[Channel] = field(default=None, repr=False)
    _ids: Any = field(default_factory=itertools.count, repr=False)

    def connect(self) -> "ServiceClient":
        """Open the connection (lazy — every request path calls this)."""
        if self._channel is None:
            self._channel = Channel(self.host, self.port, self.timeout)
        return self

    def close(self) -> None:
        """Close the connection (idempotent)."""
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def __enter__(self) -> "ServiceClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- transport ---------------------------------------------------------

    def _request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """One round trip.  A transport failure (timeout, ``OSError``,
        EOF) closes the connection, so the next request reconnects and
        a late reply is never read as its answer."""
        channel = self.connect()._channel
        request_id = f"c{next(self._ids)}"
        try:
            return channel.request(request_id, payload, self.timeout)
        except OSError:
            self.close()
            raise

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
            elapsed_ms=response.get("elapsed_ms"),
        )

    # -- control ops --------------------------------------------------------

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return bool(self._request({"op": "ping"})["result"]["pong"])

    def status(self) -> Dict[str, Any]:
        """Daemon status: collections, warm sessions, uptime, load."""
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
