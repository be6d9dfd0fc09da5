"""Versioned JSON wire protocol of the similarity service.

One request or response per line (newline-delimited UTF-8 JSON).  Every
message carries the protocol version ``v`` and the client-chosen request
``id``; the daemon echoes the id so a client can multiplex.  Errors are
structured — ``{"type": ..., "message": ...}`` — never raw tracebacks.

Request::

    {"v": 1, "id": "q-0", "op": "knn",
     "collection": "trades",
     "technique": {"name": "dust", "params": {}},
     "params": {"k": 10},
     "queries": {"indices": [0, 1, 2]},        # omit for all series
     "candidates": {"start": 0, "stop": 5000}, # optional column slice
     "timeout": 30.0}                           # optional, seconds

Ops: ``ping`` / ``status`` / ``list`` / ``register`` / ``knn`` /
``range`` / ``prob_range`` / ``shutdown``.

``candidates`` scopes the query to a contiguous column slice of the
collection — the scatter unit of a :class:`~repro.service.cluster.
ClusterCoordinator`.  Replies stay in **global** collection indices; a
sliced kNN reply may be ragged (a narrow shard returns fewer than ``k``
real candidates per row — padding never crosses the wire because the
encoder forbids non-finite JSON).

Response::

    {"v": 1, "id": "q-0", "ok": true,
     "result": {"indices": [[...]], "scores": [[...]]},
     "stats": {...},                            # PruningStats, optional
     "elapsed_ms": 12.4}

    {"v": 1, "id": "q-0", "ok": false,
     "error": {"type": "UnknownCollection", "message": "..."}}

The technique registry lives in :mod:`repro.service.registry` (one
canonical table of servable families); a request's technique spec is
normalized there.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from ..queries.planner import PruningStats, StageStats
from .registry import ProtocolError, normalize_technique_spec

#: Bump on incompatible wire-format changes; both ends must match.
PROTOCOL_VERSION = 1

#: Longest accepted request line (64 MiB): bounds a malicious or
#: corrupted client's memory footprint without constraining real
#: workloads (10⁴ raw queries of length 1024 fit comfortably).
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Query operations (each one planner execution through a session).
QUERY_OPS = ("knn", "range", "prob_range")
#: Control operations (answered on the event loop).
CONTROL_OPS = ("ping", "status", "list", "register", "shutdown")


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


def encode_message(payload: Dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return (
        json.dumps(payload, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a mapping, or raise :class:`ProtocolError`."""
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"malformed JSON line: {error}") from error
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"a message must be a JSON object, got {type(payload).__name__}"
        )
    return payload


@dataclass(frozen=True)
class Request:
    """A validated query/control request."""

    request_id: str
    op: str
    collection: Optional[str] = None
    technique: Dict[str, Any] = field(default_factory=dict)
    params: Dict[str, Any] = field(default_factory=dict)
    queries: Optional[Dict[str, Any]] = None
    timeout: Optional[float] = None
    #: Optional ``(start, stop)`` candidate column slice (cluster shard).
    candidates: Optional[Tuple[int, int]] = None


def wire_number(value: Any, name: str, integer: bool = False) -> Any:
    """``value`` if it is a finite JSON number, else :class:`ProtocolError`.

    Nothing is coerced: ``true``/``false``, strings, lists, the
    ``NaN``/``Infinity`` literals Python's parser accepts and integers
    too large for a float are all rejected, and ``integer=True`` also
    rejects fractional numbers.  The error names the field.
    """
    kinds = int if integer else (int, float)
    if (
        isinstance(value, bool)
        or not isinstance(value, kinds)
        or not (integer or abs(value) <= sys.float_info.max)
    ):
        kind = "an integer" if integer else "a finite number"
        raise ProtocolError(f"{name} must be {kind}, got {value!r}")
    return value


def _parse_candidates(payload: Any) -> Tuple[int, int]:
    """Validate a request's ``candidates`` column slice."""
    if not isinstance(payload, dict) or set(payload) - {"start", "stop"}:
        raise ProtocolError(
            f"'candidates' must be {{'start', 'stop'}}, got {payload!r}"
        )
    start = wire_number(payload.get("start"), "candidates.start", integer=True)
    stop = wire_number(payload.get("stop"), "candidates.stop", integer=True)
    if start < 0 or stop <= start:
        raise ProtocolError(
            f"'candidates' needs 0 <= start < stop, got [{start}, {stop})"
        )
    return start, stop


def parse_request(payload: Dict[str, Any]) -> Request:
    """Validate a decoded request payload.

    Checks version and op up front and normalizes the technique spec;
    op-specific parameter validation (``k`` / ``epsilon`` / ``tau``)
    stays with the daemon, which owns the collection context.
    """
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: server speaks "
            f"v{PROTOCOL_VERSION}, request carries {version!r}"
        )
    request_id = payload.get("id")
    if not isinstance(request_id, str) or not request_id:
        raise ProtocolError("every request needs a non-empty string 'id'")
    op = payload.get("op")
    if op not in QUERY_OPS and op not in CONTROL_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; query ops: {', '.join(QUERY_OPS)}; "
            f"control ops: {', '.join(CONTROL_OPS)}"
        )
    collection = payload.get("collection")
    if op in QUERY_OPS and not isinstance(collection, str):
        raise ProtocolError(f"op {op!r} requires a 'collection' name")
    queries = payload.get("queries")
    if queries is not None:
        if not isinstance(queries, dict) or not (
            ("indices" in queries) ^ ("values" in queries)
        ):
            raise ProtocolError(
                "'queries' must be {'indices': [...]} or {'values': [...]}"
            )
    candidates = payload.get("candidates")
    if candidates is not None:
        if op not in QUERY_OPS:
            raise ProtocolError(
                f"'candidates' only applies to query ops, not {op!r}"
            )
        candidates = _parse_candidates(candidates)
    timeout = payload.get("timeout")
    if timeout is not None:
        timeout = float(wire_number(timeout, "timeout"))
        if timeout <= 0:
            raise ProtocolError(f"timeout must be > 0, got {timeout}")
    params = payload.get("params") or {}
    if not isinstance(params, dict):
        raise ProtocolError(f"'params' must be a mapping, got {params!r}")
    technique = (
        normalize_technique_spec(payload.get("technique"))
        if op in QUERY_OPS
        else {}
    )
    return Request(
        request_id=request_id,
        op=op,
        collection=collection,
        technique=technique,
        params=params,
        queries=queries,
        timeout=timeout,
        candidates=candidates,
    )


def ok_response(
    request_id: str,
    result: Dict[str, Any],
    stats: Optional[Dict[str, Any]] = None,
    elapsed_ms: Optional[float] = None,
) -> Dict[str, Any]:
    """A success payload ready for :func:`encode_message`."""
    payload: Dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": True,
        "result": result,
    }
    if stats is not None:
        payload["stats"] = stats
    if elapsed_ms is not None:
        payload["elapsed_ms"] = round(float(elapsed_ms), 3)
    return payload


def error_response(
    request_id: Optional[str], error_type: str, message: str
) -> Dict[str, Any]:
    """A structured error payload (no tracebacks cross the wire)."""
    return {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": {"type": error_type, "message": message},
    }


def stats_payload(stats: Optional[PruningStats]) -> Optional[Dict[str, Any]]:
    """Serialize a plan's :class:`PruningStats` for the response."""
    if stats is None:
        return None
    payload: Dict[str, Any] = {
        "technique": stats.technique_name,
        "kind": stats.kind,
        "n_queries": stats.n_queries,
        "n_candidates": stats.n_candidates,
        "total_cells": stats.total_cells,
        "total_seconds": stats.total_seconds,
        "stages": [
            {
                "stage": entry.stage,
                "entered": entry.entered,
                "decided": entry.decided,
                "refined": entry.refined,
                "samples_drawn": entry.samples_drawn,
                "skipped": entry.skipped,
                "seconds": entry.seconds,
            }
            for entry in stats.stages
        ],
    }
    selectivity = stats.index_selectivity
    if selectivity is not None:
        payload["index_selectivity"] = selectivity
    return payload


def stats_from_payload(
    payload: Optional[Dict[str, Any]],
) -> Optional[PruningStats]:
    """Rebuild :class:`PruningStats` from a response's ``stats`` payload.

    The inverse of :func:`stats_payload` for the fields that cross the
    wire, so remote backends hand fluent callers the same structured
    stats object the in-process path produces (and a cluster
    coordinator can merge per-shard stats with
    :meth:`PruningStats.merge_shards`).  Tolerant of missing fields —
    an older daemon's stats payload still parses.
    """
    if payload is None:
        return None
    try:
        stages = tuple(
            StageStats(
                stage=str(entry.get("stage", "?")),
                entered=int(entry.get("entered", 0)),
                decided=int(entry.get("decided", 0)),
                refined=int(entry.get("refined", 0)),
                samples_drawn=int(entry.get("samples_drawn", 0)),
                skipped=int(entry.get("skipped", 0)),
                seconds=float(entry.get("seconds", 0.0)),
            )
            for entry in payload.get("stages", ())
        )
        return PruningStats(
            technique_name=str(payload.get("technique", "?")),
            kind=str(payload.get("kind", "?")),
            n_queries=int(payload.get("n_queries", 0)),
            n_candidates=int(payload.get("n_candidates", 0)),
            stages=stages,
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(
            f"malformed stats payload: {error}"
        ) from error
