"""Distributed scatter-gather serving with one unified query surface.

A collection too large (or too hot) for one daemon is *column-sharded*:
every shard daemon maps the **same** mmap manifest and answers queries
scoped to its contiguous candidate slice (the protocol's ``candidates``
field), so re-sharding never moves data — only the shard map in the
:class:`~repro.service.catalog.ServiceCatalog` changes.

:class:`ClusterCoordinator` is the client half: it scatters each
kNN / range / prob-range request to every shard over the versioned JSON
protocol, then merges the replies with the exact global
stable-by-index rule the in-process
:class:`~repro.queries.parallel.ShardedExecutor` uses
(:func:`~repro.queries.parallel.merge_knn_rows`), so a 4-shard cluster
answers bit-identically to a single process.  Robustness:

* **hedged retries** — when a shard's reply is slower than a latency
  percentile of its own history, a duplicate request (same request id)
  is fired on a second connection; the first reply wins and the late
  one is discarded by id;
* **deadline budgets** — every shard attempt inherits the remaining
  per-request budget, so one stuck shard cannot absorb the whole
  timeout;
* **graceful degradation** — with ``allow_partial``, a dead shard
  yields a partial result *tagged* with the failed shard set
  (``result.failed_shards``) instead of an exception.

The unified surface: :func:`connect` returns a session whose fluent
``queries().using(technique).knn(k)`` chain executes against an
in-process engine, one remote daemon (:class:`RemoteBackend`), or a
shard fleet (:class:`ClusterBackend`) — returning the same
:class:`~repro.queries.session.KnnResult` /
:class:`~repro.queries.session.RangeResult` structures with merged
:class:`~repro.queries.planner.PruningStats` everywhere.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidParameterError, ReproError
from ..queries.parallel import merge_knn_rows
from ..queries.planner import PlanPolicy, PruningStats
from ..queries.session import (
    KnnResult,
    QuerySet,
    RangeResult,
    SimilarityBackend,
)
from .catalog import ServiceCatalog, ShardEntry
from .client import ServiceClient, _epsilon_param
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    stats_from_payload,
    technique_spec,
)

#: Default per-request wall-clock budget (seconds).
DEFAULT_TIMEOUT = 60.0
#: Hedge when a reply is slower than this percentile of the endpoint's
#: recent latency history (and at least HEDGE_MIN_SAMPLES completed).
DEFAULT_HEDGE_PERCENTILE = 95.0
HEDGE_MIN_SAMPLES = 8
#: Latency history window per endpoint.
LATENCY_WINDOW = 64


class ClusterError(ReproError):
    """A scatter-gather execution failed (and partials were not allowed)."""

    def __init__(
        self, message: str, failed_shards: Tuple[str, ...] = ()
    ) -> None:
        super().__init__(message)
        self.failed_shards = failed_shards


# ---------------------------------------------------------------------------
# Transport: one blocking channel per in-flight attempt
# ---------------------------------------------------------------------------


class _ShardChannel:
    """One blocking TCP connection to a shard daemon.

    Unlike :class:`ServiceClient`, request ids are supplied by the
    caller — the coordinator gives a hedge duplicate the *same* id as
    its primary attempt, so replies dedupe by id no matter which
    connection they arrive on.
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

    def request(
        self,
        request_id: str,
        payload: Dict[str, Any],
        timeout: Optional[float],
    ) -> Dict[str, Any]:
        """One request/response round trip with a hard read deadline."""
        message = {"v": PROTOCOL_VERSION, "id": request_id, **payload}
        self._sock.settimeout(timeout)
        self._sock.sendall(encode_message(message))
        line = self._reader.readline()
        if not line:
            raise ClusterError(
                f"shard {self.host}:{self.port} closed the connection"
            )
        response = decode_message(line)
        if response.get("v") != PROTOCOL_VERSION:
            raise ProtocolError(
                f"shard answered protocol v{response.get('v')!r}, "
                f"coordinator speaks v{PROTOCOL_VERSION}"
            )
        if response.get("id") not in (request_id, None):
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}"
            )
        return response

    def close(self) -> None:
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class ClusterCoordinator:
    """Scatter queries across a shard fleet; gather and merge replies.

    Parameters
    ----------
    shard_maps:
        ``{collection: ordered shard entries}`` — usually read from a
        catalog via :meth:`from_catalog`.  Each map must tile
        ``[0, n_series)`` (the catalog enforces this at install time).
    timeout:
        Per-request wall-clock budget (seconds); every shard attempt
        inherits the *remaining* budget at its send time.
    connect_timeout:
        TCP connect budget per channel.
    hedge_after:
        Fixed hedge delay in seconds.  ``None`` (default) derives the
        delay per endpoint from its own latency history —
        ``hedge_percentile`` of the last :data:`LATENCY_WINDOW`
        completions, once :data:`HEDGE_MIN_SAMPLES` are recorded.
        ``float("inf")`` disables hedging.
    allow_partial:
        When a shard fails every attempt, return the survivors' merged
        answer tagged with ``failed_shards`` instead of raising
        :class:`ClusterError`.
    """

    def __init__(
        self,
        shard_maps: Dict[str, Sequence[ShardEntry]],
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        connect_timeout: Optional[float] = 10.0,
        hedge_after: Optional[float] = None,
        hedge_percentile: float = DEFAULT_HEDGE_PERCENTILE,
        allow_partial: bool = False,
    ) -> None:
        if not shard_maps:
            raise ClusterError(
                "a cluster coordinator needs at least one sharded "
                "collection"
            )
        self._shard_maps = {
            name: tuple(entries) for name, entries in shard_maps.items()
        }
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.hedge_after = hedge_after
        self.hedge_percentile = float(hedge_percentile)
        self.allow_partial = bool(allow_partial)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._pools: Dict[Tuple[str, int], List[_ShardChannel]] = {}
        self._latencies: Dict[Tuple[str, int], deque] = {}
        self._closed = False
        #: Latency-triggered duplicate attempts fired (monotonic).
        self.hedges_fired = 0
        #: Replies that lost their race and were discarded by id.
        self.duplicates_discarded = 0

    @classmethod
    def from_catalog(
        cls, catalog: Union[ServiceCatalog, str], **kwargs
    ) -> "ClusterCoordinator":
        """A coordinator over every sharded collection of a catalog."""
        if isinstance(catalog, ServiceCatalog):
            opened, owns = catalog, False
        else:
            opened, owns = ServiceCatalog(catalog, readonly=True), True
        try:
            maps = {
                name: opened.shard_map(name)
                for name in opened.sharded_names()
            }
        finally:
            if owns:
                opened.close()
        return cls(maps, **kwargs)

    # -- introspection -------------------------------------------------------

    @property
    def collections(self) -> List[str]:
        """Sharded collection names this coordinator can answer for."""
        return sorted(self._shard_maps)

    def shard_map(self, collection: str) -> Tuple[ShardEntry, ...]:
        """The ordered shard map of ``collection``."""
        entries = self._shard_maps.get(collection)
        if entries is None:
            raise ClusterError(
                f"no shard map for collection {collection!r}; sharded "
                f"collections: {', '.join(self.collections) or 'none'}"
            )
        return entries

    def n_series(self, collection: str) -> int:
        """Total candidate columns of ``collection`` across all shards."""
        return self.shard_map(collection)[-1].row_stop

    def ping(self) -> Dict[str, bool]:
        """Liveness of every distinct shard endpoint."""
        alive: Dict[str, bool] = {}
        for entries in self._shard_maps.values():
            for shard in entries:
                if shard.endpoint in alive:
                    continue
                try:
                    channel = self._checkout(shard)
                    response = channel.request(
                        f"p{next(self._ids)}", {"op": "ping"}, self.timeout
                    )
                    self._checkin(shard, channel)
                    alive[shard.endpoint] = bool(response.get("ok"))
                except (OSError, ReproError):
                    alive[shard.endpoint] = False
        return alive

    # -- connection pool -----------------------------------------------------

    def _checkout(self, shard: ShardEntry) -> _ShardChannel:
        key = (shard.host, shard.port)
        with self._lock:
            if self._closed:
                raise ClusterError("coordinator is closed")
            pool = self._pools.setdefault(key, [])
            if pool:
                return pool.pop()
        return _ShardChannel(shard.host, shard.port, self.connect_timeout)

    def _checkin(self, shard: ShardEntry, channel: _ShardChannel) -> None:
        key = (shard.host, shard.port)
        with self._lock:
            if not self._closed:
                self._pools.setdefault(key, []).append(channel)
                return
        channel.close()

    def _record_latency(self, shard: ShardEntry, seconds: float) -> None:
        key = (shard.host, shard.port)
        with self._lock:
            history = self._latencies.setdefault(
                key, deque(maxlen=LATENCY_WINDOW)
            )
            history.append(seconds)

    def _hedge_delay(self, shard: ShardEntry) -> Optional[float]:
        """Seconds to wait before hedging, or ``None`` (never hedge)."""
        if self.hedge_after is not None:
            if self.hedge_after == float("inf"):
                return None
            return float(self.hedge_after)
        key = (shard.host, shard.port)
        with self._lock:
            history = self._latencies.get(key)
            if history is None or len(history) < HEDGE_MIN_SAMPLES:
                return None
            samples = list(history)
        return float(np.percentile(samples, self.hedge_percentile))

    def close(self) -> None:
        """Close every pooled connection (idempotent)."""
        with self._lock:
            self._closed = True
            channels = [
                channel
                for pool in self._pools.values()
                for channel in pool
            ]
            self._pools.clear()
        for channel in channels:
            channel.close()

    def __enter__(self) -> "ClusterCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- scatter / hedge -----------------------------------------------------

    def _attempt(
        self,
        shard: ShardEntry,
        request_id: str,
        payload: Dict[str, Any],
        deadline: Optional[float],
        outcomes: "queue.Queue",
        resolved: threading.Event,
    ) -> None:
        """One connection-level attempt; runs on its own daemon thread."""
        channel: Optional[_ShardChannel] = None
        try:
            channel = self._checkout(shard)
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ClusterError(
                        f"shard {shard.endpoint} budget exhausted before "
                        f"send"
                    )
            started = time.perf_counter()
            response = channel.request(request_id, payload, remaining)
            self._record_latency(shard, time.perf_counter() - started)
            # The reply is well-formed for *this* request id; whether it
            # wins is decided by the gather loop.  A reply landing after
            # the group resolved is the hedge loser: discard by id.
            if resolved.is_set():
                with self._lock:
                    self.duplicates_discarded += 1
                self._checkin(shard, channel)
                return
            self._checkin(shard, channel)
            outcomes.put(("ok", response))
        except BaseException as error:  # noqa: BLE001 — reported, not lost
            if channel is not None:
                channel.close()
            if resolved.is_set():
                return
            outcomes.put(("err", error))

    def _query_shard(
        self,
        shard: ShardEntry,
        payload: Dict[str, Any],
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        """Scatter to one shard with hedging; first good reply wins."""
        request_id = payload.pop("__rid__")
        outcomes: "queue.Queue" = queue.Queue()
        resolved = threading.Event()
        launched = 0

        def launch() -> None:
            nonlocal launched
            launched += 1
            thread = threading.Thread(
                target=self._attempt,
                args=(
                    shard,
                    request_id,
                    dict(payload),
                    deadline,
                    outcomes,
                    resolved,
                ),
                name=f"repro-cluster-{shard.endpoint}-{request_id}",
                daemon=True,
            )
            thread.start()

        def remaining() -> Optional[float]:
            if deadline is None:
                return None
            return deadline - time.monotonic()

        launch()
        hedge_delay = self._hedge_delay(shard)
        errors: List[BaseException] = []
        finished = 0
        while True:
            budget = remaining()
            if budget is not None and budget <= 0:
                break
            wait = budget
            if (
                launched == 1
                and hedge_delay is not None
                and (wait is None or hedge_delay < wait)
            ):
                wait = hedge_delay
            try:
                kind, value = outcomes.get(timeout=wait)
            except queue.Empty:
                if launched == 1 and hedge_delay is not None:
                    # Primary is slower than its latency percentile:
                    # fire the duplicate (same request id).
                    with self._lock:
                        self.hedges_fired += 1
                    launch()
                    continue
                break  # deadline exhausted
            if kind == "ok":
                resolved.set()
                return value
            finished += 1
            errors.append(value)
            if launched == 1:
                # The primary *failed* (it did not merely lag): retry
                # once immediately — waiting out the hedge delay would
                # only burn budget.
                launch()
                continue
            if finished >= launched:
                break
        resolved.set()
        if errors:
            raise errors[-1]
        raise ClusterError(
            f"shard {shard.endpoint} did not answer within the deadline "
            f"budget"
        )

    def _scatter(
        self,
        collection: str,
        op: str,
        params: Dict[str, Any],
        technique: Union[str, Dict[str, Any], None],
        queries: Optional[Dict[str, Any]],
    ) -> Tuple[
        List[Optional[Dict[str, Any]]], Tuple[ShardEntry, ...], Tuple[str, ...]
    ]:
        """One request per shard, hedged; returns per-shard responses.

        Failed shards are ``None`` in the response list (allowed only
        with ``allow_partial``); the failed endpoints are returned so
        results can carry the tag.
        """
        shards = self.shard_map(collection)
        deadline = (
            time.monotonic() + self.timeout
            if self.timeout is not None
            else None
        )
        logical = next(self._ids)
        replies: List[Optional[Dict[str, Any]]] = [None] * len(shards)
        failures: List[Tuple[ShardEntry, BaseException]] = []
        threads: List[threading.Thread] = []
        results: "queue.Queue" = queue.Queue()

        def run(index: int, shard: ShardEntry) -> None:
            payload: Dict[str, Any] = {
                "__rid__": f"x{logical}.s{shard.shard_index}",
                "op": op,
                "collection": collection,
                "params": params,
                "candidates": {
                    "start": shard.row_start,
                    "stop": shard.row_stop,
                },
            }
            if technique is not None:
                payload["technique"] = technique
            if queries is not None:
                payload["queries"] = queries
            if deadline is not None:
                budget = deadline - time.monotonic()
                payload["timeout"] = max(budget, 1e-3)
            try:
                results.put(
                    (index, self._query_shard(shard, payload, deadline))
                )
            except BaseException as error:  # noqa: BLE001
                results.put((index, error))

        for index, shard in enumerate(shards):
            thread = threading.Thread(
                target=run,
                args=(index, shard),
                name=f"repro-gather-{collection}-s{shard.shard_index}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        for _ in shards:
            index, outcome = results.get()
            if isinstance(outcome, BaseException):
                failures.append((shards[index], outcome))
            else:
                replies[index] = outcome
        failed = tuple(shard.endpoint for shard, _ in failures)
        if failures and not self.allow_partial:
            shard, error = failures[0]
            raise ClusterError(
                f"shard {shard.endpoint} failed: {error}",
                failed_shards=failed,
            ) from error
        if failures and len(failures) == len(shards):
            shard, error = failures[0]
            raise ClusterError(
                f"every shard of {collection!r} failed (first: "
                f"{shard.endpoint}: {error})",
                failed_shards=failed,
            ) from error
        return replies, shards, failed

    # -- merge ---------------------------------------------------------------

    def _merge_stats(
        self,
        replies: Sequence[Optional[Dict[str, Any]]],
        shards: Tuple[ShardEntry, ...],
        n_queries: int,
        failed: Tuple[str, ...],
    ) -> Optional[PruningStats]:
        per_shard = [
            stats_from_payload(reply.get("stats"))
            for reply in replies
            if reply is not None
        ]
        surviving = sum(
            shard.width
            for shard, reply in zip(shards, replies)
            if reply is not None
        )
        return PruningStats.merge_shards(
            per_shard,
            n_queries,
            surviving,
            executor={
                "backend": "cluster",
                "n_shards": len(shards),
                "failed_shards": list(failed),
            },
        )

    def _query_meta(
        self, collection: str, queries: Optional[Dict[str, Any]]
    ) -> Tuple[int, np.ndarray]:
        """The workload's ``(M, query_positions)`` from its wire form."""
        if queries is None:
            n = self.n_series(collection)
            return n, np.arange(n, dtype=np.intp)
        if "indices" in queries:
            positions = np.asarray(queries["indices"], dtype=np.intp)
            return positions.size, positions
        rows = queries["values"]
        return len(rows), np.full(len(rows), -1, dtype=np.intp)

    def knn(
        self,
        collection: str,
        k: int,
        technique: Union[str, Dict[str, Any], None] = None,
        indices: Optional[Sequence[int]] = None,
        values: Optional[Sequence[Sequence[float]]] = None,
        policy: Optional[PlanPolicy] = None,
    ) -> KnnResult:
        """Scattered k-nearest neighbors, merged stable-by-index.

        Bit-identical to the in-process executor when every shard
        answers.  With ``allow_partial`` and failed shards, the merge
        runs over the survivors' candidates only and ``k`` degrades to
        the deepest rank every query row can still support.
        """
        if int(k) < 1:
            raise InvalidParameterError(f"k must be >= 1, got {k}")
        queries = _wire_queries(indices, values)
        # Member queries (all / by-index) exclude their own column; raw
        # value rows compete against every candidate.  Validated here so
        # a too-deep k fails like the in-process kernel would, and the
        # degraded-merge clamp below only ever reflects *failed shards*.
        excluding = queries is None or "indices" in queries
        eligible = self.n_series(collection) - (1 if excluding else 0)
        if int(k) > eligible:
            raise InvalidParameterError(
                f"k={int(k)} must be at most the number of eligible "
                f"candidates ({eligible})"
            )
        params: Dict[str, Any] = {"k": int(k)}
        if policy is not None:
            params["policy"] = policy.to_wire()
        started = time.perf_counter()
        replies, shards, failed = self._scatter(
            collection, "knn", params, technique, queries
        )
        n_queries, positions = self._query_meta(collection, queries)
        shard_blocks = []
        pooled = np.zeros(n_queries, dtype=np.intp)
        for reply in replies:
            if reply is None:
                continue
            rows_i = reply["result"]["indices"]
            rows_s = reply["result"]["scores"]
            block_i = np.full((n_queries, int(k)), -1, dtype=np.intp)
            block_s = np.full((n_queries, int(k)), np.inf)
            for row, (row_i, row_s) in enumerate(zip(rows_i, rows_s)):
                block_i[row, : len(row_i)] = row_i
                block_s[row, : len(row_s)] = row_s
                pooled[row] += len(row_i)
            shard_blocks.append((0, block_i, block_s))
        k_eff = int(min(int(k), pooled.min())) if len(pooled) else int(k)
        if k_eff < 1:
            raise ClusterError(
                f"no candidates survive for at least one query row "
                f"(failed shards: {', '.join(failed) or 'none'})",
                failed_shards=failed,
            )
        merged_indices, merged_scores = merge_knn_rows(
            n_queries, k_eff, shard_blocks
        )
        return KnnResult(
            technique_name=_reply_technique(technique),
            indices=merged_indices,
            scores=merged_scores,
            query_positions=positions,
            elapsed_seconds=time.perf_counter() - started,
            pruning_stats=self._merge_stats(
                replies, shards, n_queries, failed
            ),
            failed_shards=failed,
        )

    def range(
        self,
        collection: str,
        epsilon: Union[float, Sequence[float]],
        technique: Union[str, Dict[str, Any], None] = None,
        indices: Optional[Sequence[int]] = None,
        values: Optional[Sequence[Sequence[float]]] = None,
        policy: Optional[PlanPolicy] = None,
    ) -> RangeResult:
        """Scattered range query; shard-ordered concatenation merge."""
        return self._range_op(
            collection,
            "range",
            {"epsilon": _epsilon_param(epsilon)},
            technique,
            indices,
            values,
            tau=None,
            policy=policy,
        )

    def prob_range(
        self,
        collection: str,
        epsilon: Union[float, Sequence[float]],
        tau: float,
        technique: Union[str, Dict[str, Any], None] = None,
        indices: Optional[Sequence[int]] = None,
        values: Optional[Sequence[Sequence[float]]] = None,
        policy: Optional[PlanPolicy] = None,
    ) -> RangeResult:
        """Scattered probabilistic range query (Equation 2)."""
        return self._range_op(
            collection,
            "prob_range",
            {"epsilon": _epsilon_param(epsilon), "tau": float(tau)},
            technique,
            indices,
            values,
            tau=float(tau),
            policy=policy,
        )

    def _range_op(
        self,
        collection: str,
        op: str,
        params: Dict[str, Any],
        technique: Union[str, Dict[str, Any], None],
        indices: Optional[Sequence[int]],
        values: Optional[Sequence[Sequence[float]]],
        tau: Optional[float],
        policy: Optional[PlanPolicy] = None,
    ) -> RangeResult:
        queries = _wire_queries(indices, values)
        if policy is not None:
            params = {**params, "policy": policy.to_wire()}
        started = time.perf_counter()
        replies, shards, failed = self._scatter(
            collection, op, params, technique, queries
        )
        n_queries, positions = self._query_meta(collection, queries)
        # Shard slices are ascending and disjoint, so concatenating the
        # per-shard match sets in shard order keeps each query's result
        # set globally sorted — no re-sort, no dedupe needed.
        merged: List[List[int]] = [[] for _ in range(n_queries)]
        epsilons: Optional[np.ndarray] = None
        for reply in replies:
            if reply is None:
                continue
            for row, found in enumerate(reply["result"]["matches"]):
                merged[row].extend(int(i) for i in found)
            if epsilons is None and "epsilons" in reply["result"]:
                epsilons = np.asarray(
                    reply["result"]["epsilons"], dtype=np.float64
                )
        if epsilons is None:
            epsilons = np.full(n_queries, np.nan)
        return RangeResult(
            technique_name=_reply_technique(technique),
            kind="probabilistic" if op == "prob_range" else "distance",
            matches=tuple(
                np.asarray(found, dtype=np.intp) for found in merged
            ),
            epsilons=epsilons,
            tau=tau,
            query_positions=positions,
            elapsed_seconds=time.perf_counter() - started,
            pruning_stats=self._merge_stats(
                replies, shards, n_queries, failed
            ),
            failed_shards=failed,
        )

    def __repr__(self) -> str:
        return (
            f"ClusterCoordinator(collections={self.collections}, "
            f"allow_partial={self.allow_partial})"
        )


def _wire_queries(
    indices: Optional[Sequence[int]],
    values: Optional[Sequence[Sequence[float]]],
) -> Optional[Dict[str, Any]]:
    if indices is not None and values is not None:
        raise ProtocolError("pass query 'indices' or raw 'values', not both")
    if indices is not None:
        return {"indices": [int(i) for i in indices]}
    if values is not None:
        return {
            "values": [[float(v) for v in row] for row in values]
        }
    return None


def _reply_technique(
    technique: Union[str, Dict[str, Any], None],
) -> str:
    if technique is None:
        return "euclidean"
    if isinstance(technique, str):
        return technique
    return str(technique.get("name", "?"))


# ---------------------------------------------------------------------------
# Backends: the fluent surface over remote executions
# ---------------------------------------------------------------------------


def _selector_to_wire(
    query_set: QuerySet,
) -> Tuple[Optional[Sequence[int]], Optional[Sequence[Sequence[float]]]]:
    """A query set's selection as the protocol's ``(indices, values)``."""
    selector = query_set.selector
    if selector is None:
        raise InvalidParameterError(
            "this query set was not built through a session's queries() "
            "and carries no wire-form selection"
        )
    kind, payload = selector
    if kind == "all":
        return None, None
    if kind == "indices":
        return payload, None
    return None, payload


def _knn_result_from_reply(
    query_set: QuerySet, result, started: float
) -> KnnResult:
    indices = np.asarray(result.indices, dtype=np.intp)
    scores = np.asarray(result.scores, dtype=np.float64)
    return KnnResult(
        technique_name=query_set.technique.name,
        indices=indices,
        scores=scores,
        query_positions=query_set.query_positions,
        elapsed_seconds=time.perf_counter() - started,
        pruning_stats=stats_from_payload(result.stats),
    )


def _range_result_from_reply(
    query_set: QuerySet, result, kind: str, tau: Optional[float],
    started: float,
) -> RangeResult:
    return RangeResult(
        technique_name=query_set.technique.name,
        kind=kind,
        matches=tuple(
            np.asarray(found, dtype=np.intp) for found in result.matches
        ),
        epsilons=np.asarray(
            result.result.get("epsilons", []), dtype=np.float64
        ),
        tau=tau,
        query_positions=query_set.query_positions,
        elapsed_seconds=time.perf_counter() - started,
        pruning_stats=stats_from_payload(result.stats),
    )


class RemoteBackend(SimilarityBackend):
    """Execute fluent verbs against one similarity daemon.

    The technique bound with ``using()`` is shipped as its wire spec
    (:func:`~repro.service.registry.technique_spec`) and rebuilt on the
    daemon, so kernels — including seeded Monte Carlo draws — replay
    identically to an in-process run.
    """

    def __init__(self, client: ServiceClient, collection: str) -> None:
        self._client = client
        self._collection = collection

    @property
    def collection_name(self) -> str:
        """The served collection this backend queries."""
        return self._collection

    def _execute(self, op: str, query_set: QuerySet, params: Dict[str, Any]):
        indices, values = _selector_to_wire(query_set)
        spec = technique_spec(query_set.technique)
        policy = query_set.policy
        if policy is not None:
            params = {**params, "policy": policy.to_wire()}
        return self._client.query(
            op, self._collection, params, spec, indices, values
        )

    def knn(self, query_set: QuerySet, k: int) -> KnnResult:
        started = time.perf_counter()
        result = self._execute("knn", query_set, {"k": int(k)})
        return _knn_result_from_reply(query_set, result, started)

    def range(self, query_set: QuerySet, eps: np.ndarray) -> RangeResult:
        started = time.perf_counter()
        result = self._execute(
            "range", query_set, {"epsilon": _epsilon_param(eps)}
        )
        return _range_result_from_reply(
            query_set, result, "distance", None, started
        )

    def prob_range(
        self, query_set: QuerySet, eps: np.ndarray, tau: float
    ) -> RangeResult:
        started = time.perf_counter()
        result = self._execute(
            "prob_range",
            query_set,
            {"epsilon": _epsilon_param(eps), "tau": float(tau)},
        )
        return _range_result_from_reply(
            query_set, result, "probabilistic", float(tau), started
        )

    def close(self) -> None:
        self._client.close()

    def __repr__(self) -> str:
        return (
            f"RemoteBackend({self._client.host}:{self._client.port}, "
            f"collection={self._collection!r})"
        )


class ClusterBackend(SimilarityBackend):
    """Execute fluent verbs scattered across a shard fleet."""

    def __init__(
        self, coordinator: ClusterCoordinator, collection: str
    ) -> None:
        self._coordinator = coordinator
        self._collection = collection

    @property
    def coordinator(self) -> ClusterCoordinator:
        """The scatter-gather engine underneath."""
        return self._coordinator

    @property
    def collection_name(self) -> str:
        """The sharded collection this backend queries."""
        return self._collection

    def knn(self, query_set: QuerySet, k: int) -> KnnResult:
        indices, values = _selector_to_wire(query_set)
        spec = technique_spec(query_set.technique)
        result = self._coordinator.knn(
            self._collection,
            k,
            spec,
            indices=indices,
            values=values,
            policy=query_set.policy,
        )
        return _rebrand(result, query_set)

    def range(self, query_set: QuerySet, eps: np.ndarray) -> RangeResult:
        indices, values = _selector_to_wire(query_set)
        spec = technique_spec(query_set.technique)
        result = self._coordinator.range(
            self._collection,
            eps,
            spec,
            indices=indices,
            values=values,
            policy=query_set.policy,
        )
        return _rebrand(result, query_set)

    def prob_range(
        self, query_set: QuerySet, eps: np.ndarray, tau: float
    ) -> RangeResult:
        indices, values = _selector_to_wire(query_set)
        spec = technique_spec(query_set.technique)
        result = self._coordinator.prob_range(
            self._collection,
            eps,
            tau,
            spec,
            indices=indices,
            values=values,
            policy=query_set.policy,
        )
        return _rebrand(result, query_set)

    def close(self) -> None:
        self._coordinator.close()

    def __repr__(self) -> str:
        return (
            f"ClusterBackend(collection={self._collection!r}, "
            f"{self._coordinator!r})"
        )


def _rebrand(result, query_set: QuerySet):
    """Stamp the local technique's display name onto a merged result."""
    from dataclasses import replace

    return replace(result, technique_name=query_set.technique.name)


# ---------------------------------------------------------------------------
# RemoteSession + connect(): the one documented entry point
# ---------------------------------------------------------------------------


class RemoteSession:
    """A session-shaped handle over a remote or cluster backend.

    Mirrors :class:`~repro.queries.session.SimilaritySession`'s fluent
    surface — ``queries(...)`` → ``using(...)`` → verb — with identical
    selection validation, so code written against an in-process session
    runs unchanged against a daemon or a shard fleet.
    """

    def __init__(
        self,
        backend: SimilarityBackend,
        collection_name: str,
        n_series: int,
        policy: Optional[PlanPolicy] = None,
    ) -> None:
        self._backend = backend
        self._collection_name = collection_name
        self._n_series = int(n_series)
        self._policy = policy
        self._closed = False

    @property
    def backend(self) -> SimilarityBackend:
        """The :class:`SimilarityBackend` query sets execute against."""
        return self._backend

    @property
    def policy(self) -> Optional[PlanPolicy]:
        """The session-level plan policy query sets inherit."""
        return self._policy

    @property
    def collection_name(self) -> str:
        """The served collection's catalog name."""
        return self._collection_name

    def __len__(self) -> int:
        return self._n_series

    def queries(self, queries: Optional[Sequence] = None) -> QuerySet:
        """Select query rows — same contract as the in-process session.

        ``None`` selects every collection series; a list of integers
        selects by index (validated against the collection size here,
        so a bad index fails before any network round trip); a list of
        raw value rows queries by content (exact-kind collections).
        """
        if queries is None:
            positions = np.arange(self._n_series, dtype=np.intp)
            return QuerySet(
                self, range(self._n_series), positions, selector=("all", None)
            )
        items = list(queries)
        if not items:
            raise InvalidParameterError(
                "a query set must contain at least one query"
            )
        if all(isinstance(item, (int, np.integer)) for item in items):
            positions = np.asarray(items, dtype=np.intp)
            if np.any(positions < 0) or np.any(
                positions >= self._n_series
            ):
                raise InvalidParameterError(
                    f"query indices must be within [0, "
                    f"{self._n_series - 1}]"
                )
            return QuerySet(
                self,
                items,
                positions,
                selector=("indices", [int(i) for i in positions]),
            )
        rows = [np.asarray(item, dtype=np.float64).ravel() for item in items]
        positions = np.full(len(rows), -1, dtype=np.intp)
        return QuerySet(
            self,
            rows,
            positions,
            selector=("values", [row.tolist() for row in rows]),
        )

    def close(self) -> None:
        """Release the backend's connections (idempotent)."""
        if not self._closed:
            self._closed = True
            self._backend.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RemoteSession(collection={self._collection_name!r}, "
            f"n_series={self._n_series}, backend={self._backend!r})"
        )


def _parse_tcp_address(address: str) -> Tuple[str, int, Optional[str]]:
    """``tcp://host:port[/collection]`` → (host, port, collection)."""
    rest = address[len("tcp://"):]
    name: Optional[str] = None
    if "/" in rest:
        rest, name = rest.split("/", 1)
        name = name or None
    if ":" not in rest:
        raise InvalidParameterError(
            f"a tcp:// address needs host:port, got {address!r}"
        )
    host, port_text = rest.rsplit(":", 1)
    try:
        port = int(port_text)
    except ValueError as error:
        raise InvalidParameterError(
            f"bad port in address {address!r}"
        ) from error
    return host or "127.0.0.1", port, name


def _resolve_remote_collection(
    client: ServiceClient, requested: Optional[str]
) -> Tuple[str, int]:
    entries = client.list_collections()
    by_name = {entry["name"]: entry for entry in entries}
    if requested is not None:
        if requested not in by_name:
            raise InvalidParameterError(
                f"daemon at {client.host}:{client.port} serves no "
                f"collection {requested!r} (it serves: "
                f"{', '.join(sorted(by_name)) or 'none'})"
            )
        entry = by_name[requested]
    elif len(entries) == 1:
        entry = entries[0]
    else:
        raise InvalidParameterError(
            f"daemon at {client.host}:{client.port} serves "
            f"{len(entries)} collections "
            f"({', '.join(sorted(by_name)) or 'none'}); name one — "
            f"connect('tcp://host:port/<collection>')"
        )
    return entry["name"], int(entry["n_series"])


def connect(
    address_or_path: str,
    collection: Optional[str] = None,
    timeout: Optional[float] = DEFAULT_TIMEOUT,
    allow_partial: bool = False,
    hedge_after: Optional[float] = None,
    policy: Optional[PlanPolicy] = None,
):
    """One entry point for every deployment shape.

    * ``connect("tcp://host:port")`` / ``"tcp://host:port/name"`` — a
      :class:`RemoteSession` over one daemon (:class:`RemoteBackend`);
    * ``connect("catalog.db")`` — if the named collection has a shard
      map, a :class:`RemoteSession` scattering across the fleet
      (:class:`ClusterBackend`); otherwise an in-process
      :class:`~repro.queries.session.SimilaritySession` over the
      cataloged mmap;
    * ``connect("/data/my_collection")`` (a saved collection directory
      or manifest) — an in-process session.

    Every return value supports the same fluent chain::

        session = connect("tcp://127.0.0.1:7791/trades")
        hits = session.queries().using(DustTechnique()).knn(10)

    with identical result structures and validation errors.  A
    ``policy=PlanPolicy(...)`` rides along to whichever session shape
    comes back, steering the cost-based plan chooser uniformly.
    """
    import os

    from ..core.mmapio import load_collection
    from ..queries.session import SimilaritySession

    address = os.fspath(address_or_path)
    if address.startswith("tcp://"):
        host, port, url_name = _parse_tcp_address(address)
        requested = collection if collection is not None else url_name
        client = ServiceClient(host, port, timeout=timeout)
        name, n_series = _resolve_remote_collection(client, requested)
        return RemoteSession(
            RemoteBackend(client, name), name, n_series, policy=policy
        )
    if os.path.isdir(address) or address.endswith(".json"):
        return SimilaritySession(load_collection(address), policy=policy)
    catalog = ServiceCatalog(address, readonly=True)
    try:
        names = catalog.names()
        if collection is not None:
            name = collection
            entry = catalog.get(name)
        elif len(names) == 1:
            name = names[0]
            entry = catalog.get(name)
        else:
            raise InvalidParameterError(
                f"catalog {address!r} holds {len(names)} collections "
                f"({', '.join(names) or 'none'}); pass collection=..."
            )
        shard_map = catalog.shard_map(name)
        if shard_map:
            coordinator = ClusterCoordinator(
                {name: shard_map},
                timeout=timeout,
                allow_partial=allow_partial,
                hedge_after=hedge_after,
            )
            return RemoteSession(
                ClusterBackend(coordinator, name),
                name,
                entry.n_series,
                policy=policy,
            )
        mapped = catalog.open_collection(name)
    finally:
        catalog.close()
    return SimilaritySession(mapped, policy=policy)
