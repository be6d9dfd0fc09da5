"""Distributed scatter-gather serving with one unified query surface.

A collection too large (or too hot) for one daemon is *column-sharded*:
every shard daemon maps the **same** mmap manifest and answers queries
scoped to its contiguous candidate slice (the protocol's ``candidates``
field), so re-sharding never moves data — only the shard map in the
:class:`~repro.service.catalog.ServiceCatalog` changes.

:class:`ClusterCoordinator` is the client half: it scatters each
kNN / range / prob-range request to every shard over the versioned JSON
protocol, then merges the replies with the global stable-by-index rule
of :func:`~repro.queries.knn.merge_knn_rows`, so a 4-shard cluster
answers bit-identically to a single process: every shard answers its
slice through :func:`~repro.queries.session.execute_query`, the
executor an in-process session runs over the whole collection.  This
is the system's one sharding path: an in-process session always runs
the whole ``(M, N)`` workload in its own process.  Each shard is asked
exactly once per request, and all on the caller's thread: every
request line goes out before any reply is read, so the shards execute
side by side without a thread per shard.  Robustness:

* **one immediate retry** — an attempt that fails in transport (refused
  connection, reset, EOF, socket timeout) is retried once, at once, on
  a new connection; an ``ok: false`` reply is the shard's answer, is
  never retried and leaves its connection pooled;
* **in-step connections** — a pooled connection goes back to the pool
  only once its reply has been read whole; one whose request was sent
  but whose reply was not read (failure, timeout, interrupt) is closed,
  so a stale reply never answers a later request;
* **deadline budgets** — every shard attempt inherits the remaining
  per-request budget as its socket timeout and ships it as the
  request's ``timeout``, so the daemon drops an overrun request itself;
  an attempt whose budget is already spent raises
  :class:`TimeoutError` naming the shard, while a reply that came in
  time is read whatever the other shards did;
* **graceful degradation** — with ``allow_partial``, a dead or failing
  shard yields a partial result *tagged* with the failed shard set
  (``result.failed_shards``) instead of an exception.

The unified surface: :func:`connect` returns a session whose fluent
``queries().using(technique).knn(k)`` chain executes against an
in-process session or, with the coordinator as a :class:`RemoteSession`'s
backend, against daemons — a shard fleet, or one daemon as a one-shard
map over ``[0, N)`` — returning the same
:class:`~repro.queries.session.KnnResult` /
:class:`~repro.queries.session.RangeResult` structures with merged
:class:`~repro.queries.planner.PruningStats` everywhere.  The
coordinator's verbs take the validated
:class:`~repro.queries.session.QuerySet` whole and read the request off
it: collection, selection, technique spec, row count, positions and the
session's plan policy.  A one-shard map keeps one daemon's error types:
its failure raises as the shard's own exception, where a fleet wraps it
in :class:`ClusterError`.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidParameterError, ReproError
from ..queries.knn import merge_knn_rows
from ..queries.planner import PlanPolicy, PruningStats
from ..queries.session import (
    KnnResult,
    QuerySet,
    RangeResult,
    SimilarityBackend,
    check_policy,
    checked_selection,
)
from .catalog import ServiceCatalog, ShardEntry
from .client import Channel, ServiceClient, ServiceError, finish_connects
from .protocol import stats_from_payload
from .registry import technique_spec

#: Default per-request wall-clock budget (seconds).
DEFAULT_TIMEOUT = 60.0


class ClusterError(ReproError):
    """A multi-shard execution failed (and partials were not allowed)."""

    def __init__(
        self, message: str, failed_shards: Tuple[str, ...] = ()
    ) -> None:
        super().__init__(message)
        self.failed_shards = failed_shards


def _outcome(call, *args) -> Any:
    """``call(*args)``, or the exception it raised."""
    try:
        return call(*args)
    except Exception as error:  # noqa: BLE001 — the shard's outcome
        return error


# ---------------------------------------------------------------------------
# The coordinator
# ---------------------------------------------------------------------------


class ClusterCoordinator(SimilarityBackend):
    """Scatter queries across a shard fleet; gather and merge replies.

    The :class:`~repro.queries.session.SimilarityBackend` of a
    :class:`RemoteSession`: each verb takes a validated query set of a
    session over one of this coordinator's collections.  The technique
    bound with ``using()`` ships as its wire spec
    (:func:`~repro.service.registry.technique_spec`) and is rebuilt on
    every daemon, so kernels — including seeded Monte Carlo draws —
    replay identically to an in-process run.

    Parameters
    ----------
    shard_maps:
        ``{collection: ordered shard entries}`` — usually read from a
        catalog via :meth:`from_catalog`.  Each map must tile
        ``[0, n_series)`` (the catalog enforces this at install time).
    timeout:
        Per-request wall-clock budget (seconds); every shard attempt
        inherits the *remaining* budget at its send time, as its socket
        timeout and as the request's ``timeout`` field.
    connect_timeout:
        TCP connect budget per channel.
    allow_partial:
        When a shard fails (transport failure after its retry, or an
        error reply), return the survivors' merged answer tagged with
        ``failed_shards`` instead of raising :class:`ClusterError`.  A
        one-shard map raises its shard's own error either way.
    """

    def __init__(
        self,
        shard_maps: Dict[str, Sequence[ShardEntry]],
        timeout: Optional[float] = DEFAULT_TIMEOUT,
        connect_timeout: Optional[float] = 10.0,
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
        self.allow_partial = bool(allow_partial)
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._pools: Dict[Tuple[str, int], List[Channel]] = {}
        self._closed = False

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
                    self._round_trip(
                        shard,
                        f"p{next(self._ids)}",
                        {"op": "ping"},
                        self._deadline(),
                    )
                    alive[shard.endpoint] = True
                except (OSError, ReproError):
                    alive[shard.endpoint] = False
        return alive

    # -- connection pool -----------------------------------------------------

    def _open(
        self, shards: Sequence[ShardEntry], deadline: Optional[float]
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(position, channel or error)`` for each of ``shards``.

        Pooled channels come first, before any new connect starts.  Then
        every new connect is started before any is waited on, and each
        channel is yielded as soon as its connect completes, so a hung
        connect holds back no other shard's request.  A connect waits at
        most ``min(connect_timeout, remaining budget)``.
        """
        fresh = []
        for position, shard in enumerate(shards):
            with self._lock:
                if self._closed:
                    pooled: Any = ClusterError("coordinator is closed")
                else:
                    pool = self._pools.get((shard.host, shard.port))
                    pooled = pool.pop() if pool else None
            if pooled is None:
                fresh.append(position)
            else:
                yield position, pooled
        connecting: List[Tuple[int, Channel]] = []
        for position in fresh:
            shard = shards[position]
            try:
                bound = self._budget(shard, deadline)
                if self.connect_timeout is not None:
                    bound = min(bound or math.inf, self.connect_timeout)
                connecting.append(
                    (position, Channel(shard.host, shard.port, bound))
                )
            except OSError as error:
                yield position, error
        opened = finish_connects([channel for _, channel in connecting])
        for index, error in opened:
            position, channel = connecting[index]
            yield position, error or channel

    def _checkin(self, shard: ShardEntry, channel: Channel) -> None:
        key = (shard.host, shard.port)
        with self._lock:
            if not self._closed:
                self._pools.setdefault(key, []).append(channel)
                return
        channel.close()

    def _deadline(self) -> Optional[float]:
        """The monotonic deadline of a request starting now."""
        if self.timeout is None:
            return None
        return time.monotonic() + self.timeout

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

    # -- scatter ---------------------------------------------------------------

    @staticmethod
    def _budget(
        shard: ShardEntry, deadline: Optional[float]
    ) -> Optional[float]:
        """The time left before ``deadline``; a spent budget raises."""
        if deadline is None:
            return None
        budget = deadline - time.monotonic()
        if budget <= 0:
            raise TimeoutError(
                f"shard {shard.endpoint} did not answer within the "
                f"deadline budget"
            )
        return budget

    def _send(
        self,
        shard: ShardEntry,
        channel: Union[Channel, Exception],
        request_id: str,
        payload: Dict[str, Any],
        deadline: Optional[float],
    ) -> Channel:
        """Put one request on ``channel`` and return the channel.

        ``channel`` is what :meth:`_open` yielded: a failed open raises
        here.  The remaining budget is the write's socket timeout and
        ships as the request's ``timeout``, so the daemon drops an
        overrun request itself.
        """
        if isinstance(channel, Exception):
            raise channel
        try:
            budget = self._budget(shard, deadline)
            if budget is not None:
                payload = {**payload, "timeout": max(budget, 1e-3)}
            channel.send(request_id, payload, budget)
        except BaseException:
            channel.close()
            raise
        return channel

    def _receive(
        self,
        shard: ShardEntry,
        channel: Channel,
        request_id: str,
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        """Read the reply to a sent request.

        The remaining budget bounds the read, floored at a millisecond:
        a reply that came before the deadline is read even when the wait
        for another shard's reply spent the rest of the budget.  Only a
        reply read whole returns the channel to the pool, an ``ok:
        false`` one included.  On any other outcome (transport failure,
        timeout, a reply to another request, an interrupt) the channel
        is closed: its reply may still be on the way, and must never
        answer a later request.
        """
        timeout = None
        if deadline is not None:
            timeout = max(deadline - time.monotonic(), 1e-3)
        try:
            response = channel.receive(request_id, timeout)
        except ServiceError:
            self._checkin(shard, channel)
            raise
        except BaseException:
            channel.close()
            raise
        self._checkin(shard, channel)
        return response

    def _round_trip(
        self,
        shard: ShardEntry,
        request_id: str,
        payload: Dict[str, Any],
        deadline: Optional[float],
    ) -> Dict[str, Any]:
        [(_, channel)] = self._open([shard], deadline)
        self._send(shard, channel, request_id, payload, deadline)
        return self._receive(shard, channel, request_id, deadline)

    def _scatter(
        self, query_set: QuerySet, op: str, params: Dict[str, Any]
    ) -> Tuple[
        List[Optional[Dict[str, Any]]], Tuple[ShardEntry, ...], Tuple[str, ...]
    ]:
        """One request per shard; returns the per-shard responses.

        The request is read off ``query_set``: its session's collection
        and plan policy, its wire selection and its technique's spec.

        Every request goes out before any reply is read, all on the
        caller's thread, so the shards execute side by side and no
        thread is started.  Requests on pooled channels go first; then
        every new connect starts at once and each request goes out as
        soon as its connect completes (see :meth:`_open`), so a slow
        connect to one shard holds back no other shard's request.
        Replies are read in send order; a read's timeout is floored
        (see :meth:`_receive`), so a slow shard read first fails no
        reply that came in time behind it.  A transport
        failure of a send or of a receive gets one immediate retry,
        sent once every first request is out, its reply read last.
        Failed shards are ``None`` in the response list (allowed only
        with ``allow_partial``); the failed endpoints are returned so
        results can carry the tag.  A one-shard map's failure raises as
        the shard's own exception: with no survivors there is nothing to
        tag, and a lone daemon's error keeps its type.
        """
        collection = query_set.session.collection_name
        shards = self.shard_map(collection)
        if query_set.policy is not None:
            params = {**params, "policy": query_set.policy.to_wire()}
        request: Dict[str, Any] = {
            "op": op,
            "collection": collection,
            "params": params,
            "technique": technique_spec(query_set.technique),
        }
        if query_set.selector is not None:
            request["queries"] = query_set.selector
        deadline = self._deadline()
        logical = next(self._ids)
        requests = [
            (
                f"x{logical}.s{shard.shard_index}",
                {
                    **request,
                    "candidates": {
                        "start": shard.row_start,
                        "stop": shard.row_stop,
                    },
                },
            )
            for shard in shards
        ]
        outcomes: List[Any] = [None] * len(shards)
        attempts = [0] * len(shards)
        outbox = list(range(len(shards)))
        # (shard index, channel) of every request on the wire, unread.
        unread: List[Tuple[int, Channel]] = []
        try:
            while outbox or unread:
                settled: List[Tuple[int, Any]] = []
                opened = self._open([shards[i] for i in outbox], deadline)
                for position, channel in opened:
                    index = outbox[position]
                    attempts[index] += 1
                    sent = _outcome(
                        self._send, shards[index], channel, *requests[index],
                        deadline,
                    )
                    if isinstance(sent, Exception):
                        settled.append((index, sent))
                    else:
                        unread.append((index, sent))
                if not settled:
                    index, channel = unread.pop(0)
                    reply = _outcome(
                        self._receive,
                        shards[index],
                        channel,
                        requests[index][0],
                        deadline,
                    )
                    settled.append((index, reply))
                outbox = []
                for index, outcome in settled:
                    outcomes[index] = outcome
                    if isinstance(outcome, OSError) and attempts[index] < 2:
                        outbox.append(index)
        finally:
            # Requests sent but never read (an interrupt): close their
            # channels so no stale reply answers a later request.
            for _, channel in unread:
                channel.close()
        failures = [
            (shard, outcome)
            for shard, outcome in zip(shards, outcomes)
            if isinstance(outcome, Exception)
        ]
        if failures and len(shards) == 1:
            raise failures[0][1]
        replies: List[Optional[Dict[str, Any]]] = [
            None if isinstance(outcome, Exception) else outcome
            for outcome in outcomes
        ]
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

    def knn(self, query_set: QuerySet, k: int) -> KnnResult:
        """Scattered k-nearest neighbors, merged stable-by-index.

        Bit-identical to an in-process session when every shard
        answers.  With ``allow_partial`` and failed shards, the merge
        runs over the survivors' candidates only and ``k`` degrades to
        the deepest rank every query row can still support.  ``k``
        arrives checked by :meth:`~repro.queries.session.QuerySet.knn`
        against the whole collection, so that clamp reflects failed
        shards only.
        """
        started = time.perf_counter()
        replies, shards, failed = self._scatter(query_set, "knn", {"k": k})
        n_queries = len(query_set)
        shard_blocks = []
        pooled = np.zeros(n_queries, dtype=np.intp)
        for reply in replies:
            if reply is None:
                continue
            rows_i = reply["result"]["indices"]
            rows_s = reply["result"]["scores"]
            block_i = np.full((n_queries, k), -1, dtype=np.intp)
            block_s = np.full((n_queries, k), np.inf)
            for row, (row_i, row_s) in enumerate(zip(rows_i, rows_s)):
                block_i[row, : len(row_i)] = row_i
                block_s[row, : len(row_s)] = row_s
                pooled[row] += len(row_i)
            shard_blocks.append((0, block_i, block_s))
        k_eff = int(min(k, pooled.min())) if len(pooled) else k
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
            technique_name=query_set.technique.name,
            indices=merged_indices,
            scores=merged_scores,
            query_positions=query_set.query_positions,
            elapsed_seconds=time.perf_counter() - started,
            pruning_stats=self._merge_stats(
                replies, shards, n_queries, failed
            ),
            failed_shards=failed,
        )

    def range(self, query_set: QuerySet, eps: np.ndarray) -> RangeResult:
        """Scattered range query; shard-ordered concatenation merge."""
        return self._range_op(
            query_set, "range", {"epsilon": eps.tolist()}, eps, tau=None
        )

    def prob_range(
        self, query_set: QuerySet, eps: np.ndarray, tau: float
    ) -> RangeResult:
        """Scattered probabilistic range query (Equation 2)."""
        return self._range_op(
            query_set,
            "prob_range",
            {"epsilon": eps.tolist(), "tau": tau},
            eps,
            tau=tau,
        )

    def _range_op(
        self,
        query_set: QuerySet,
        op: str,
        params: Dict[str, Any],
        eps: np.ndarray,
        tau: Optional[float],
    ) -> RangeResult:
        started = time.perf_counter()
        replies, shards, failed = self._scatter(query_set, op, params)
        n_queries = len(query_set)
        # Shard slices are ascending and disjoint, so concatenating the
        # per-shard match sets in shard order keeps each query's result
        # set globally sorted — no re-sort, no dedupe needed.
        merged: List[List[int]] = [[] for _ in range(n_queries)]
        for reply in replies:
            if reply is None:
                continue
            for row, found in enumerate(reply["result"]["matches"]):
                merged[row].extend(found)
        return RangeResult(
            technique_name=query_set.technique.name,
            kind="probabilistic" if op == "prob_range" else "distance",
            matches=tuple(
                np.asarray(found, dtype=np.intp) for found in merged
            ),
            epsilons=eps,
            tau=tau,
            query_positions=query_set.query_positions,
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


# ---------------------------------------------------------------------------
# RemoteSession + connect(): the one documented entry point
# ---------------------------------------------------------------------------


class RemoteSession:
    """A session-shaped handle over a :class:`ClusterCoordinator`.

    Mirrors :class:`~repro.queries.session.SimilaritySession`'s fluent
    surface — ``queries(...)`` → ``using(...)`` → verb — with identical
    selection validation, so code written against an in-process session
    runs unchanged against a daemon or a shard fleet.  ``policy`` is
    shipped with every request.
    """

    def __init__(
        self,
        coordinator: ClusterCoordinator,
        collection_name: str,
        n_series: int,
        policy: Optional[PlanPolicy] = None,
    ) -> None:
        self._coordinator = coordinator
        self._collection_name = collection_name
        self._n_series = int(n_series)
        self._policy = check_policy(policy)
        self._closed = False

    @property
    def backend(self) -> ClusterCoordinator:
        """The coordinator query sets execute against."""
        return self._coordinator

    @property
    def policy(self) -> Optional[PlanPolicy]:
        """The plan policy every query set of this session ships."""
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
            return QuerySet(self, range(self._n_series), positions)
        items, positions = checked_selection(queries, self._n_series)
        if positions is not None:
            return QuerySet(
                self,
                items,
                positions,
                selector={"indices": [int(i) for i in positions]},
            )
        rows = [np.asarray(item, dtype=np.float64).ravel() for item in items]
        positions = np.full(len(rows), -1, dtype=np.intp)
        return QuerySet(
            self,
            rows,
            positions,
            selector={"values": [row.tolist() for row in rows]},
        )

    def close(self) -> None:
        """Release the coordinator's connections (idempotent)."""
        if not self._closed:
            self._closed = True
            self._coordinator.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RemoteSession(collection={self._collection_name!r}, "
            f"n_series={self._n_series}, backend={self._coordinator!r})"
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
    policy: Optional[PlanPolicy] = None,
):
    """One entry point for every deployment shape.

    * ``connect("tcp://host:port")`` / ``"tcp://host:port/name"`` — a
      :class:`RemoteSession` over one daemon: a
      :class:`ClusterCoordinator` whose shard map is the single entry
      ``[0, N)``;
    * ``connect("catalog.db")`` — if the named collection has a shard
      map, a :class:`RemoteSession` scattering across the fleet
      (:class:`ClusterCoordinator`); otherwise an in-process
      :class:`~repro.queries.session.SimilaritySession` over the
      cataloged mmap;
    * ``connect("/data/my_collection")`` (a saved collection directory
      or manifest) — an in-process session.

    Every return value supports the same fluent chain::

        session = connect("tcp://127.0.0.1:7791/trades")
        hits = session.queries().using(DustTechnique()).knn(10)

    with identical result structures and validation errors.  A
    ``policy=PlanPolicy(...)`` rides along to whichever session shape
    comes back, switching the index stage on or off uniformly.
    ``timeout`` is the per-request budget of both daemon shapes (see
    :class:`ClusterCoordinator`); ``allow_partial`` only changes a
    fleet's answers, since one daemon's failure leaves no survivors.
    From one daemon, an error reply raises as
    :class:`~repro.service.client.ServiceError` with the daemon's
    ``error_type``, and a transport failure that survives the one retry
    as the ``OSError`` it raised.
    """
    import os

    from ..core.mmapio import load_collection
    from ..queries.session import SimilaritySession

    address = os.fspath(address_or_path)
    if address.startswith("tcp://"):
        host, port, url_name = _parse_tcp_address(address)
        requested = collection if collection is not None else url_name
        with ServiceClient(host, port, timeout=timeout) as client:
            name, n_series = _resolve_remote_collection(client, requested)
        # The daemon answers [0, N) from its whole-collection session.
        shard_map = (ShardEntry(0, host, port, 0, n_series),)
    elif os.path.isdir(address) or address.endswith(".json"):
        return SimilaritySession(load_collection(address), policy=policy)
    else:
        catalog = ServiceCatalog(address, readonly=True)
        try:
            names = catalog.names()
            if collection is not None:
                name = collection
            elif len(names) == 1:
                name = names[0]
            else:
                raise InvalidParameterError(
                    f"catalog {address!r} holds {len(names)} collections "
                    f"({', '.join(names) or 'none'}); pass collection=..."
                )
            n_series = catalog.get(name).n_series
            shard_map = catalog.shard_map(name)
            mapped = None if shard_map else catalog.open_collection(name)
        finally:
            catalog.close()
        if mapped is not None:
            return SimilaritySession(mapped, policy=policy)
    coordinator = ClusterCoordinator(
        {name: shard_map}, timeout=timeout, allow_partial=allow_partial
    )
    return RemoteSession(coordinator, name, n_series, policy=policy)
