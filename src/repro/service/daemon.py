"""The similarity daemon: warmed sessions behind an asyncio socket server.

One long-lived process holds a :class:`~repro.service.catalog.ServiceCatalog`
plus one warmed :class:`~repro.queries.session.SimilaritySession` per
registered collection, so clients pay the kernel — never collection
load, materialization warmup or index adoption.  The event loop only
parses and routes: every kernel executes in a thread pool
(`numpy` releases the GIL inside the GEMM/DP kernels), and compatible
concurrent requests coalesce through the
:class:`~repro.service.batching.BatchQueue` into one planner ``(M, N)``
execution.  A batch key with nothing executing dispatches at once;
requests that arrive while its batch runs coalesce into the next one.

Lifecycle::

    daemon = SimilarityDaemon(ServiceCatalog("catalog.db"))
    await daemon.start()          # binds, preloads cataloged sessions
    await daemon.serve_forever()  # until stop() / SIGTERM / shutdown op

    SimilarityDaemon.run(...)     # blocking entry with signal handlers

Shutdown is graceful: the listener closes first (no new connections),
in-flight batches drain to completion and their responses flush, then
sessions close (idempotent — see
:meth:`~repro.queries.session.SimilaritySession.close`) and the pool
shuts down.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidParameterError, ReproError
from ..core.mmapio import MappedCollection
from ..core.series import TimeSeries
from ..queries.engine import QueryEngine
from ..queries.planner import PlanPolicy
from ..queries.session import SimilaritySession
from ..queries.techniques import (
    EuclideanTechnique,
    Technique,
    _epsilon_vector,
)
from .batching import (
    MAX_BATCH,
    BatchQueue,
    QueryJob,
    batch_key,
    execute_batch,
    execute_shard_batch,
    scatter_rows,
)
from .catalog import CatalogError, ServiceCatalog
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    QUERY_OPS,
    ProtocolError,
    Request,
    build_technique,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
    stats_payload,
    technique_key,
    wire_number,
)

#: How long stop() waits for in-flight work before force-closing.
DRAIN_TIMEOUT = 30.0


class SimilarityDaemon:
    """A concurrent query daemon over one service catalog.

    Parameters
    ----------
    catalog:
        A :class:`ServiceCatalog` (or a path, opened writable).
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    pool_size:
        Kernel worker threads (default: ``min(8, cpu)``).
    default_timeout:
        Per-request timeout (seconds) applied when a request carries
        none; ``None`` means unbounded.
    preload:
        Warm a session for every cataloged collection during
        :meth:`start` — the instant-warm-restart path.  Collections
        registered later warm lazily on first query.
    """

    def __init__(
        self,
        catalog: Union[ServiceCatalog, str],
        host: str = "127.0.0.1",
        port: int = 0,
        pool_size: Optional[int] = None,
        default_timeout: Optional[float] = None,
        preload: bool = True,
    ) -> None:
        if isinstance(catalog, ServiceCatalog):
            self._catalog = catalog
            self._owns_catalog = False
        else:
            self._catalog = ServiceCatalog(catalog)
            self._owns_catalog = True
        self.host = host
        self.port = int(port)
        self.default_timeout = default_timeout
        self.preload = preload
        if pool_size is None:
            import os

            pool_size = min(8, os.cpu_count() or 1)
        self._pool = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-service"
        )
        self._queue = BatchQueue(self._dispatch)
        self._sessions: Dict[str, SimilaritySession] = {}
        self._session_locks: Dict[Any, asyncio.Lock] = {}
        # Column-shard serving: the full mmap per collection (query items
        # resolve by *global* index) plus one warmed session per served
        # slice — a shard daemon never materializes columns outside its
        # slice, which is the whole point of scattering.
        self._maps: Dict[str, MappedCollection] = {}
        self._shard_sessions: Dict[
            Tuple[str, int, int], SimilaritySession
        ] = {}
        self._techniques: Dict[
            Tuple[str, str], Tuple[Technique, threading.Lock]
        ] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._writers: set = set()
        self._conn_tasks: set = set()
        self._stop_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._started_at = 0.0
        self._requests_served = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def catalog(self) -> ServiceCatalog:
        """The catalog this daemon serves."""
        return self._catalog

    @property
    def warm_collections(self) -> List[str]:
        """Names of collections with a warmed session."""
        return sorted(self._sessions)

    async def start(self) -> None:
        """Bind the listener and (by default) preload cataloged sessions."""
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client,
            host=self.host,
            port=self.port,
            limit=MAX_LINE_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()
        if self.preload:
            for name in self._catalog.names():
                await self._get_session(name)

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` (or the ``shutdown`` op) completes."""
        if self._server is None:
            await self.start()
        assert self._stop_event is not None
        await self._stop_event.wait()
        await self._shutdown()

    async def stop(self) -> None:
        """Request shutdown; :meth:`serve_forever` performs the drain."""
        if self._stop_event is not None:
            self._stopping = True
            self._stop_event.set()

    async def _shutdown(self) -> None:
        """Stop accepting, drain in-flight work, release every resource."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(self._queue.drain(), DRAIN_TIMEOUT)
        # Batches resolved; let connection handlers flush their final
        # responses (they exit after the current request because
        # _stopping is set), then close lingering idle connections —
        # their readline sees EOF and the handler returns.
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=1.0)
        for writer in list(self._writers):
            writer.close()
        if self._conn_tasks:
            await asyncio.wait(list(self._conn_tasks), timeout=5.0)
        self._pool.shutdown(wait=True)
        for session in self._sessions.values():
            session.close()
        for session in self._shard_sessions.values():
            session.close()
        self._sessions.clear()
        self._shard_sessions.clear()
        self._maps.clear()
        self._techniques.clear()
        if self._owns_catalog:
            self._catalog.close()

    @classmethod
    def run(
        cls,
        catalog: Union[ServiceCatalog, str],
        announce=None,
        **kwargs,
    ) -> None:
        """Blocking entry point with SIGINT/SIGTERM graceful shutdown.

        ``announce(daemon)`` is called once the socket is bound (the CLI
        prints the ready line clients and smoke tests wait for).
        """

        async def _main() -> None:
            daemon = cls(catalog, **kwargs)
            await daemon.start()
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                with contextlib.suppress(NotImplementedError, ValueError):
                    loop.add_signal_handler(
                        signum,
                        lambda: asyncio.ensure_future(daemon.stop()),
                    )
            if announce is not None:
                announce(daemon)
            await daemon.serve_forever()

        asyncio.run(_main())

    # -- sessions and techniques -------------------------------------------

    @staticmethod
    def _warm_session(collection: MappedCollection) -> SimilaritySession:
        """An in-process session over ``collection``, primed by a probe.

        One 1-NN probe fills the engine's kernel caches (materialized
        matrices, norm stacks, index adoption) so a restarted daemon's
        first real query pays only its own kernel — the warm-start
        contract the service benchmark gates on.  Kinds without a
        distance path just skip the probe.
        """
        session = SimilaritySession(
            collection, engine=QueryEngine(max_collections=8)
        )
        if len(session) > 1:
            with contextlib.suppress(ReproError):
                session.queries([0]).using(EuclideanTechnique()).knn(1)
        return session

    def _build_session(self, name: str) -> SimilaritySession:
        return self._warm_session(self._catalog.open_collection(name))

    async def _get_session(self, name: str) -> SimilaritySession:
        session = self._sessions.get(name)
        if session is not None:
            return session
        lock = self._session_locks.setdefault(name, asyncio.Lock())
        async with lock:
            session = self._sessions.get(name)
            if session is None:
                loop = asyncio.get_running_loop()
                session = await loop.run_in_executor(
                    self._pool, self._build_session, name
                )
                self._sessions[name] = session
            return session

    def _collection_map(self, name: str) -> MappedCollection:
        """The full mmap of ``name`` (cached; O(1) — pages fault lazily)."""
        mapped = self._maps.get(name)
        if mapped is None:
            mapped = self._catalog.open_collection(name)
            self._maps[name] = mapped
        return mapped

    def _build_shard_session(
        self, name: str, start: int, stop: int
    ) -> SimilaritySession:
        """A warmed session over the column slice ``[start, stop)``.

        The slice is a zero-copy view of the same full manifest every
        peer daemon maps — only the sliced columns materialize, so a
        4-shard daemon fleet holds each column's dense matrices exactly
        once between them.
        """
        mapped = self._collection_map(name)
        if stop > len(mapped):
            raise ProtocolError(
                f"candidates [{start}, {stop}) exceed collection "
                f"{name!r} with {len(mapped)} series"
            )
        return self._warm_session(mapped.shard(start, stop))

    async def _get_shard_session(
        self, name: str, start: int, stop: int
    ) -> SimilaritySession:
        key = (name, start, stop)
        session = self._shard_sessions.get(key)
        if session is not None:
            return session
        lock = self._session_locks.setdefault(key, asyncio.Lock())
        async with lock:
            session = self._shard_sessions.get(key)
            if session is None:
                loop = asyncio.get_running_loop()
                session = await loop.run_in_executor(
                    self._pool,
                    self._build_shard_session,
                    name,
                    start,
                    stop,
                )
                self._shard_sessions[key] = session
            return session

    def _technique_for(
        self, collection: str, spec_key: str
    ) -> Tuple[Technique, threading.Lock]:
        """One long-lived technique instance per (collection, spec).

        Reusing the instance keeps its engine-side caches (DUST tables,
        filtered stacks) warm across requests; the paired lock
        serializes executions because :meth:`SimilaritySession.bound`
        temporarily rebinds the technique's engine.
        """
        entry = self._techniques.get((collection, spec_key))
        if entry is None:
            technique = build_technique(json.loads(spec_key))
            entry = (technique, threading.Lock())
            self._techniques[(collection, spec_key)] = entry
        return entry

    # -- request execution --------------------------------------------------

    def _resolve_queries(
        self, request: Request, collection: Sequence
    ) -> Tuple[Sequence, np.ndarray]:
        """A request's query rows as (items, **global** positions).

        ``collection`` is always the *full* collection — a column-sliced
        request still names its query rows by global index (the cluster
        coordinator scatters one query set to every shard), so items
        resolve off the full mmap even when the kernel only scores a
        slice.
        """
        spec = request.queries
        if spec is None:
            return collection, np.arange(len(collection), dtype=np.intp)
        if "indices" in spec:
            indices = np.asarray(spec["indices"], dtype=np.intp)
            if indices.ndim != 1 or indices.size == 0:
                raise ProtocolError(
                    "'queries.indices' must be a non-empty flat list"
                )
            n_series = len(collection)
            if np.any(indices < 0) or np.any(indices >= n_series):
                raise ProtocolError(
                    f"query indices must be within [0, {n_series - 1}]"
                )
            return [collection[int(i)] for i in indices], indices
        values = np.asarray(spec["values"], dtype=np.float64)
        if values.ndim == 1:
            values = values[None, :]
        if values.ndim != 2:
            raise ProtocolError(
                f"'queries.values' must be a (M, n) list of rows, got "
                f"shape {values.shape}"
            )
        if getattr(collection, "kind", "exact") != "exact":
            raise ProtocolError(
                "raw-value queries are only supported against exact-kind "
                "collections; query by 'indices' instead"
            )
        items = [TimeSeries(row) for row in values]
        return items, np.full(len(items), -1, dtype=np.intp)

    def _validate_params(
        self, request: Request, n_queries: int
    ) -> Dict[str, Any]:
        """The request's params, each checked against its own rows.

        Validated before admission: a malformed request is rejected
        alone instead of failing every request it would coalesce with.
        """
        params = dict(request.params)
        if request.op == "knn":
            k = wire_number(params.get("k"), "params.k", integer=True)
            if k < 1:
                raise ProtocolError(
                    f"knn requires integer params.k >= 1, got {k!r}"
                )
        elif request.op in ("range", "prob_range"):
            if "epsilon" not in params:
                raise ProtocolError(
                    f"{request.op} requires params.epsilon"
                )
            epsilon = params["epsilon"]
            for value in epsilon if isinstance(epsilon, list) else [epsilon]:
                wire_number(value, "params.epsilon")
            try:
                _epsilon_vector(epsilon, n_queries)
            except InvalidParameterError as error:
                raise ProtocolError(
                    f"invalid params.epsilon: {error}"
                ) from error
            if request.op == "prob_range":
                tau = wire_number(params.get("tau"), "params.tau")
                if not 0.0 <= tau <= 1.0:
                    raise ProtocolError(
                        f"prob_range requires params.tau in [0, 1], "
                        f"got {tau!r}"
                    )
        policy = params.get("policy")
        if policy is not None:
            if not isinstance(policy, dict):
                raise ProtocolError(
                    f"params.policy must be a PlanPolicy wire object, "
                    f"got {type(policy).__name__}"
                )
            try:
                PlanPolicy.from_wire(policy)
            except InvalidParameterError as error:
                raise ProtocolError(
                    f"invalid params.policy: {error}"
                ) from error
        return params

    async def _dispatch(
        self, key: Tuple, jobs: List[QueryJob]
    ) -> List[Tuple[Dict, Optional[Dict], float]]:
        """BatchQueue dispatch: one merged kernel run in the thread pool."""
        collection_name, spec_key, op = key[0], key[1], key[2]
        candidates = jobs[0].candidates
        if candidates is None:
            session = await self._get_session(collection_name)
        else:
            session = await self._get_shard_session(
                collection_name, candidates[0], candidates[1]
            )
        technique, lock = self._technique_for(collection_name, spec_key)

        def _run() -> List[Tuple[Dict, Optional[Dict], float]]:
            with lock:
                started = time.perf_counter()
                if candidates is None:
                    result, slices = execute_batch(
                        session, technique, op, jobs
                    )
                else:
                    result, slices = execute_shard_batch(
                        session, technique, op, jobs, candidates[0]
                    )
                elapsed = time.perf_counter() - started
            stats = stats_payload(result.pruning_stats)
            return [
                (scatter_rows(result, job_slice), stats, elapsed)
                for job_slice in slices
            ]

        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._pool, _run)

    async def _execute_query(self, request: Request) -> Dict[str, Any]:
        if request.candidates is None:
            session = await self._get_session(request.collection)
            source = session.collection
        else:
            start, stop = request.candidates
            await self._get_shard_session(request.collection, start, stop)
            source = self._collection_map(request.collection)
        items, positions = self._resolve_queries(request, source)
        params = self._validate_params(request, len(items))
        job = QueryJob(
            request_id=request.request_id,
            op=request.op,
            items=items,
            positions=positions,
            params=params,
            candidates=request.candidates,
        )
        key = batch_key(
            request.collection,
            technique_key(request.technique),
            request.op,
            params,
            candidates=request.candidates,
        )
        waiter = self._queue.submit(key, job)
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.default_timeout
        )
        if timeout is not None:
            (payload, stats, elapsed), info = await asyncio.wait_for(
                waiter, timeout
            )
        else:
            (payload, stats, elapsed), info = await waiter
        return ok_response(
            request.request_id,
            payload,
            stats=stats,
            batch=info.payload(),
            elapsed_ms=elapsed * 1e3,
        )

    # -- control ops --------------------------------------------------------

    async def _execute_control(self, request: Request) -> Dict[str, Any]:
        if request.op == "ping":
            return ok_response(
                request.request_id, {"pong": True, "v": PROTOCOL_VERSION}
            )
        if request.op == "status":
            return ok_response(
                request.request_id,
                {
                    "protocol": PROTOCOL_VERSION,
                    "collections": self._catalog.names(),
                    "warm": self.warm_collections,
                    "shard_sessions": [
                        {"collection": name, "start": start, "stop": stop}
                        for name, start, stop in sorted(self._shard_sessions)
                    ],
                    "uptime_seconds": round(
                        time.monotonic() - self._started_at, 3
                    ),
                    "requests_served": self._requests_served,
                    "batching": {"max_batch": MAX_BATCH},
                },
            )
        if request.op == "list":
            entries = self._catalog.entries()
            return ok_response(
                request.request_id,
                {
                    "collections": [
                        {
                            "name": entry.name,
                            "manifest_path": entry.manifest_path,
                            "kind": entry.kind,
                            "n_series": entry.n_series,
                            "length": entry.length,
                            "indexed": entry.indexed,
                            "registered_at": entry.registered_at,
                            "warm": entry.name in self._sessions,
                        }
                        for entry in entries
                    ]
                },
            )
        if request.op == "register":
            name = request.params.get("name")
            path = request.params.get("path")
            if not isinstance(name, str) or not isinstance(path, str):
                raise ProtocolError(
                    "register requires params.name and params.path"
                )
            loop = asyncio.get_running_loop()
            entry = await loop.run_in_executor(
                self._pool,
                lambda: self._catalog.register(
                    name, path, replace=bool(request.params.get("replace"))
                ),
            )
            # A replaced manifest may differ from the warmed session.
            stale = self._sessions.pop(name, None)
            if stale is not None:
                stale.close()
            self._maps.pop(name, None)
            for key in [k for k in self._shard_sessions if k[0] == name]:
                self._shard_sessions.pop(key).close()
            await self._get_session(name)
            return ok_response(
                request.request_id,
                {"registered": entry.name, "n_series": entry.n_series},
            )
        if request.op == "shutdown":
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop())
            )
            return ok_response(request.request_id, {"stopping": True})
        raise ProtocolError(f"unhandled control op {request.op!r}")

    # -- the connection loop ------------------------------------------------

    async def _serve_line(self, line: bytes) -> Dict[str, Any]:
        request_id: Optional[str] = None
        try:
            payload = decode_message(line)
            request_id = (
                payload.get("id")
                if isinstance(payload.get("id"), str)
                else None
            )
            request = parse_request(payload)
            if request.op in QUERY_OPS:
                response = await self._execute_query(request)
            else:
                response = await self._execute_control(request)
            self._requests_served += 1
            return response
        except asyncio.TimeoutError:
            return error_response(
                request_id,
                "Timeout",
                "request exceeded its timeout before completing",
            )
        except ProtocolError as error:
            return error_response(request_id, "ProtocolError", str(error))
        except CatalogError as error:
            return error_response(request_id, "CatalogError", str(error))
        except ReproError as error:
            return error_response(
                request_id, type(error).__name__, str(error)
            )
        except Exception as error:  # noqa: BLE001 — the daemon must survive
            return error_response(
                request_id,
                "InternalError",
                f"{type(error).__name__}: {error}",
            )

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_message(
                            error_response(
                                None,
                                "ProtocolError",
                                f"request line exceeds {MAX_LINE_BYTES} "
                                f"bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                response = await self._serve_line(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._writers.discard(writer)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()
