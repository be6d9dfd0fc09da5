"""The similarity daemon: warmed sessions behind an asyncio socket server.

One long-lived process holds a :class:`~repro.service.catalog.ServiceCatalog`
plus warmed :class:`~repro.queries.session.SimilaritySession` objects, so
clients pay the kernel — never collection load, materialization warmup
or index adoption.  The event loop only parses, validates and routes:
each query request builds its own technique from its spec and becomes
exactly one call of :func:`~repro.queries.session.execute_query` — the
executor an in-process session runs — in a thread pool (`numpy`
releases the GIL inside the GEMM/DP kernels).  A technique
holds parameters only, so any requests — same technique or not — run
side by side on the pool; their warm state lives in the session's
engine (materialized matrices, filtered stacks, summaries) and in the
process-wide DUST table store, neither of which a request owns.

Every query runs against a column slice of its collection — a request
without ``candidates`` is the slice ``[0, N)`` — and the daemon keeps one
session table keyed by ``(collection, start, stop)``, every session built
from the collection's single memory map.

Lifecycle::

    daemon = SimilarityDaemon(ServiceCatalog("catalog.db"))
    await daemon.start()          # binds, preloads cataloged sessions
    await daemon.serve_forever()  # until stop() / SIGTERM / shutdown op

    SimilarityDaemon.run(...)     # blocking entry with signal handlers

Shutdown is graceful: the listener closes first (no new connections),
in-flight executions drain to completion and their responses flush,
then sessions close (idempotent — see
:meth:`~repro.queries.session.SimilaritySession.close`) and the pool
shuts down.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import InvalidParameterError, ReproError
from ..core.mmapio import MappedCollection
from ..core.series import TimeSeries
from ..queries.knn import check_knn_k
from ..queries.planner import PlanPolicy
from ..queries.session import (
    KnnResult,
    RangeResult,
    SimilaritySession,
    check_verb_kind,
    execute_query,
)
from ..queries.techniques import (
    EuclideanTechnique,
    Technique,
    _epsilon_vector,
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
    wire_number,
)

#: How long stop() waits for in-flight work before force-closing.
DRAIN_TIMEOUT = 30.0


def _wire_result(result: Union[KnnResult, RangeResult]) -> Dict[str, Any]:
    """The reply's ``result`` payload of an executed query.

    kNN rows drop the ``-1`` / ``+inf`` padding of a slice narrower than
    ``k``, so a sliced reply is ragged; range replies echo the ε vector,
    and prob-range replies τ as well.
    """
    if isinstance(result, KnnResult):
        real = result.indices >= 0
        return {
            "indices": [
                row[keep].tolist() for row, keep in zip(result.indices, real)
            ],
            "scores": [
                row[keep].tolist() for row, keep in zip(result.scores, real)
            ],
        }
    payload: Dict[str, Any] = {
        "matches": [found.tolist() for found in result.matches],
        "epsilons": result.epsilons.tolist(),
    }
    if result.tau is not None:
        payload["tau"] = result.tau
    return payload


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
        # One full mmap per collection (query items resolve by *global*
        # index) plus one warmed session per served column slice — a
        # shard daemon never materializes columns outside its slice,
        # which is the whole point of scattering.
        self._maps: Dict[str, MappedCollection] = {}
        self._sessions: Dict[Tuple[str, int, int], SimilaritySession] = {}
        self._session_locks: Dict[Tuple[str, int, int], asyncio.Lock] = {}
        self._inflight: set = set()
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
        """Names of collections with a warmed session over any slice."""
        return sorted({name for name, _, _ in self._sessions})

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
        loop = asyncio.get_running_loop()
        deadline = loop.time() + DRAIN_TIMEOUT
        while self._inflight and loop.time() < deadline:
            await asyncio.wait(
                list(self._inflight), timeout=deadline - loop.time()
            )
        # Executions resolved; let connection handlers flush their final
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
        self._sessions.clear()
        self._maps.clear()
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

    # -- sessions -----------------------------------------------------------

    @staticmethod
    def _warm_session(collection: MappedCollection) -> SimilaritySession:
        """An in-process session over ``collection``, primed by a probe.

        One 1-NN probe fills the engine's kernel caches (materialized
        matrices, norm stacks, index adoption) so a restarted daemon's
        first real query pays only its own kernel — the warm-start
        contract the service benchmark gates on.  Kinds without a
        distance path just skip the probe.
        """
        session = SimilaritySession(collection)
        if len(session) > 1:
            with contextlib.suppress(ReproError):
                session.queries([0]).using(EuclideanTechnique()).knn(1)
        return session

    def _collection_map(self, name: str) -> MappedCollection:
        """The full mmap of ``name``, opened once (O(1) — pages fault lazily).

        Called on the event loop only, so two first-seen slices of one
        collection can never open it twice.
        """
        mapped = self._maps.get(name)
        if mapped is None:
            mapped = self._maps[name] = self._catalog.open_collection(name)
        return mapped

    async def _get_session(
        self, name: str, candidates: Optional[Tuple[int, int]] = None
    ) -> SimilaritySession:
        """The warmed session over the column slice ``candidates`` of
        ``name`` (default: the whole collection, ``[0, N)``).

        Every slice is a zero-copy view of the collection's one map —
        the whole collection is the map itself, so all-series queries
        keep the self-join identity — and only the sliced columns
        materialize, so a 4-shard daemon fleet holds each column's
        dense matrices exactly once between them.
        """
        mapped = self._collection_map(name)
        start, stop = candidates or (0, len(mapped))
        if stop > len(mapped):
            raise ProtocolError(
                f"candidates [{start}, {stop}) exceed collection "
                f"{name!r} with {len(mapped)} series"
            )
        key = (name, start, stop)
        session = self._sessions.get(key)
        if session is not None:
            return session
        async with self._session_locks.setdefault(key, asyncio.Lock()):
            session = self._sessions.get(key)
            if session is None:
                view = (
                    mapped
                    if (start, stop) == (0, len(mapped))
                    else mapped.shard(start, stop)
                )
                session = await asyncio.get_running_loop().run_in_executor(
                    self._pool, self._warm_session, view
                )
                self._sessions[key] = session
            return session

    # -- request execution --------------------------------------------------

    def _resolve_queries(
        self, request: Request, collection: Sequence
    ) -> Tuple[Sequence, np.ndarray]:
        """A request's query rows as (items, **global** positions).

        ``collection`` is always the *full* collection — a column-sliced
        request still names its query rows by global index (the cluster
        coordinator scatters one query set to every shard), so items
        resolve off the full mmap even when the kernel only scores a
        slice.  Each index must be an integer within the collection, and
        each value row (a flat list is one row) one finite number per
        timestamp of the collection's series, both through
        :func:`~repro.service.protocol.wire_number`.
        """
        spec = request.queries
        if spec is None:
            return collection, np.arange(len(collection), dtype=np.intp)
        if "indices" in spec:
            indices = spec["indices"]
            if not isinstance(indices, list) or not indices:
                raise ProtocolError(
                    "'queries.indices' must be a non-empty flat list"
                )
            n_series = len(collection)
            for index in indices:
                value = wire_number(index, "queries.indices", integer=True)
                if not 0 <= value < n_series:
                    raise ProtocolError(
                        f"query indices must be within [0, {n_series - 1}]"
                    )
            positions = np.asarray(indices, dtype=np.intp)
            return [collection[int(i)] for i in positions], positions
        if getattr(collection, "kind", "exact") != "exact":
            raise ProtocolError(
                "raw-value queries are only supported against exact-kind "
                "collections; query by 'indices' instead"
            )
        rows = spec["values"]
        if isinstance(rows, list) and rows and not isinstance(rows[0], list):
            rows = [rows]
        length = collection.series_length
        if not isinstance(rows, list) or not rows or any(
            not isinstance(row, list) or len(row) != length for row in rows
        ):
            raise ProtocolError(
                f"'queries.values' must be a non-empty list of rows of "
                f"{length} numbers, the collection's series length"
            )
        for row in rows:
            for value in row:
                wire_number(value, "queries.values")
        items = [TimeSeries(row) for row in np.asarray(rows, dtype=np.float64)]
        return items, np.full(len(items), -1, dtype=np.intp)

    def _validate_params(
        self,
        request: Request,
        technique: Technique,
        positions: np.ndarray,
        n_series: int,
    ) -> Dict[str, Any]:
        """The request's params, checked against its query rows, the
        full collection and its technique before anything executes, as
        :func:`~repro.queries.session.execute_query`'s keywords: ``k``,
        or the parsed ε vector (and ``tau``), plus ``policy``.

        ``k`` is bounded by the whole collection's eligible candidates
        even for a column-sliced request: a slice narrower than ``k``
        answers with ragged rows, but no merge can rank deeper than the
        collection itself.  A wire policy is parsed here, once, into a
        :class:`~repro.queries.planner.PlanPolicy`.  Last, the op must
        suit the technique's kind (``knn`` and ``range`` need a distance
        technique, ``prob_range`` a probabilistic one).
        """
        params = request.params
        arguments: Dict[str, Any] = {}
        if request.op == "knn":
            k = wire_number(params.get("k"), "params.k", integer=True)
            if k < 1:
                raise ProtocolError(
                    f"knn requires integer params.k >= 1, got {k!r}"
                )
            check_knn_k(k, n_series, positions)
            arguments["k"] = k
        else:
            if "epsilon" not in params:
                raise ProtocolError(
                    f"{request.op} requires params.epsilon"
                )
            epsilon = params["epsilon"]
            for value in epsilon if isinstance(epsilon, list) else [epsilon]:
                wire_number(value, "params.epsilon")
            try:
                arguments["epsilon"] = _epsilon_vector(
                    epsilon, len(positions)
                )
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
                arguments["tau"] = float(tau)
        policy = params.get("policy")
        if policy is not None:
            if not isinstance(policy, dict):
                raise ProtocolError(
                    f"params.policy must be a PlanPolicy wire object, "
                    f"got {type(policy).__name__}"
                )
            try:
                arguments["policy"] = PlanPolicy.from_wire(policy)
            except InvalidParameterError as error:
                raise ProtocolError(
                    f"invalid params.policy: {error}"
                ) from error
        check_verb_kind(request.op, technique)
        return arguments

    async def _execute_query(self, request: Request) -> Dict[str, Any]:
        """One request, one planner execution in the thread pool."""
        session = await self._get_session(
            request.collection, request.candidates
        )
        mapped = self._collection_map(request.collection)
        items, positions = self._resolve_queries(request, mapped)
        technique = build_technique(request.technique)
        arguments = self._validate_params(
            request, technique, positions, len(mapped)
        )
        col_offset = request.candidates[0] if request.candidates else 0

        def run() -> Dict[str, Any]:
            # Called through this module's global, which a wrapper may
            # replace to hold or observe executions.
            result = execute_query(
                session,
                technique,
                request.op,
                items,
                positions,
                col_offset=col_offset,
                **arguments,
            )
            return ok_response(
                request.request_id,
                _wire_result(result),
                stats=stats_payload(result.pruning_stats),
                elapsed_ms=result.elapsed_seconds * 1e3,
            )

        execution = asyncio.get_running_loop().run_in_executor(
            self._pool, run
        )
        self._inflight.add(execution)
        execution.add_done_callback(self._inflight.discard)
        timeout = (
            request.timeout
            if request.timeout is not None
            else self.default_timeout
        )
        return await asyncio.wait_for(execution, timeout)

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
                    "sessions": [
                        {"collection": name, "start": start, "stop": stop}
                        for name, start, stop in sorted(self._sessions)
                    ],
                    "uptime_seconds": round(
                        time.monotonic() - self._started_at, 3
                    ),
                    "requests_served": self._requests_served,
                },
            )
        if request.op == "list":
            entries = self._catalog.entries()
            warm = set(self.warm_collections)
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
                            "warm": entry.name in warm,
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
            # A replaced manifest may differ from the warmed sessions.
            for key in [key for key in self._sessions if key[0] == name]:
                self._sessions.pop(key).close()
            self._maps.pop(name, None)
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
