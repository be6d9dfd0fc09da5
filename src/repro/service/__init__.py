"""Similarity service: persistent catalog + concurrent query daemon.

The library answers a workload only after paying collection load,
materialization-cache warmup and index adoption in *every* process.  The
service subsystem turns that library into a long-lived system:

* :mod:`repro.service.catalog` — a WAL-mode SQLite catalog registering
  collections by name → mmap manifest path (plus persisted index
  artifacts), schema-versioned with migration on open, so a restarted
  daemon recovers every registered collection instantly;
* :mod:`repro.service.daemon` — an asyncio socket server holding warmed
  :class:`~repro.queries.session.SimilaritySession` objects over mapped
  collections, answering concurrent kNN / range / prob-range requests
  over the versioned JSON protocol of :mod:`repro.service.protocol`,
  executing kernels in a thread pool so the event loop never blocks,
  and draining in-flight work on shutdown;
* :mod:`repro.service.batching` — admission control that coalesces
  compatible queued requests (same collection / technique / parameters)
  into one planner ``(M, N)`` matrix execution and scatters the
  per-query results; a batch key with nothing executing dispatches at
  once, and later requests coalesce behind the running batch;
* :mod:`repro.service.client` — a blocking :class:`ServiceClient` for
  scripts and the ``python -m repro.cli query`` command;
* :mod:`repro.service.cluster` — distributed scatter-gather serving: a
  catalog shard map routes contiguous candidate slices of one
  collection to shard daemons, and :class:`ClusterCoordinator` scatters
  each query, retries a failed shard once (and hedges a slow one only
  under a fixed ``hedge_after``), and merges replies bit-identically to
  an in-process session.  :func:`connect` is the one entry point over
  every deployment shape.

Start a daemon and query it through the unified fluent surface::

    python -m repro.cli serve --catalog /data/catalog.db \
        --register trades=/data/trades_collection

    from repro.api import connect, DustTechnique
    with connect("tcp://127.0.0.1:7791/trades") as session:
        hits = session.queries().using(DustTechnique()).knn(10)
        hits.indices          # (M, k) neighbor table
        hits.pruning_stats    # merged planner statistics
"""

from __future__ import annotations

from .batching import BatchQueue, batch_key, merge_requests, scatter_rows
from .catalog import CatalogEntry, CatalogError, ServiceCatalog, ShardEntry
from .client import ServiceClient, ServiceError, ServiceResult
from .cluster import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterError,
    RemoteBackend,
    RemoteSession,
    connect,
)
from .daemon import SimilarityDaemon
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    TECHNIQUE_NAMES,
    build_technique,
    technique_key,
    technique_spec,
)

__all__ = [
    "BatchQueue",
    "batch_key",
    "merge_requests",
    "scatter_rows",
    "CatalogEntry",
    "CatalogError",
    "ServiceCatalog",
    "ShardEntry",
    "ServiceClient",
    "ServiceError",
    "ServiceResult",
    "SimilarityDaemon",
    "ClusterCoordinator",
    "ClusterBackend",
    "ClusterError",
    "RemoteBackend",
    "RemoteSession",
    "connect",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TECHNIQUE_NAMES",
    "build_technique",
    "technique_key",
    "technique_spec",
]
