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
  running each request as exactly one planner execution in a thread
  pool so the event loop never blocks, and draining in-flight work on
  shutdown;
* :mod:`repro.service.client` — a blocking :class:`ServiceClient` for
  scripts and the ``python -m repro.cli query`` command, and the one
  connection class every client path sends through;
* :mod:`repro.service.cluster` — distributed scatter-gather serving: a
  catalog shard map routes contiguous candidate slices of one
  collection to shard daemons, and :class:`ClusterCoordinator` scatters
  each query as one request per shard, retries a shard once after a
  transport failure, and merges replies bit-identically to an
  in-process session.  :func:`connect` is the one entry point over
  every deployment shape; a ``tcp://`` address is one daemon as a
  one-shard map, so every remote session runs this path.

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

from .catalog import CatalogEntry, CatalogError, ServiceCatalog, ShardEntry
from .client import ServiceClient, ServiceError, ServiceResult
from .cluster import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterError,
    RemoteSession,
    connect,
)
from .daemon import SimilarityDaemon
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    TECHNIQUE_NAMES,
    build_technique,
    technique_spec,
)

__all__ = [
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
    "RemoteSession",
    "connect",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TECHNIQUE_NAMES",
    "build_technique",
    "technique_spec",
]
