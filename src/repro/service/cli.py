"""``python -m repro.cli serve`` / ``query`` — the service's shell surface.

Start a daemon over a catalog (registering collections on the way up)::

    python -m repro.cli serve --catalog /data/catalog.db --port 7791 \
        --register trades=/data/trades_collection

Query it from another shell::

    python -m repro.cli query --port 7791 --collection trades \
        --knn 10 --technique dust --queries 0,1,2
    python -m repro.cli query --port 7791 --collection sensors \
        --prob-range 4.0 0.4 --technique proud
    python -m repro.cli query --port 7791 --status

Shard a collection across a daemon fleet (pure routing metadata — every
shard daemon maps the same manifest)::

    python -m repro.cli shard-map --catalog /data/catalog.db \
        --collection trades \
        --shard 10.0.0.1:7791:0:50000 --shard 10.0.0.2:7791:50000:100000
    python -m repro.cli shard-map --catalog /data/catalog.db \
        --collection trades --show
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from ..queries.planner import POLICY_MODES, PlanPolicy
from .catalog import ServiceCatalog
from .client import ServiceClient
from .daemon import SimilarityDaemon
from .protocol import TECHNIQUE_NAMES


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli serve",
        description="Run the similarity-service daemon over a catalog.",
    )
    parser.add_argument(
        "--catalog",
        required=True,
        help="path of the WAL SQLite catalog database (created if absent)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port",
        type=int,
        default=7791,
        help="bind port (0 picks an ephemeral port; default 7791)",
    )
    parser.add_argument(
        "--register",
        action="append",
        default=[],
        metavar="NAME=PATH",
        help="register a saved collection before serving (repeatable)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request timeout (default: unbounded)",
    )
    parser.add_argument(
        "--no-preload",
        action="store_true",
        help="warm sessions lazily on first query instead of at startup",
    )
    return parser


def serve_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli serve``."""
    args = build_serve_parser().parse_args(argv)
    catalog = ServiceCatalog(args.catalog)
    for item in args.register:
        name, _, path = item.partition("=")
        if not name or not path:
            print(
                f"--register expects NAME=PATH, got {item!r}",
                file=sys.stderr,
            )
            return 2
        catalog.register(name, path, replace=True)
        print(f"registered {name!r} -> {path}")

    def announce(daemon: SimilarityDaemon) -> None:
        warm = ", ".join(daemon.warm_collections) or "none"
        print(
            f"repro-service listening on {daemon.host}:{daemon.port} "
            f"(catalog={args.catalog}, warm: {warm})",
            flush=True,
        )

    SimilarityDaemon.run(
        catalog,
        announce=announce,
        host=args.host,
        port=args.port,
        default_timeout=args.timeout,
        preload=not args.no_preload,
    )
    print("repro-service drained and stopped", flush=True)
    return 0


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli query",
        description="Query a running similarity-service daemon.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7791)
    parser.add_argument("--collection", default=None)
    parser.add_argument(
        "--technique",
        default="euclidean",
        help=f"technique name ({', '.join(TECHNIQUE_NAMES)}), or a JSON "
        f'spec like \'{{"name": "proud", "params": {{"assumed_std": 0.7}}}}\'',
    )
    parser.add_argument(
        "--queries",
        default=None,
        metavar="I,J,...",
        help="comma-separated query indices (default: every series)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS"
    )
    verb = parser.add_mutually_exclusive_group(required=True)
    verb.add_argument("--knn", type=int, metavar="K")
    verb.add_argument("--range", type=float, metavar="EPSILON", dest="range_")
    verb.add_argument(
        "--prob-range",
        type=float,
        nargs=2,
        metavar=("EPSILON", "TAU"),
        dest="prob_range",
    )
    verb.add_argument("--status", action="store_true")
    verb.add_argument("--list", action="store_true", dest="list_")
    verb.add_argument("--shutdown", action="store_true")
    return parser


def query_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli query``."""
    parser = build_query_parser()
    args = parser.parse_args(argv)
    technique = args.technique
    if technique.strip().startswith("{"):
        technique = json.loads(technique)
    indices = None
    if args.queries is not None:
        indices = [int(part) for part in args.queries.split(",") if part]

    with ServiceClient(args.host, args.port) as client:
        if args.status:
            print(json.dumps(client.status(), indent=2))
            return 0
        if args.list_:
            print(json.dumps(client.list_collections(), indent=2))
            return 0
        if args.shutdown:
            client.shutdown()
            print("daemon stopping")
            return 0
        if args.collection is None:
            parser.error("query verbs require --collection")
        if args.knn is not None:
            op, params = "knn", {"k": int(args.knn)}
        elif args.range_ is not None:
            op, params = "range", {"epsilon": float(args.range_)}
        else:
            epsilon, tau = args.prob_range
            op, params = "prob_range", {
                "epsilon": float(epsilon),
                "tau": float(tau),
            }
        result = client.query(
            op, args.collection, params, technique, indices,
            timeout=args.timeout,
        )
        if op == "knn":
            for row, (neighbors, scores) in enumerate(
                zip(result.indices, result.scores)
            ):
                pairs = ", ".join(
                    f"{index}:{score:.4f}"
                    for index, score in zip(neighbors, scores)
                )
                print(f"query {row}: {pairs}")
        else:
            for row, found in enumerate(result.matches):
                print(f"query {row}: {found}")
    return 0


def build_explain_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli explain",
        description="Run one workload and print the plan that executed — "
        "every stage in order with the cells it decided and its wall "
        "time.  Works against every deployment shape connect() accepts: "
        "a saved collection directory, a catalog (sharded or not), or "
        "tcp://host:port.",
    )
    parser.add_argument(
        "address",
        help="collection directory, catalog database, or tcp://host:port "
        "daemon address (same grammar as repro.api.connect)",
    )
    parser.add_argument("--collection", default=None)
    parser.add_argument(
        "--technique",
        default="euclidean",
        help=f"technique name ({', '.join(TECHNIQUE_NAMES)}), or a JSON "
        f'spec like \'{{"name": "proud", "params": {{"assumed_std": 0.7}}}}\'',
    )
    parser.add_argument(
        "--queries",
        default=None,
        metavar="I,J,...",
        help="comma-separated query indices (default: every series)",
    )
    verb = parser.add_mutually_exclusive_group(required=True)
    verb.add_argument("--knn", type=int, metavar="K")
    verb.add_argument("--range", type=float, metavar="EPSILON", dest="range_")
    verb.add_argument(
        "--prob-range",
        type=float,
        nargs=2,
        metavar=("EPSILON", "TAU"),
        dest="prob_range",
    )
    parser.add_argument(
        "--mode",
        default=None,
        choices=POLICY_MODES,
        help="plan policy mode: 'auto' may prepend the index stage, "
        "'fixed' runs the technique's cascade as authored (default: the "
        "process default, 'auto')",
    )
    return parser


def explain_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli explain``."""
    from .cluster import connect
    from .registry import build_technique

    parser = build_explain_parser()
    args = parser.parse_args(argv)
    technique_spec = args.technique
    if technique_spec.strip().startswith("{"):
        technique_spec = json.loads(technique_spec)
    technique = build_technique(technique_spec)

    policy = None if args.mode is None else PlanPolicy(mode=args.mode)

    indices = None
    if args.queries is not None:
        indices = [int(part) for part in args.queries.split(",") if part]

    session = connect(args.address, collection=args.collection, policy=policy)
    try:
        query_set = session.queries(indices).using(technique)
        if args.knn is not None:
            stats = query_set.explain(k=int(args.knn))
        elif args.range_ is not None:
            stats = query_set.explain(epsilon=float(args.range_))
        else:
            epsilon, tau = args.prob_range
            stats = query_set.explain(epsilon=float(epsilon), tau=float(tau))
    finally:
        session.close()
    print(stats.summary())
    return 0


def build_cluster_status_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli cluster-status",
        description="Ping every daemon a catalog's shard maps route to "
        "and print a per-shard health table.",
    )
    parser.add_argument(
        "--catalog",
        required=True,
        help="path of the catalog database holding the shard maps",
    )
    parser.add_argument(
        "--collection",
        default=None,
        help="limit the table to one sharded collection "
        "(default: every sharded collection)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-endpoint ping timeout (default 5.0)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the health map as JSON instead of the table",
    )
    return parser


def cluster_status_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli cluster-status``.

    Exit code 0 when every pinged endpoint answered, 1 when any shard
    endpoint is down, 2 on usage errors (no sharded collections / an
    unknown collection name).
    """
    from .cluster import ClusterCoordinator

    parser = build_cluster_status_parser()
    args = parser.parse_args(argv)
    coordinator = ClusterCoordinator.from_catalog(
        args.catalog, timeout=args.timeout
    )
    try:
        names = coordinator.collections
        if args.collection is not None:
            if args.collection not in names:
                print(
                    f"collection {args.collection!r} has no shard map; "
                    f"sharded collections: {', '.join(names) or 'none'}",
                    file=sys.stderr,
                )
                return 2
            names = [args.collection]
        if not names:
            print("no sharded collections in the catalog", file=sys.stderr)
            return 2
        alive = coordinator.ping()
        if args.as_json:
            payload = {
                "endpoints": alive,
                "collections": {
                    name: [
                        {
                            "shard_index": shard.shard_index,
                            "endpoint": shard.endpoint,
                            "row_start": shard.row_start,
                            "row_stop": shard.row_stop,
                            "alive": alive.get(shard.endpoint, False),
                        }
                        for shard in coordinator.shard_map(name)
                    ]
                    for name in names
                },
            }
            print(json.dumps(payload, indent=2))
        else:
            for name in names:
                print(f"{name}:")
                for shard in coordinator.shard_map(name):
                    state = (
                        "up"
                        if alive.get(shard.endpoint, False)
                        else "DOWN"
                    )
                    print(
                        f"  shard {shard.shard_index}  "
                        f"{shard.endpoint:21s} "
                        f"rows [{shard.row_start}, {shard.row_stop})  "
                        f"{state}"
                    )
        return 0 if all(alive.values()) else 1
    finally:
        coordinator.close()


def build_shard_map_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli shard-map",
        description="Install, show, or clear a collection's cluster "
        "shard map (routing metadata for scatter-gather serving).",
    )
    parser.add_argument(
        "--catalog",
        required=True,
        help="path of the catalog database holding the collection",
    )
    parser.add_argument("--collection", required=True)
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="HOST:PORT:START:STOP",
        help="one shard entry (repeatable, in shard order); the "
        "[START, STOP) slices must tile the collection exactly",
    )
    action.add_argument(
        "--show",
        action="store_true",
        help="print the installed shard map as JSON",
    )
    action.add_argument(
        "--clear",
        action="store_true",
        help="remove the shard map (the collection serves unsharded)",
    )
    return parser


def shard_map_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of ``python -m repro.cli shard-map``."""
    parser = build_shard_map_parser()
    args = parser.parse_args(argv)
    with ServiceCatalog(args.catalog) as catalog:
        if args.show:
            entries = [
                {
                    "shard_index": shard.shard_index,
                    "endpoint": shard.endpoint,
                    "row_start": shard.row_start,
                    "row_stop": shard.row_stop,
                }
                for shard in catalog.shard_map(args.collection)
            ]
            print(json.dumps(entries, indent=2))
            return 0
        if args.clear:
            catalog.clear_shard_map(args.collection)
            print(f"cleared shard map of {args.collection!r}")
            return 0
        shards = []
        for item in args.shard:
            parts = item.rsplit(":", 3)
            if len(parts) != 4:
                print(
                    f"--shard expects HOST:PORT:START:STOP, got {item!r}",
                    file=sys.stderr,
                )
                return 2
            host, port, start, stop = parts
            shards.append((host, int(port), int(start), int(stop)))
        installed = catalog.set_shard_map(args.collection, shards)
        for shard in installed:
            print(
                f"shard {shard.shard_index}: {shard.endpoint} serves "
                f"[{shard.row_start}, {shard.row_stop})"
            )
    return 0
