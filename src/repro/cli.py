"""Command-line interface: regenerate any paper figure from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig05 --scale tiny
    python -m repro.cli fig16 --seed 7 --out results.txt
    python -m repro.cli uniformity
    python -m repro.cli all --scale reduced

Each figure command runs the corresponding experiment at the requested
scale and prints the same rows/series the paper's figure plots (the same
renderers the benchmarks use).

The similarity service rides on two subcommands (see
:mod:`repro.service.cli` for their options)::

    python -m repro.cli serve --catalog catalog.db --register name=dir
    python -m repro.cli query --port 7791 --collection name --knn 10
    python -m repro.cli shard-map --catalog catalog.db --collection name \
        --shard host:7791:0:500 --shard host:7792:500:1000
    python -m repro.cli cluster-status --catalog catalog.db
    python -m repro.cli explain /data/collection --technique dust --knn 10
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Callable, Dict, Optional, Tuple

from .experiments import (
    format_figure4,
    format_figure5,
    format_moving_average_figure,
    format_parameter_sweep,
    format_per_dataset_f1,
    format_precision_recall,
    format_timing_table,
    format_uniformity_check,
    get_scale,
    run_figure4,
    run_figure5,
    run_figure6,
    run_figure7,
    run_figure8,
    run_figure9,
    run_figure10,
    run_figure11,
    run_figure12,
    run_figure13,
    run_figure14,
    run_figure15,
    run_figure16,
    run_figure17,
    run_uniformity_check,
)
from .experiments.config import EXPERIMENT_SEED

#: figure name -> (runner, renderer) pairs; renderers close over titles.
_COMMANDS: Dict[str, Tuple[Callable, Callable]] = {
    "fig04": (run_figure4, format_figure4),
    "fig05": (run_figure5, format_figure5),
    "fig06": (
        run_figure6,
        lambda r: format_precision_recall("Figure 6", "PROUD", r),
    ),
    "fig07": (
        run_figure7,
        lambda r: format_precision_recall("Figure 7", "DUST", r),
    ),
    "fig08": (
        run_figure8,
        lambda r: format_per_dataset_f1(
            "Figure 8 — mixed normal error (20% σ=1.0, 80% σ=0.4)", r
        ),
    ),
    "fig09": (
        run_figure9,
        lambda r: format_per_dataset_f1(
            "Figure 9 — mixed uniform+normal+exponential error", r
        ),
    ),
    "fig10": (
        run_figure10,
        lambda r: format_per_dataset_f1(
            "Figure 10 — σ misreported as constant 0.7", r
        ),
    ),
    "fig11": (
        run_figure11,
        lambda r: format_timing_table(
            "Figure 11 — time per query vs error σ", r, "sigma"
        ),
    ),
    "fig12": (
        run_figure12,
        lambda r: format_timing_table(
            "Figure 12 — time per query vs series length", r, "length"
        ),
    ),
    "fig13": (
        run_figure13,
        lambda r: format_parameter_sweep(
            "Figure 13 — F1 vs window size w", "w", r
        ),
    ),
    "fig14": (
        run_figure14,
        lambda r: format_parameter_sweep(
            "Figure 14 — F1 vs decaying factor λ", "lambda", r
        ),
    ),
    "fig15": (run_figure15, lambda r: format_moving_average_figure(15, r)),
    "fig16": (run_figure16, lambda r: format_moving_average_figure(16, r)),
    "fig17": (run_figure17, lambda r: format_moving_average_figure(17, r)),
    "uniformity": (run_uniformity_check, format_uniformity_check),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description="Regenerate figures from 'Uncertain Time-Series "
        "Similarity: Return to the Basics' (VLDB 2012).",
    )
    parser.add_argument(
        "figure",
        help="figure to regenerate (fig04..fig17, uniformity), "
        "'all', or 'list'; the similarity service runs under the "
        "'serve' and 'query' subcommands",
    )
    parser.add_argument(
        "--scale",
        default=None,
        choices=("tiny", "reduced", "full"),
        help="experiment scale (default: $REPRO_SCALE or 'reduced')",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=EXPERIMENT_SEED,
        help=f"experiment seed (default {EXPERIMENT_SEED})",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="after each figure, print the query planner's pruning "
        "statistics (candidates decided per stage, visited/skipped "
        "cells, index selectivity, refinements run, Monte Carlo "
        "samples evaluated, per-stage wall time)",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the rendered tables to this file",
    )
    return parser


def _render_stats_log() -> str:
    """Drain the harness stats log into one merged-per-technique block."""
    from dataclasses import replace

    from .evaluation.harness import drain_stats_log

    grouped: Dict[str, list] = {}
    order = []
    for name, stats in drain_stats_log():
        if name not in grouped:
            order.append(name)
        grouped.setdefault(name, []).append(stats)
    if not order:
        return "[no pruning stats recorded]"
    lines = ["pruning statistics (merged over this command's plans):"]
    for name in order:
        records = grouped[name]
        combined = records[0]
        for extra in records[1:]:
            combined = combined.merged(extra)
        combined = replace(
            combined,
            cells=sum(record.total_cells for record in records),
        )
        lines.append(combined.summary())
    return "\n".join(lines)


def run_command(
    name: str, scale_name: Optional[str], seed: int, stats: bool = False
) -> str:
    """Run one figure command and return its rendered table."""
    runner, renderer = _COMMANDS[name]
    scale = get_scale(scale_name)
    started = time.perf_counter()
    results = runner(scale=scale, seed=seed)
    elapsed = time.perf_counter() - started
    table = renderer(results)
    rendered = (
        f"{table}\n[{name}: scale={scale.name}, seed={seed}, "
        f"{elapsed:.1f}s]"
    )
    if stats:
        rendered = f"{rendered}\n\n{_render_stats_log()}"
    return rendered


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    # Service subcommands route before the figure parser so the figure
    # surface (positional figure name) stays byte-compatible.
    if argv and argv[0] == "serve":
        from .service.cli import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "query":
        from .service.cli import query_main

        return query_main(argv[1:])
    if argv and argv[0] == "shard-map":
        from .service.cli import shard_map_main

        return shard_map_main(argv[1:])
    if argv and argv[0] == "cluster-status":
        from .service.cli import cluster_status_main

        return cluster_status_main(argv[1:])
    if argv and argv[0] == "explain":
        from .service.cli import explain_main

        return explain_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.stats:
        from .evaluation.harness import enable_stats_log

        enable_stats_log()

    if args.figure == "list":
        print("available figures:")
        for name in _COMMANDS:
            print(f"  {name}")
        print("  all")
        return 0

    if args.figure == "all":
        names = list(_COMMANDS)
    elif args.figure in _COMMANDS:
        names = [args.figure]
    else:
        known = ", ".join([*_COMMANDS, "all", "list"])
        parser.error(f"unknown figure {args.figure!r}; choose from: {known}")
        return 2  # unreachable; parser.error raises SystemExit

    sections = [
        run_command(name, args.scale, args.seed, stats=args.stats)
        for name in names
    ]
    output = "\n\n".join(sections)
    print(output)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(output + "\n")
        print(f"\n[written to {args.out}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
