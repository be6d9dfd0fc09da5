"""Bench for Figure 15: per-dataset F1 with mixed uniform errors,
Euclidean / DUST / UMA / UEMA.

Paper shape (headline result): UMA and UEMA consistently beat DUST and
Euclidean, which track each other.
"""

from __future__ import annotations

from repro.experiments import (
    format_moving_average_figure,
    get_scale,
    run_figure15,
    summarize_means,
)


def bench_figure15(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure15,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig15_seed{seed}", format_moving_average_figure(15, rows))
    means = summarize_means(rows)
    assert means["UMA(w=2)"] > means["Euclidean"], means
    assert means["UEMA(w=2, lambda=1)"] > means["Euclidean"], means
