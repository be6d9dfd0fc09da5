"""Bench for Figure 16: per-dataset F1 with mixed normal errors,
Euclidean / DUST / UMA / UEMA.

Paper shape: the moving-average measures on top; DUST ≈ Euclidean.
"""

from __future__ import annotations

from repro.experiments import (
    format_moving_average_figure,
    get_scale,
    run_figure16,
    summarize_means,
)


def bench_figure16(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure16,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig16_seed{seed}", format_moving_average_figure(16, rows))
    means = summarize_means(rows)
    assert means["UMA(w=2)"] > means["Euclidean"], means
    assert means["UEMA(w=2, lambda=1)"] > means["Euclidean"], means
