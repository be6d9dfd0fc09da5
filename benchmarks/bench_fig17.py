"""Bench for Figure 17: per-dataset F1 with mixed exponential errors —
the paper's "hardest case" — Euclidean / DUST / UMA / UEMA.

Paper shape: the moving-average measures hold their accuracy here too,
while Euclidean takes its biggest hit.
"""

from __future__ import annotations

from repro.experiments import (
    format_moving_average_figure,
    get_scale,
    run_figure17,
    summarize_means,
)


def bench_figure17(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure17,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig17_seed{seed}", format_moving_average_figure(17, rows))
    means = summarize_means(rows)
    assert means["UMA(w=2)"] > means["Euclidean"], means
    assert means["UEMA(w=2, lambda=1)"] > means["Euclidean"], means
