"""Bench for Figure 8: per-dataset F1 under mixed-σ normal errors
(20% σ=1.0, 80% σ=0.4), PROUD pinned at σ=0.7.

Paper shape: correctly-informed DUST gains a small edge (~3%) over PROUD
and Euclidean on average.
"""

from __future__ import annotations

from repro.experiments import (
    format_per_dataset_f1,
    get_scale,
    run_figure8,
    summarize_means,
)


def bench_figure8(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure8,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(
        f"fig08_seed{seed}",
        format_per_dataset_f1(
            "Figure 8 — F1 per dataset, mixed normal error "
            "(20% σ=1.0, 80% σ=0.4); PROUD at σ=0.7",
            rows,
        ),
    )
    means = summarize_means(rows)
    # Correct per-timestamp σ knowledge must not hurt DUST on average.
    assert means["DUST"] >= means["Euclidean"] - 0.02, means
