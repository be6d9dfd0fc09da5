"""Bench for Figure 9: per-dataset F1 under mixed *family* errors
(uniform + normal + exponential at each timestamp, 20%/80% σ split).

Paper shape: "the accuracy of all techniques is almost the same" — even
DUST's per-timestamp knowledge buys nothing once families mix.
"""

from __future__ import annotations

from repro.experiments import (
    format_per_dataset_f1,
    get_scale,
    run_figure9,
    summarize_means,
)


def bench_figure9(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure9,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(
        f"fig09_seed{seed}",
        format_per_dataset_f1(
            "Figure 9 — F1 per dataset, mixed uniform+normal+exponential "
            "error (20% σ=1.0, 80% σ=0.4)",
            rows,
        ),
    )
    means = summarize_means(rows)
    spread = max(means.values()) - min(means.values())
    assert spread < 0.12, means
