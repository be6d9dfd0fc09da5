"""Bench for Figure 10: per-dataset F1 when the error σ is misreported as
a constant 0.7 (actual: mixed-σ normal).

Paper shape: with wrong information, PROUD and DUST lose their edge —
all three techniques score essentially the same.
"""

from __future__ import annotations

from repro.experiments import (
    format_per_dataset_f1,
    get_scale,
    run_figure10,
    summarize_means,
)


def bench_figure10(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure10,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(
        f"fig10_seed{seed}",
        format_per_dataset_f1(
            "Figure 10 — F1 per dataset, mixed normal error misreported "
            "as constant σ=0.7",
            rows,
        ),
    )
    means = summarize_means(rows)
    spread = max(means.values()) - min(means.values())
    assert spread < 0.10, means
