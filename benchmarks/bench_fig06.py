"""Bench for Figure 6: PROUD precision and recall vs error σ per family.

Paper shape: recall stays comparatively high across the σ range while
precision collapses — uncertainty manufactures false positives.
"""

from __future__ import annotations

from repro.experiments import format_precision_recall, get_scale, run_figure6


def bench_figure6(benchmark, record, seed):
    scale = get_scale()
    curves = benchmark.pedantic(
        run_figure6,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig06_seed{seed}", format_precision_recall("Figure 6", "PROUD", curves))

    if scale.name == "tiny":
        return  # shapes only stabilize from the reduced scale upward
    for family, by_sigma in curves["precision"].items():
        sigmas = list(by_sigma)
        precision_drop = by_sigma[sigmas[0]] - by_sigma[sigmas[-1]]
        recall_first = curves["recall"][family][sigmas[0]]
        recall_last = curves["recall"][family][sigmas[-1]]
        recall_drop = recall_first - recall_last
        # Precision falls substantially more than recall.
        assert precision_drop > recall_drop, family
        assert recall_last > 0.5, family
