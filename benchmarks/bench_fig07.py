"""Bench for Figure 7: DUST precision and recall vs error σ per family.

Paper shape: same asymmetry as PROUD (precision collapses, recall holds),
with DUST trading slightly better precision for slightly lower recall.
"""

from __future__ import annotations

from repro.experiments import format_precision_recall, get_scale, run_figure7


def bench_figure7(benchmark, record, seed):
    scale = get_scale()
    curves = benchmark.pedantic(
        run_figure7,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig07_seed{seed}", format_precision_recall("Figure 7", "DUST", curves))

    if scale.name == "tiny":
        return  # shapes only stabilize from the reduced scale upward
    for family, by_sigma in curves["precision"].items():
        sigmas = list(by_sigma)
        precision_drop = by_sigma[sigmas[0]] - by_sigma[sigmas[-1]]
        recall_drop = (
            curves["recall"][family][sigmas[0]]
            - curves["recall"][family][sigmas[-1]]
        )
        assert precision_drop > recall_drop, family
