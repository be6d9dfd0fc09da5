"""Bench for Figure 14: F1 vs decaying factor λ for UEMA (w=5 and w=10)
under the mixed-σ normal scenario.

Paper shape: λ has only a small effect on accuracy.
"""

from __future__ import annotations

from repro.experiments import format_parameter_sweep, get_scale, run_figure14


def bench_figure14(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure14,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(
        f"fig14_seed{seed}",
        format_parameter_sweep(
            "Figure 14 — F1 vs decaying factor λ (mixed normal error)",
            "lambda",
            rows,
        ),
    )
    for curve_name in ("UEMA-5", "UEMA-10"):
        values = [row[curve_name] for row in rows.values()]
        assert max(values) - min(values) < 0.15, (curve_name, values)
