"""Bench for Figure 5: F1 of PROUD / DUST / Euclidean vs error σ, averaged
over all datasets, one panel per error family.

Paper shape: "virtually no difference among the different techniques"
across the σ range; accuracy declines as σ grows.
"""

from __future__ import annotations


from repro.experiments import FIG5_TECHNIQUES, format_figure5, get_scale, run_figure5


def bench_figure5(benchmark, record, seed):
    scale = get_scale()
    results = benchmark.pedantic(
        run_figure5,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig05_seed{seed}", format_figure5(results))

    if scale.name == "tiny":
        return  # shapes only stabilize from the reduced scale upward
    for family, per_sigma in results.items():
        sigmas = list(per_sigma)
        for name in FIG5_TECHNIQUES:
            # Monotone-ish decline with sigma.
            assert (
                per_sigma[sigmas[-1]][name]
                <= per_sigma[sigmas[0]][name] + 0.05
            ), (family, name)
        # The "no difference" claim: max spread between techniques small.
        for sigma, row in per_sigma.items():
            spread = max(row.values()) - min(row.values())
            assert spread < 0.15, (family, sigma, row)
