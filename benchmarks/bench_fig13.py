"""Bench for Figure 13: F1 vs window size w for UMA and UEMA (λ=0.1, 1)
under the mixed-σ normal scenario, averaged over datasets.

Paper shape: UMA rises from w=0 to a peak around w=2, then decays as far
neighbors dilute the signal; UEMA(λ=0.1) tracks UMA; UEMA(λ=1) is nearly
flat in w (the decay caps the effective window).
"""

from __future__ import annotations

import numpy as np

from repro.experiments import format_parameter_sweep, get_scale, run_figure13


def bench_figure13(benchmark, record, seed):
    scale = get_scale()
    rows = benchmark.pedantic(
        run_figure13,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(
        f"fig13_seed{seed}",
        format_parameter_sweep(
            "Figure 13 — F1 vs window size w (mixed normal error)", "w", rows
        ),
    )
    windows = sorted(rows)
    uma_curve = [rows[w]["UMA"] for w in windows]
    best_window = windows[int(np.argmax(uma_curve))]
    # The peak is at a small positive window, not at 0 and not at the max.
    assert 0 < best_window <= 8, dict(zip(windows, uma_curve))
    # UEMA(λ=1) is flatter than UMA across windows.
    uema1_curve = [rows[w]["UEMA-1"] for w in windows]
    assert (max(uema1_curve) - min(uema1_curve)) <= (
        max(uma_curve) - min(uma_curve) + 0.02
    )
