"""Bench for Figure 4: MUNICH / PROUD / DUST / Euclidean on truncated
Gun Point (60 series × length 6, 5 samples/timestamp, 5 queries), F1 vs
error σ for the three error families.

Paper shape: all techniques ≥ ~0.7 at σ=0.2 with MUNICH among the best;
MUNICH falls sharply for larger σ (its fixed τ drains) while the others
degrade gracefully toward the select-noise floor.
"""

from __future__ import annotations

from repro.experiments import format_figure4, get_scale, run_figure4


def bench_figure4(benchmark, record, seed):
    scale = get_scale()
    results = benchmark.pedantic(
        run_figure4,
        kwargs={"scale": scale, "seed": seed},
        rounds=1,
        iterations=1,
    )
    record(f"fig04_seed{seed}", format_figure4(results))

    for family, per_sigma in results.items():
        sigmas = list(per_sigma)
        first, last = per_sigma[sigmas[0]], per_sigma[sigmas[-1]]
        for row in per_sigma.values():
            assert all(0.0 <= v <= 1.0 for v in row.values())
        if scale.name == "tiny":
            # Tiny scale (24 series) sits near the select-all F1 floor;
            # shapes only stabilize from the reduced scale upward.
            continue
        # Sanity of the collapse shape: MUNICH loses more accuracy from the
        # first to the last σ than Euclidean does.
        munich_drop = first["MUNICH"] - last["MUNICH"]
        euclid_drop = first["Euclidean"] - last["Euclidean"]
        assert munich_drop >= euclid_drop - 0.15, family
