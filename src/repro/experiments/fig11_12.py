"""Figures 11 and 12: CPU time per query.

* **Figure 11** — time per query vs error σ (normal errors), averaged over
  datasets.  Expected shape (Section 4.3): Euclidean flattest and fastest;
  DUST slower (lookup-table evaluation); σ has little effect on any of
  them.  MUNICH is excluded from the plot because it is "orders of
  magnitude more expensive" — :func:`munich_cost_check` verifies that
  claim separately.
* **Figure 12** — time per query vs series length (50–1000 in the paper,
  resampled from the raw sequences; the scale caps the upper end).  All
  techniques grow linearly in the length.

Absolute milliseconds are not comparable to the paper's C++ numbers; the
orderings and growth shapes are the reproduction target.

Both figures run through the session API's all-pairs matrix kernels:
per-query time is the amortized ``(M, N)`` kernel time, which is the
honest cost of the paper's every-series-is-a-query protocol.
"""

from __future__ import annotations

import time
from typing import Dict, Sequence

from ..core.collection import Collection
from ..core.normalization import resample
from ..evaluation.harness import run_similarity_experiment
from ..munich.query import Munich
from ..perturbation.scenarios import ConstantScenario
from ..queries.techniques import MunichTechnique
from .config import EXPERIMENT_SEED, Scale, get_scale
from .report import format_series_table
from .runner import (
    averaged_metric,
    dataset_for_scale,
    sigma_sweep,
    standard_pdf_techniques,
)

FIG11_TECHNIQUES = ("PROUD", "DUST", "Euclidean")

#: Figure 12 length grid (the paper sweeps 50–1000).
FIG12_LENGTHS: Sequence[int] = (50, 100, 200, 400, 600, 800, 1000)
#: Reduced-scale grid.
FIG12_LENGTHS_REDUCED: Sequence[int] = (50, 100, 200, 400)


def run_figure11(
    scale: Scale = None,
    seed: int = EXPERIMENT_SEED,
) -> Dict[float, Dict[str, float]]:
    """``{sigma: {technique: mean seconds per query}}`` (normal errors)."""
    scale = scale if scale is not None else get_scale()
    sweep = sigma_sweep(scale, "normal", seed=seed)
    return {
        sigma: {
            name: averaged_metric(per_dataset, name, "seconds_per_query")
            for name in FIG11_TECHNIQUES
        }
        for sigma, per_dataset in sweep.items()
    }


def run_figure12(
    scale: Scale = None,
    seed: int = EXPERIMENT_SEED,
    lengths: Sequence[int] = None,
    dataset_name: str = "GunPoint",
    sigma: float = 1.0,
) -> Dict[int, Dict[str, float]]:
    """``{length: {technique: mean seconds per query}}`` via resampling."""
    scale = scale if scale is not None else get_scale()
    if lengths is None:
        lengths = (
            FIG12_LENGTHS if scale.name == "full" else FIG12_LENGTHS_REDUCED
        )
    base = dataset_for_scale(dataset_name, scale, seed)
    scenario = ConstantScenario("normal", sigma)
    results: Dict[int, Dict[str, float]] = {}
    for length in lengths:
        resampled = Collection(
            [resample(series, length) for series in base], name=base.name
        )
        run = run_similarity_experiment(
            resampled,
            scenario,
            standard_pdf_techniques(scenario),
            n_queries=min(scale.n_queries, 8),
            seed=seed,
        )
        results[length] = {
            name: run.techniques[name].mean_query_seconds()
            for name in FIG11_TECHNIQUES
        }
    return results


def munich_cost_check(
    seed: int = EXPERIMENT_SEED,
    n_series: int = 20,
    length: int = 6,
    samples: int = 5,
) -> Dict[str, float]:
    """Verify the paper's claim that MUNICH is orders of magnitude slower.

    Runs MUNICH and the pdf techniques on the same tiny workload and
    returns seconds per query for each; the bench asserts the gap.
    """
    from .config import TINY

    scale = Scale(
        name="munich-cost",
        n_series=n_series,
        series_length=length,
        n_queries=3,
        sigmas=TINY.sigmas,
        dataset_names=("GunPoint",),
    )
    exact = dataset_for_scale("GunPoint", scale, seed)
    scenario = ConstantScenario("normal", 0.6)
    started = time.perf_counter()
    munich_run = run_similarity_experiment(
        exact,
        scenario,
        [MunichTechnique(Munich(n_bins=2048))],
        n_queries=3,
        seed=seed,
        munich_samples=samples,
    )
    munich_elapsed = time.perf_counter() - started
    pdf_run = run_similarity_experiment(
        exact,
        scenario,
        standard_pdf_techniques(scenario),
        n_queries=3,
        seed=seed,
    )
    timings = {
        name: pdf_run.techniques[name].mean_query_seconds()
        for name in FIG11_TECHNIQUES
    }
    timings["MUNICH"] = munich_run.techniques["MUNICH"].mean_query_seconds()
    timings["MUNICH_total_seconds"] = munich_elapsed
    return timings


def format_timing_table(
    title: str, rows: Dict, x_label: str
) -> str:
    """Render a timing figure as milliseconds-per-query rows."""
    x_values = list(rows)
    names = list(next(iter(rows.values())))
    series = {
        name: [rows[x][name] * 1000.0 for x in x_values] for name in names
    }
    return format_series_table(
        f"{title} (milliseconds per query)",
        x_label,
        x_values,
        series,
        value_format="{:.3f}",
    )
