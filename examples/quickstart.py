#!/usr/bin/env python
"""Quickstart: uncertain time-series similarity in five minutes.

Walks through the library's central objects:

1. generate a UCR-style dataset (exact ground truth);
2. perturb it into uncertain series (the paper's methodology);
3. compare all five similarity techniques on one query;
4. score a query against the whole collection with the batch engine
   (one vectorized call instead of one distance() call per candidate);
5. run the paper's full evaluation protocol on the dataset.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import api
from repro.core import spawn
from repro.evaluation import run_similarity_experiment
from repro.munich import Munich
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichTechnique,
    ProudTechnique,
)

SEED = 42


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Exact ground truth: 40 Gun Point-style motion series.
    # ------------------------------------------------------------------
    exact = api.generate_dataset("GunPoint", seed=SEED, n_series=40, length=80)
    print(f"dataset: {exact.name}, {len(exact)} series of length "
          f"{exact.series_length} (z-normalized)")

    # ------------------------------------------------------------------
    # 2. Perturb into uncertain series: normal error, sigma = 0.4.
    #    Each series gets one noisy observation per timestamp plus the
    #    error model (what PROUD / DUST / UMA / UEMA are told).
    # ------------------------------------------------------------------
    scenario = api.ConstantScenario("normal", 0.4)
    uncertain = [
        scenario.apply(series, spawn(SEED, "perturb", index))
        for index, series in enumerate(exact)
    ]
    query, candidate = uncertain[0], uncertain[1]

    # ------------------------------------------------------------------
    # 3. One pair, every measure.
    # ------------------------------------------------------------------
    print("\npairwise comparison of series 0 vs series 1:")
    print(f"  Euclidean (observations): "
          f"{api.euclidean(query.observations, candidate.observations):.3f}")

    dust = api.Dust()
    print(f"  DUST:                     {dust.distance(query, candidate):.3f}")
    print(f"  UMA  (w=2):               {api.uma_distance(query, candidate):.3f}")
    print(f"  UEMA (w=2, λ=1):          {api.uema_distance(query, candidate):.3f}")

    proud = api.Proud(tau=0.9)
    epsilon = api.euclidean(query.observations, candidate.observations) * 1.1
    print(f"  PROUD Pr(dist ≤ {epsilon:.2f}):  "
          f"{proud.match_probability(query, candidate, epsilon):.3f}")

    # MUNICH needs repeated observations (5 samples per timestamp).
    ms_query = scenario.apply_multisample(exact[0], 5, spawn(SEED, "ms", 0))
    ms_candidate = scenario.apply_multisample(exact[1], 5, spawn(SEED, "ms", 1))
    munich = api.Munich(tau=0.5, n_bins=1024)
    print(f"  MUNICH Pr(dist ≤ {epsilon:.2f}): "
          f"{munich.probability(ms_query, ms_candidate, epsilon):.3f}")

    # ------------------------------------------------------------------
    # 4. Batch path: one vectorized call scores the query against every
    #    series of the collection -- the one-row case of the (M, N)
    #    matrix kernel that the harness, kNN, and range queries run on.
    #    It matches the per-pair methods, just without the per-candidate
    #    Python overhead.
    # ------------------------------------------------------------------
    dust_technique = api.DustTechnique()
    profile = dust_technique.distance_matrix([query], uncertain)[0]
    within = (profile <= epsilon).sum() - 1  # minus the self-match
    print(f"\nbatch query (DUST distance profile over {len(uncertain)} series):")
    print(f"  nearest candidate: series {int(profile.argsort()[1])} "
          f"at distance {sorted(profile)[1]:.3f}")
    print(f"  candidates within eps={epsilon:.2f}: {int(within)}")

    # ------------------------------------------------------------------
    # 5. The paper's evaluation protocol: ground truth = 10 exact nearest
    #    neighbors; per-technique thresholds from the 10th NN; P/R/F1.
    # ------------------------------------------------------------------
    result = run_similarity_experiment(
        exact,
        scenario,
        [
            EuclideanTechnique(),
            DustTechnique(),
            ProudTechnique(assumed_std=scenario.proud_std),
            FilteredTechnique.uma(),
            FilteredTechnique.uema(),
            MunichTechnique(Munich(n_bins=512)),
        ],
        n_queries=8,
        seed=SEED,
        munich_samples=5,
    )
    print(f"\nsimilarity-matching evaluation "
          f"({result.n_queries} queries, k=10 ground truth):")
    for name, outcome in result.techniques.items():
        tau_note = f" (τ={outcome.tau:g})" if outcome.tau is not None else ""
        print(f"  {name:22s} F1 = {outcome.f1()}{tau_note}")


if __name__ == "__main__":
    main()
