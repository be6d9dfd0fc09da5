#!/usr/bin/env python
"""Privacy-preserving location traces: querying perturbed trajectories.

The paper's second motivating scenario (Section 1): location-based
services publish user movement data only after privacy-preserving
transforms, which "introduce data uncertainty.  The data can still be
mined and queried, but it requires a re-design of the existing methods."

This example models a fleet of commuter speed profiles.  The operator
publishes them with calibrated additive noise (a simple
differential-privacy-style mechanism) and *announces the noise scale* —
so consumers of the data know the per-point error distribution exactly.
An analyst then runs probabilistic range queries: "which published
profiles are, with probability ≥ τ, within ε of this reference profile?"

Run:  python examples/privacy_lbs.py
"""

from __future__ import annotations

import numpy as np

from repro.core import Collection, ErrorModel, TimeSeries, make_rng, spawn, znormalize
from repro.distributions import NormalError
from repro.perturbation import perturb
from repro.proud import Proud
from repro.queries import EuclideanTechnique, ProudTechnique, SimilaritySession

SEED = 13
PROFILE_LENGTH = 96  # one day at 15-minute resolution
NOISE_STD = 0.5      # published privacy noise scale


def commuter_profile(kind: str, rng: np.random.Generator) -> TimeSeries:
    """A daily speed profile: morning / evening peaks for commuters,
    flat daytime usage for delivery routes, night shape for taxis."""
    t = np.linspace(0.0, 24.0, PROFILE_LENGTH)
    profile = np.full(PROFILE_LENGTH, 0.2)
    if kind == "commuter":
        profile += 1.0 * np.exp(-0.5 * ((t - rng.normal(8.0, 0.3)) / 0.8) ** 2)
        profile += 1.0 * np.exp(-0.5 * ((t - rng.normal(17.5, 0.3)) / 0.9) ** 2)
    elif kind == "delivery":
        profile += 0.7 / (1.0 + np.exp(-2.0 * (t - 9.0)))
        profile -= 0.7 / (1.0 + np.exp(-2.0 * (t - 18.0)))
    elif kind == "taxi":
        profile += 0.8 * np.exp(-0.5 * ((t - rng.normal(23.0, 0.5)) / 1.5) ** 2)
        profile += 0.5 * np.exp(-0.5 * ((t - rng.normal(2.0, 0.5)) / 1.2) ** 2)
    profile += 0.05 * rng.normal(size=PROFILE_LENGTH)
    return znormalize(TimeSeries(profile, name=kind))


def main() -> None:
    rng = make_rng(SEED)
    kinds = ["commuter"] * 14 + ["delivery"] * 8 + ["taxi"] * 8
    exact = Collection(
        [commuter_profile(kind, rng) for kind in kinds], name="fleet"
    )

    # The operator publishes noisy versions; the noise scale is public.
    model = ErrorModel.constant(NormalError(NOISE_STD), PROFILE_LENGTH)
    published = [
        perturb(series, model, spawn(SEED, "publish", index))
        for index, series in enumerate(exact)
    ]

    # The analyst holds one reference profile (say, a suspected commuter
    # pattern) — also only available in its published, noisy form.  The
    # distance threshold is calibrated from the data, exactly as the
    # paper's methodology does: ε = observed distance to the 10th nearest
    # published profile (so a perfect answer has ~10 members).
    reference = published[0]
    from repro.distances import euclidean as _euclid

    observed = sorted(
        _euclid(reference.observations, candidate.observations)
        for candidate in published[1:]
    )
    epsilon = observed[9]

    print(f"probabilistic range query: Pr(distance ≤ {epsilon:.2f}) ≥ τ")
    print(f"published noise: normal, σ = {NOISE_STD} (announced)\n")

    # Query 0 (the reference) against the whole published fleet; a query
    # selected by index never matches itself.
    session = SimilaritySession(published)
    query = session.queries([0])
    proud = ProudTechnique(assumed_std=NOISE_STD)
    for tau in (0.01, 0.2, 0.8):
        result = query.using(proud).prob_range(epsilon, tau).sets()[0]
        labels = [published[i].name for i in result]
        commuters = sum(1 for label in labels if label == "commuter")
        print(f"  τ = {tau:4}: {len(result):2d} profiles returned, "
              f"{commuters} of them commuters")

    # Contrast with the certain-data baseline at the same ε.
    baseline = query.using(EuclideanTechnique()).range(epsilon).sets()[0]
    commuters = sum(
        1 for i in baseline if published[i].name == "commuter"
    )
    print(f"\n  Euclidean baseline: {len(baseline):2d} profiles returned, "
          f"{commuters} commuters")

    # The PROUD machinery also exposes the quantities behind the decision.
    proud_engine = Proud(tau=0.8)
    candidate = published[1]
    model_of_pair = proud_engine.distance_distribution(reference, candidate)
    print("\nPROUD internals for one candidate:")
    print(f"  E[distance²]  = {model_of_pair.mean:8.2f}")
    print(f"  Var[distance²]= {model_of_pair.variance:8.2f}")
    print(f"  ε_norm        = "
          f"{proud_engine.epsilon_norm(reference, candidate, epsilon):8.2f}")
    print(f"  ε_limit(τ=.8) = {proud_engine.epsilon_limit():8.2f}")
    verdict = proud_engine.matches(reference, candidate, epsilon)
    print(f"  accepted      = {verdict}")


if __name__ == "__main__":
    main()
