#!/usr/bin/env python
"""Industrial sensor monitoring with uncertain readings.

The paper's motivating scenario (Section 1): "in manufacturing plants and
engineering facilities, sensor networks are being deployed to ensure
efficiency, product quality and safety: unexpected vibration patterns in
production machines [...] are used to predict failures".  Sensor readings
are inherently imprecise, and different sensors have different noise
levels.

This example builds a small vibration-monitoring pipeline:

* a library of reference vibration signatures (healthy + three fault
  modes), each observed by sensors with *heterogeneous* noise;
* an incoming uncertain measurement to classify by similarity search;
* a comparison of the techniques' ability to retrieve the right
  signatures — including why UEMA's confidence weighting helps exactly
  when some sensors are noisier than others.

Run:  python examples/sensor_monitoring.py
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    Collection,
    ErrorModel,
    TimeSeries,
    UncertainTimeSeries,
    make_rng,
    spawn,
    znormalize,
)
from repro.distributions import NormalError
from repro.dust import Dust
from repro.distances import euclidean, uema_distance
from repro.queries import DustTechnique, FilteredTechnique, SimilaritySession

SEED = 7
SIGNATURE_LENGTH = 120
FAULT_MODES = ("healthy", "bearing-wear", "imbalance", "misalignment")


def vibration_signature(mode: str, rng: np.random.Generator) -> TimeSeries:
    """Synthesize one vibration signature for a machine state.

    Healthy machines hum at the base rotation frequency; fault modes add
    characteristic harmonics and transients (a standard simplification of
    rotating-machinery diagnostics).
    """
    t = np.linspace(0.0, 6.0 * np.pi, SIGNATURE_LENGTH)
    base = np.sin(t) + 0.1 * rng.normal(size=SIGNATURE_LENGTH)
    if mode == "bearing-wear":
        base += 0.6 * np.sin(4.3 * t + rng.uniform(0, np.pi))
    elif mode == "imbalance":
        base += 0.8 * np.sin(2.0 * t + rng.uniform(0, np.pi)) * (t / t.max())
    elif mode == "misalignment":
        base += 0.7 * np.sign(np.sin(2.0 * t)) * 0.4
    return znormalize(
        TimeSeries(base, label=FAULT_MODES.index(mode), name=mode)
    )


def sensor_error_model() -> ErrorModel:
    """Heterogeneous sensor noise: one flaky channel segment.

    The first quarter of the measurement window comes from an aging sensor
    (σ = 0.9); the rest from healthy sensors (σ = 0.25).  The plant knows
    its sensors' spec sheets, so the model is *reported correctly* — the
    situation where confidence weighting (UEMA) and DUST can shine.
    """
    flaky = NormalError(0.9)
    healthy = NormalError(0.25)
    quarter = SIGNATURE_LENGTH // 4
    return ErrorModel(
        [flaky] * quarter + [healthy] * (SIGNATURE_LENGTH - quarter)
    )


def main() -> None:
    rng = make_rng(SEED)

    # Reference library: 10 instances per fault mode.
    library_exact = []
    for mode in FAULT_MODES:
        for _ in range(10):
            library_exact.append(vibration_signature(mode, rng))
    library = Collection(library_exact, name="vibration-library")

    # All library entries were themselves recorded by the sensor network.
    model = sensor_error_model()
    uncertain_library = [
        UncertainTimeSeries(
            series.values + model.sample(spawn(SEED, "lib", index)),
            model,
            label=series.label,
            name=series.name,
        )
        for index, series in enumerate(library)
    ]

    # Incoming measurement: a machine developing bearing wear.
    truth = vibration_signature("bearing-wear", rng)
    incoming = UncertainTimeSeries(
        truth.values + model.sample(spawn(SEED, "incoming")),
        model,
        name="incoming",
    )

    print("incoming measurement vs reference library "
          f"({len(uncertain_library)} signatures, 4 machine states)\n")

    session = SimilaritySession(uncertain_library)
    for technique in (
        FilteredTechnique.uema(),
        FilteredTechnique.uma(),
        DustTechnique(),
    ):
        neighbors = (
            session.queries([incoming]).using(technique).knn(5).row(0)
        )
        votes = [uncertain_library[i].label for i in neighbors]
        diagnosis = FAULT_MODES[max(set(votes), key=votes.count)]
        hit_rate = votes.count(FAULT_MODES.index("bearing-wear")) / len(votes)
        print(f"{technique.name:22s} 5-NN diagnosis: {diagnosis:14s} "
              f"(bearing-wear votes: {hit_rate:.0%})")

    # Show why the confidence weighting matters: the flaky segment's
    # residuals dominate the plain Euclidean distance but are discounted
    # by UEMA and DUST.
    same_mode = uncertain_library[10]  # a bearing-wear reference
    other_mode = uncertain_library[0]  # a healthy reference
    print("\ndistance contrast (same fault mode vs different mode):")
    same_eucl = euclidean(incoming.observations, same_mode.observations)
    other_eucl = euclidean(incoming.observations, other_mode.observations)
    print(f"  Euclidean : {same_eucl:7.3f} vs {other_eucl:7.3f}")
    dust = Dust()
    print(f"  DUST      : {dust.distance(incoming, same_mode):7.3f}"
          f" vs {dust.distance(incoming, other_mode):7.3f}")
    print(f"  UEMA      : {uema_distance(incoming, same_mode):7.3f}"
          f" vs {uema_distance(incoming, other_mode):7.3f}")
    print("\n(the relative gap — not the absolute value — is what drives "
          "nearest-neighbor retrieval)")


if __name__ == "__main__":
    main()
