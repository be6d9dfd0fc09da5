"""Naive MUNICH probability by exhaustive materialization (Equations 3–4).

The definitional algorithm: materialize every possible certain sequence of
both series (``TS_X`` and ``TS_Y``), compute all ``s_X^n * s_Y^n`` pairwise
distances, and report the fraction within ``ε``.  The paper notes this "is
infeasible, because of the very large space" — the function guards itself
with an explicit pair budget and exists to validate the efficient
evaluators on small inputs (and to make MUNICH-DTW available exactly).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, Optional

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.uncertain import MultisampleUncertainTimeSeries
from ..distances.dtw import dtw_distance
from ..distances.lp import lp_distance

#: Refuse naive enumeration beyond this many (x, y) materialization pairs.
DEFAULT_MAX_PAIRS = 2_000_000


def iter_materializations(
    series: MultisampleUncertainTimeSeries,
) -> Iterator[np.ndarray]:
    """Yield every certain sequence the multi-sample series can take.

    This enumerates the paper's ``TS_X`` set — the cartesian product of the
    per-timestamp observation choices — in deterministic lexicographic
    order.
    """
    columns = [series.samples[i] for i in range(len(series))]
    for combination in itertools.product(*columns):
        yield np.asarray(combination, dtype=np.float64)


def naive_probability(
    x: MultisampleUncertainTimeSeries,
    y: MultisampleUncertainTimeSeries,
    epsilon: float,
    p: float = 2.0,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    distance: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
) -> float:
    """``Pr(distance(X, Y) <= ε)`` by counting feasible distances (Eq. 4).

    Parameters
    ----------
    distance:
        Override the pair distance (default ``Lp`` with exponent ``p``).
        :func:`naive_dtw_probability` uses this hook.
    """
    if not epsilon >= 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if len(x) != len(y):
        raise InvalidParameterError(
            f"series lengths differ: {len(x)} != {len(y)}"
        )
    total_pairs = x.n_materializations * y.n_materializations
    if total_pairs > max_pairs:
        raise InvalidParameterError(
            f"naive enumeration would need {total_pairs} distance "
            f"computations (> max_pairs={max_pairs}); use the convolution "
            f"or Monte Carlo evaluator instead"
        )
    if distance is None:
        distance = lambda a, b: lp_distance(a, b, p=p)  # noqa: E731

    # Materializing Y once and reusing it across X candidates keeps the
    # enumeration O(total_pairs) distance calls without re-product-ing.
    y_materializations = list(iter_materializations(y))
    within = 0
    for x_values in iter_materializations(x):
        for y_values in y_materializations:
            if distance(x_values, y_values) <= epsilon:
                within += 1
    return within / total_pairs


def naive_dtw_probability(
    x: MultisampleUncertainTimeSeries,
    y: MultisampleUncertainTimeSeries,
    epsilon: float,
    window: Optional[int] = None,
    max_pairs: int = 100_000,
) -> float:
    """MUNICH over the DTW distance (Section 2.1: "this framework has been
    applied to Euclidean and Dynamic Time Warping distances").

    DTW does not factorize over timestamps, so only the naive evaluator is
    exact; the pair budget is accordingly tighter.
    """
    return naive_probability(
        x,
        y,
        epsilon,
        max_pairs=max_pairs,
        distance=lambda a, b: dtw_distance(a, b, window=window),
    )
