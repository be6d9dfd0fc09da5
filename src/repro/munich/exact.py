"""Efficient MUNICH probability evaluation.

The naive count (Equation 4) is uniform over all ``s_X^n * s_Y^n``
materialization pairs.  Because each pair picks its per-timestamp samples
independently, the squared Euclidean distance of a uniformly random pair is
the sum of ``n`` *independent* per-timestamp random variables, each uniform
over the ``s_X * s_Y`` squared sample differences at that timestamp.  The
probability ``Pr(distance <= ε)`` is therefore the CDF of a sum of small
discrete distributions — computable by convolution instead of enumeration.

Two evaluators:

* :func:`convolved_probability` — histogram convolution on a fixed grid.
  Deterministic; error bounded by ``n · δ`` in squared-distance units where
  ``δ`` is the bin width (a knob).  This is what :class:`~repro.munich.query.Munich`
  uses by default.
* :func:`sampled_probability` — unbiased Monte Carlo over materialization
  pairs; works for any distance (including DTW), converges as ``1/sqrt(k)``.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.rng import SeedLike, make_rng
from ..core.uncertain import MultisampleUncertainTimeSeries

#: Default number of histogram bins for the convolution evaluator.
DEFAULT_BINS = 4096


def per_timestamp_squared_differences(
    x: MultisampleUncertainTimeSeries, y: MultisampleUncertainTimeSeries
) -> list:
    """For each timestamp, the ``s_X * s_Y`` squared sample differences."""
    if len(x) != len(y):
        raise InvalidParameterError(
            f"series lengths differ: {len(x)} != {len(y)}"
        )
    out = []
    for i in range(len(x)):
        diff = x.samples[i][:, None] - y.samples[i][None, :]
        out.append((diff * diff).ravel())
    return out


def convolved_probability(
    x: MultisampleUncertainTimeSeries,
    y: MultisampleUncertainTimeSeries,
    epsilon: float,
    n_bins: int = DEFAULT_BINS,
) -> float:
    """``Pr(L2(X, Y) <= ε)`` by per-timestamp histogram convolution.

    The squared-distance axis ``[0, ε² + δ]`` is discretized into ``n_bins``
    bins of width ``δ`` plus one overflow bucket; every per-timestamp
    distribution is binned (rounding *down*, see below) and the ``n``
    distributions are convolved.  Mass that exceeds the threshold region at
    any point during the convolution is folded into the overflow bucket —
    it can never come back under ``ε²`` because summands are non-negative.

    Bin values are represented by their lower edge, so the computed CDF is
    an upper bound that converges to the exact count as ``n_bins`` grows;
    with the default 4096 bins the bias is ~``n/4096`` of ``ε²``, negligible
    for the paper's settings (tests compare against exhaustive enumeration).
    """
    if not epsilon >= 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    if n_bins < 2:
        raise InvalidParameterError(f"n_bins must be >= 2, got {n_bins}")
    squared_threshold = epsilon * epsilon
    contributions = per_timestamp_squared_differences(x, y)

    if squared_threshold == 0.0:
        # Zero threshold: only exactly-zero distances count.
        probability = 1.0
        for values in contributions:
            probability *= float(np.mean(values == 0.0))
        return probability

    delta = squared_threshold / n_bins
    # pmf[k] = mass at squared distance in [k·δ, (k+1)·δ); pmf[n_bins] is
    # the absorbing overflow bucket (> ε² for sure).
    pmf = np.zeros(n_bins + 1)
    pmf[0] = 1.0
    for values in contributions:
        # Clamp before the integer cast: for tiny ε the ratio can exceed the
        # intp range (the overflow bucket is the right destination anyway).
        scaled = np.minimum(values / delta, float(n_bins))
        bins = scaled.astype(np.intp)
        # Values exactly at ε² must stay in range (Equation 4 counts <= ε):
        # only genuinely larger values go straight to the overflow bucket.
        bins = np.where(
            values <= squared_threshold, np.minimum(bins, n_bins - 1), n_bins
        )
        step = np.bincount(bins, minlength=n_bins + 1) / values.size
        pmf = _convolve_with_overflow(pmf, step, n_bins)
    return float(pmf[:n_bins].sum())


def _convolve_with_overflow(
    pmf: np.ndarray, step: np.ndarray, n_bins: int
) -> np.ndarray:
    """Convolve two overflow-terminated pmfs back onto the same support.

    ``step`` comes from one timestamp's ``s_X * s_Y`` sample differences, so
    it has at most ``s_X * s_Y + 1`` non-zero bins; iterating its non-zeros
    makes each convolution O(n_bins * s_X * s_Y) instead of O(n_bins²).
    """
    out = np.zeros(n_bins + 1)
    in_range = pmf[:n_bins]
    # Overflow is absorbing: once a partial sum exceeds ε², it stays there.
    out[n_bins] = pmf[n_bins]
    for offset in np.flatnonzero(step):
        weight = step[offset]
        if offset >= n_bins:
            out[n_bins] += weight * in_range.sum()
            continue
        shifted_tail = n_bins - offset
        out[offset:n_bins] += weight * in_range[:shifted_tail]
        out[n_bins] += weight * in_range[shifted_tail:].sum()
    return out


def draw_choices(
    length: int,
    x_width: int,
    y_width: int,
    n_samples: int,
    rng: SeedLike = None,
) -> tuple:
    """The sample-choice indices behind :func:`draw_materialization_pairs`.

    ``(x_choices, y_choices)``, each ``(n_samples, length)``: one uniform
    pick among ``x_width`` / ``y_width`` samples per timestamp.  A seed
    (int or ``None``) restarts its generator on every call, so every pair
    of one shape draws the same indices — which lets the batched
    MUNICH-DTW refine draw them once and gather every cell's
    materializations in one go.
    """
    if n_samples < 1:
        raise InvalidParameterError(f"n_samples must be >= 1, got {n_samples}")
    generator = make_rng(rng)
    x_choices = generator.integers(0, x_width, size=(n_samples, length))
    y_choices = generator.integers(0, y_width, size=(n_samples, length))
    return x_choices, y_choices


def draw_materialization_pairs(
    x: MultisampleUncertainTimeSeries,
    y: MultisampleUncertainTimeSeries,
    n_samples: int,
    rng: SeedLike = None,
) -> tuple:
    """``n_samples`` uniform materialization pairs: ``(x_values, y_values)``.

    Each is an ``(n_samples, n)`` stack of one sample choice per timestamp
    — Equation 4's counting measure.  This is the single source of draws
    for every Monte Carlo evaluator (:func:`sampled_probability` and the
    batched MUNICH-DTW kernel), so a seeded ``rng`` yields identical
    materializations regardless of which evaluator consumes them.
    """
    if len(x) != len(y):
        raise InvalidParameterError(
            f"series lengths differ: {len(x)} != {len(y)}"
        )
    x_choices, y_choices = draw_choices(
        len(x), x.samples_per_timestamp, y.samples_per_timestamp,
        n_samples, rng,
    )
    rows = np.arange(len(x))
    return (
        x.samples[rows[None, :], x_choices],
        y.samples[rows[None, :], y_choices],
    )


def sampled_probability(
    x: MultisampleUncertainTimeSeries,
    y: MultisampleUncertainTimeSeries,
    epsilon: float,
    n_samples: int = 10_000,
    rng: SeedLike = None,
    distance: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
) -> float:
    """Unbiased Monte Carlo estimate of ``Pr(distance(X, Y) <= ε)``.

    Draws ``n_samples`` independent materialization pairs (uniform per-
    timestamp sample choices, matching Equation 4's counting measure).  With
    the default Euclidean distance the computation is fully vectorized;
    pass ``distance`` (e.g. a DTW lambda) for non-factorizing measures.
    """
    if not epsilon >= 0.0:
        raise InvalidParameterError(f"epsilon must be >= 0, got {epsilon}")
    x_values, y_values = draw_materialization_pairs(x, y, n_samples, rng)
    if distance is None:
        squared = ((x_values - y_values) ** 2).sum(axis=1)
        return float(np.mean(squared <= epsilon * epsilon))
    hits = sum(
        1
        for i in range(n_samples)
        if distance(x_values[i], y_values[i]) <= epsilon
    )
    return hits / n_samples
