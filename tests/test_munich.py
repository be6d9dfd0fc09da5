"""Unit tests for repro.munich (naive, exact, bounds, query)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ErrorModel,
    InvalidParameterError,
    MultisampleUncertainTimeSeries,
    TimeSeries,
    make_rng,
)
from repro.distributions import NormalError
from repro.munich import (
    Munich,
    convolved_probability,
    distance_bounds,
    interval_gap_and_span,
    iter_materializations,
    naive_probability,
    per_timestamp_squared_differences,
    sampled_probability,
)
from repro.perturbation import perturb_multisample


def _multisample(matrix):
    return MultisampleUncertainTimeSeries(np.asarray(matrix, dtype=np.float64))


@pytest.fixture
def tiny_pair(rng):
    """Two length-4 series with 3 samples per timestamp."""
    model = ErrorModel.constant(NormalError(0.4), 4)
    x = perturb_multisample(TimeSeries([0.0, 1.0, 0.5, -0.5]), model, 3, rng)
    y = perturb_multisample(TimeSeries([0.2, 0.8, 0.4, -0.2]), model, 3, rng)
    return x, y


class TestIterMaterializations:
    def test_count(self):
        series = _multisample([[1.0, 2.0], [3.0, 4.0]])
        assert len(list(iter_materializations(series))) == 4

    def test_contents(self):
        series = _multisample([[1.0, 2.0], [3.0, 4.0]])
        combos = {tuple(m) for m in iter_materializations(series)}
        assert combos == {(1.0, 3.0), (1.0, 4.0), (2.0, 3.0), (2.0, 4.0)}


class TestNaiveProbability:
    def test_hand_computed_case(self):
        # X = {1 or 3} at one timestamp, Y = {1} -> distances {0, 2}.
        x = _multisample([[1.0, 3.0]])
        y = _multisample([[1.0, 1.0]])
        assert naive_probability(x, y, epsilon=1.0) == 0.5
        assert naive_probability(x, y, epsilon=2.0) == 1.0
        assert naive_probability(x, y, epsilon=0.0) == 0.5

    def test_bounds_zero_and_one(self, tiny_pair):
        x, y = tiny_pair
        assert naive_probability(x, y, epsilon=0.0) == 0.0
        assert naive_probability(x, y, epsilon=100.0) == 1.0

    def test_monotone_in_epsilon(self, tiny_pair):
        x, y = tiny_pair
        values = [naive_probability(x, y, e) for e in (0.3, 0.6, 1.0, 2.0)]
        assert values == sorted(values)

    def test_symmetric(self, tiny_pair):
        x, y = tiny_pair
        assert naive_probability(x, y, 1.0) == naive_probability(y, x, 1.0)

    def test_pair_budget_guard(self):
        big = _multisample(np.zeros((12, 4)))
        with pytest.raises(InvalidParameterError):
            naive_probability(big, big, 1.0, max_pairs=1000)

    def test_rejects_negative_epsilon(self, tiny_pair):
        x, y = tiny_pair
        with pytest.raises(InvalidParameterError):
            naive_probability(x, y, -0.1)
        with pytest.raises(InvalidParameterError):
            naive_probability(x, y, float("nan"))

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            naive_probability(
                _multisample([[1.0]]), _multisample([[1.0], [2.0]]), 1.0
            )


class TestConvolvedProbability:
    def test_matches_naive_exactly_on_small_inputs(self, tiny_pair):
        x, y = tiny_pair
        for epsilon in (0.4, 0.8, 1.2, 1.6, 2.5):
            naive = naive_probability(x, y, epsilon)
            convolved = convolved_probability(x, y, epsilon, n_bins=8192)
            assert convolved == pytest.approx(naive, abs=0.005)

    def test_zero_epsilon(self):
        x = _multisample([[1.0, 1.0]])
        y = _multisample([[1.0, 2.0]])
        assert convolved_probability(x, y, 0.0) == 0.5

    def test_epsilon_exactly_at_distance_included(self):
        # Single timestamp: distances are exactly {0, 2}; eps=2 includes both.
        x = _multisample([[1.0, 3.0]])
        y = _multisample([[1.0, 1.0]])
        assert convolved_probability(x, y, 2.0) == pytest.approx(1.0)

    def test_monotone_in_epsilon(self, tiny_pair):
        x, y = tiny_pair
        values = [
            convolved_probability(x, y, e) for e in (0.3, 0.6, 1.0, 2.0)
        ]
        assert values == sorted(values)

    def test_bin_validation(self, tiny_pair):
        x, y = tiny_pair
        with pytest.raises(InvalidParameterError):
            convolved_probability(x, y, 1.0, n_bins=1)
        with pytest.raises(InvalidParameterError):
            convolved_probability(x, y, float("nan"))
        with pytest.raises(InvalidParameterError):
            Munich().probability(x, y, float("nan"))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           epsilon=st.floats(min_value=0.1, max_value=4.0))
    def test_agreement_property(self, seed, epsilon):
        """Naive enumeration and convolution agree on random inputs."""
        rng = make_rng(seed)
        n, s = 3, 3
        x = _multisample(rng.normal(size=(n, s)))
        y = _multisample(rng.normal(size=(n, s)))
        naive = naive_probability(x, y, epsilon)
        convolved = convolved_probability(x, y, epsilon, n_bins=8192)
        assert convolved == pytest.approx(naive, abs=0.01)


class TestSampledProbability:
    def test_converges_to_naive(self, tiny_pair):
        x, y = tiny_pair
        epsilon = 1.0
        naive = naive_probability(x, y, epsilon)
        sampled = sampled_probability(x, y, epsilon, n_samples=200_000, rng=5)
        assert sampled == pytest.approx(naive, abs=0.01)

    def test_deterministic_under_seed(self, tiny_pair):
        x, y = tiny_pair
        a = sampled_probability(x, y, 1.0, n_samples=1000, rng=7)
        b = sampled_probability(x, y, 1.0, n_samples=1000, rng=7)
        assert a == b

    def test_custom_distance_hook(self, tiny_pair):
        x, y = tiny_pair
        manhattan = lambda a, b: float(np.abs(a - b).sum())  # noqa: E731
        p = sampled_probability(
            x, y, 2.0, n_samples=2000, rng=8, distance=manhattan
        )
        assert 0.0 <= p <= 1.0

    def test_validation(self, tiny_pair):
        x, y = tiny_pair
        with pytest.raises(InvalidParameterError):
            sampled_probability(x, y, 1.0, n_samples=0)
        with pytest.raises(InvalidParameterError):
            sampled_probability(x, y, float("nan"), n_samples=10)


class TestPerTimestampDifferences:
    def test_shapes_and_values(self):
        x = _multisample([[0.0, 1.0]])
        y = _multisample([[2.0, 3.0]])
        # x ∈ {0, 1}, y ∈ {2, 3}: squared diffs {4, 9, 1, 4}.
        (diffs,) = per_timestamp_squared_differences(x, y)
        assert sorted(diffs.tolist()) == [1.0, 4.0, 4.0, 9.0]


class TestBounds:
    def test_gap_and_span(self):
        gap, span = interval_gap_and_span(
            np.array([0.0]), np.array([1.0]), np.array([3.0]), np.array([4.0])
        )
        assert gap[0] == 2.0   # intervals [0,1] and [3,4] gap
        assert span[0] == 4.0  # extremes 0 and 4

    def test_overlapping_intervals_zero_gap(self):
        gap, _ = interval_gap_and_span(
            np.array([0.0]), np.array([2.0]), np.array([1.0]), np.array([3.0])
        )
        assert gap[0] == 0.0

    def test_bounds_enclose_all_materializations(self, tiny_pair):
        x, y = tiny_pair
        bounds = distance_bounds(x, y)
        distances = [
            float(np.linalg.norm(mx - my))
            for mx in iter_materializations(x)
            for my in iter_materializations(y)
        ]
        assert bounds.lower <= min(distances) + 1e-12
        assert bounds.upper >= max(distances) - 1e-12

    def test_certain_predicates(self):
        x = _multisample([[0.0, 0.1]])
        y = _multisample([[5.0, 5.1]])
        bounds = distance_bounds(x, y)
        assert bounds.certainly_outside(1.0)
        assert bounds.certainly_within(10.0)

    def test_infinity_norm(self, tiny_pair):
        x, y = tiny_pair
        bounds = distance_bounds(x, y, p=np.inf)
        assert 0.0 <= bounds.lower <= bounds.upper

    def test_rejects_invalid_p(self, tiny_pair):
        x, y = tiny_pair
        with pytest.raises(InvalidParameterError):
            distance_bounds(x, y, p=0.5)


class TestMunichQuery:
    def test_probability_methods_agree(self, tiny_pair):
        x, y = tiny_pair
        epsilon = 1.0
        exact = Munich(method="naive", use_bounds=False).probability(x, y, epsilon)
        conv = Munich(method="convolution", n_bins=8192).probability(x, y, epsilon)
        mc = Munich(method="montecarlo", n_samples=200_000, rng=3).probability(
            x, y, epsilon
        )
        assert conv == pytest.approx(exact, abs=0.01)
        assert mc == pytest.approx(exact, abs=0.01)

    def test_bounds_short_circuit(self, tiny_pair):
        x, y = tiny_pair
        munich = Munich()
        assert munich.probability(x, y, 1000.0) == 1.0
        assert munich.probability(x, y, 1e-12) == 0.0

    def test_matches_threshold(self, tiny_pair):
        x, y = tiny_pair
        munich = Munich(tau=0.5)
        epsilon = 2.0
        expected = munich.probability(x, y, epsilon) >= 0.5
        assert munich.matches(x, y, epsilon) == expected

    def test_matches_tau_override(self, tiny_pair):
        x, y = tiny_pair
        munich = Munich(tau=0.99)
        assert munich.matches(x, y, 100.0, tau=0.01)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            Munich(tau=0.0)
        with pytest.raises(InvalidParameterError):
            Munich(method="magic")

    def test_dtw_probability_naive(self, tiny_pair):
        x, y = tiny_pair
        p = Munich(method="naive").dtw_probability(x, y, 1.0, window=1)
        assert 0.0 <= p <= 1.0

    def test_dtw_probability_monte_carlo(self, tiny_pair):
        x, y = tiny_pair
        exact = Munich(method="naive").dtw_probability(x, y, 1.0, window=1)
        sampled = Munich(method="montecarlo", n_samples=50_000, rng=4).dtw_probability(
            x, y, 1.0, window=1
        )
        assert sampled == pytest.approx(exact, abs=0.02)

    def test_dtw_leq_euclidean_probability_is_geq(self, tiny_pair):
        """DTW distances <= Euclidean, so match probability is >=."""
        x, y = tiny_pair
        eps = 0.8
        p_euclid = Munich(method="naive", use_bounds=False).probability(x, y, eps)
        p_dtw = Munich(method="naive").dtw_probability(x, y, eps)
        assert p_dtw >= p_euclid - 1e-12
