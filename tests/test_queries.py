"""Unit tests for repro.queries (techniques, range queries, knn, thresholds)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ErrorModel,
    InvalidParameterError,
    TimeSeries,
    UnsupportedQueryError,
    make_rng,
)
from repro.distances import euclidean
from repro.distributions import NormalError
from repro.dust import dust_table
from repro.munich import Munich
from repro.perturbation import ConstantScenario, perturb_multisample
from repro.queries import (
    DustTechnique,
    SimilaritySession,
    EuclideanTechnique,
    FilteredTechnique,
    MunichTechnique,
    ProudTechnique,
    calibrate_queries,
    euclidean_knn_table,
    knn_indices,
    select_query_indices,
    technique_epsilon,
)


@pytest.fixture
def perturbed_collection(small_collection, rng):
    scenario = ConstantScenario("normal", 0.2)
    return [scenario.apply(s, rng) for s in small_collection]


class TestEuclideanTechnique:
    def test_distance_on_observations(self, perturbed_collection):
        technique = EuclideanTechnique()
        x, y = perturbed_collection[0], perturbed_collection[1]
        assert technique.distance(x, y) == pytest.approx(
            euclidean(x.observations, y.observations)
        )

    def test_probability_unsupported(self, perturbed_collection):
        with pytest.raises(UnsupportedQueryError):
            EuclideanTechnique().probability(
                perturbed_collection[0], perturbed_collection[1], 1.0
            )


class TestDustTechnique:
    def test_calibration_uses_own_distance(self, perturbed_collection):
        technique = DustTechnique()
        x, y = perturbed_collection[0], perturbed_collection[1]
        assert technique.calibration_distance(x, y) == pytest.approx(
            technique.distance(x, y)
        )

    def test_tables_shared_across_calls(self, perturbed_collection):
        technique = DustTechnique()
        technique.distance(perturbed_collection[0], perturbed_collection[1])
        misses_after_first = dust_table.cache_info().misses
        technique.distance(perturbed_collection[1], perturbed_collection[2])
        assert dust_table.cache_info().misses == misses_after_first


class TestFilteredTechnique:
    def test_factories(self):
        assert FilteredTechnique.uma().name == "UMA(w=2)"
        assert FilteredTechnique.uema().name == "UEMA(w=2, lambda=1)"

    def test_distance_matches_direct_filtering(self, perturbed_collection):
        technique = FilteredTechnique.uema()
        x, y = perturbed_collection[0], perturbed_collection[1]
        expected = technique.filtered.distance(x, y)
        assert technique.distance(x, y) == pytest.approx(expected)


class TestProudTechnique:
    def test_probability_in_bounds(self, perturbed_collection):
        technique = ProudTechnique(assumed_std=0.2)
        p = technique.probability(
            perturbed_collection[0], perturbed_collection[1], 2.0
        )
        assert 0.0 <= p <= 1.0

    def test_assumed_std_overrides_model(self, perturbed_collection):
        x, y = perturbed_collection[0], perturbed_collection[1]
        loose = ProudTechnique(assumed_std=2.0)
        tight = ProudTechnique(assumed_std=0.05)
        # With a tiny assumed sigma, PROUD behaves like exact Euclidean:
        # epsilon slightly above the observed distance gives probability ~1.
        d = euclidean(x.observations, y.observations)
        assert tight.probability(x, y, d * 1.05) > 0.95
        assert loose.probability(x, y, d * 1.05) < 0.9

    def test_calibration_distance_is_euclidean(self, perturbed_collection):
        technique = ProudTechnique()
        x, y = perturbed_collection[0], perturbed_collection[1]
        assert technique.calibration_distance(x, y) == pytest.approx(
            euclidean(x.observations, y.observations)
        )

    def test_reset_clears_model_cache(self, perturbed_collection):
        technique = ProudTechnique(assumed_std=0.5)
        technique.probability(
            perturbed_collection[0], perturbed_collection[1], 1.0
        )
        assert technique._model_cache
        technique.reset()
        assert not technique._model_cache

    def test_distance_unsupported(self, perturbed_collection):
        with pytest.raises(UnsupportedQueryError):
            ProudTechnique().distance(
                perturbed_collection[0], perturbed_collection[1]
            )


class TestMunichTechnique:
    def test_probability_and_calibration(self, rng):
        model = ErrorModel.constant(NormalError(0.3), 6)
        x = perturb_multisample(TimeSeries(np.zeros(6)), model, 4, rng)
        y = perturb_multisample(TimeSeries(np.ones(6) * 0.2), model, 4, rng)
        technique = MunichTechnique(Munich(n_bins=512))
        p = technique.probability(x, y, 2.0)
        assert 0.0 <= p <= 1.0
        expected = euclidean(x.samples[:, 0], y.samples[:, 0])
        assert technique.calibration_distance(x, y) == pytest.approx(expected)

    def test_input_kind(self):
        assert MunichTechnique().input_kind == "multisample"
        assert EuclideanTechnique().input_kind == "pdf"


def _one_query(collection, query, technique):
    """A one-row fluent query set: an index selects a member (its
    self-match is excluded), a value row competes against every series."""
    return SimilaritySession(collection).queries([query]).using(technique)


class TestRangeQueries:
    def test_certain_range_query(self):
        collection = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        result = _one_query(collection, np.zeros(2), EuclideanTechnique())
        assert result.range(2.0).sets() == [[0, 1]]

    def test_exclude_self(self):
        collection = np.array([[0.0, 0.0], [1.0, 0.0]])
        result = _one_query(collection, 0, EuclideanTechnique())
        assert result.range(2.0).sets() == [[1]]

    def test_negative_epsilon_rejected(self):
        query_set = _one_query(np.zeros((1, 2)), 0, EuclideanTechnique())
        with pytest.raises(InvalidParameterError):
            query_set.range(-1.0)

    def test_probabilistic_range_query_distance_technique(
        self, perturbed_collection
    ):
        technique = EuclideanTechnique()
        query = perturbed_collection[0]
        result = (
            _one_query(perturbed_collection, 0, technique).range(5.0).sets()[0]
        )
        expected = [
            i
            for i, candidate in enumerate(perturbed_collection)
            if i != 0 and technique.distance(query, candidate) <= 5.0
        ]
        assert result == expected

    def test_probabilistic_range_query_with_tau(self, perturbed_collection):
        technique = ProudTechnique(assumed_std=0.2)
        query = perturbed_collection[0]
        result = _one_query(perturbed_collection, 0, technique).prob_range(
            3.0, 0.5
        )
        expected = [
            i
            for i, candidate in enumerate(perturbed_collection)
            if i != 0 and technique.probability(query, candidate, 3.0) >= 0.5
        ]
        assert result.sets() == [expected]


class TestKnn:
    def test_knn_indices_stable_ties(self):
        distances = np.array([1.0, 0.5, 0.5, 2.0])
        assert knn_indices(distances, 2) == [1, 2]

    def test_knn_indices_exclude(self):
        distances = np.array([0.0, 1.0, 2.0])
        assert knn_indices(distances, 2, exclude=0) == [1, 2]

    def test_knn_indices_validation(self):
        with pytest.raises(InvalidParameterError):
            knn_indices(np.array([1.0]), 0)

    def test_knn_query(self):
        collection = np.array([[0.0], [3.0], [1.0], [10.0]])
        result = _one_query(collection, np.array([0.0]), EuclideanTechnique())
        assert result.knn(2).row(0) == [0, 2]

    def test_knn_technique_query(self, perturbed_collection):
        technique = EuclideanTechnique()
        query = perturbed_collection[0]
        result = _one_query(perturbed_collection, 0, technique).knn(3).row(0)
        distances = [technique.distance(query, c) for c in perturbed_collection]
        assert result == knn_indices(distances, 3, exclude=0)

    def test_knn_technique_query_rejects_probabilistic(
        self, perturbed_collection
    ):
        query_set = _one_query(perturbed_collection, 0, ProudTechnique())
        with pytest.raises(UnsupportedQueryError):
            query_set.knn(3)

    def test_euclidean_knn_table(self):
        values = np.array([[0.0], [1.0], [2.5], [10.0]])
        table = euclidean_knn_table(values, 2)
        assert table.shape == (4, 2)
        assert table[0].tolist() == [1, 2]
        assert 3 not in table[0]

    def test_euclidean_knn_table_excludes_self(self):
        values = np.random.default_rng(0).normal(size=(6, 4))
        table = euclidean_knn_table(values, 3)
        for i in range(6):
            assert i not in table[i]

    def test_euclidean_knn_table_k_bound(self):
        with pytest.raises(InvalidParameterError):
            euclidean_knn_table(np.zeros((3, 2)), 3)


class TestThresholdCalibration:
    def test_ground_truth_has_k_members(self, small_collection):
        calibrations = calibrate_queries(small_collection.values_matrix(), k=4)
        assert len(calibrations) == len(small_collection)
        for calibration in calibrations:
            assert len(calibration.ground_truth) == 4
            assert calibration.anchor_index in calibration.ground_truth
            assert calibration.query_index not in calibration.ground_truth

    def test_anchor_is_kth_neighbor(self, small_collection):
        values = small_collection.values_matrix()
        calibrations = calibrate_queries(values, k=3)
        for calibration in calibrations:
            distances = np.linalg.norm(
                values - values[calibration.query_index], axis=1
            )
            distances[calibration.query_index] = np.inf
            order = np.argsort(distances, kind="stable")
            assert calibration.anchor_index == order[2]

    def test_technique_epsilon_uses_calibration_distance(
        self, small_collection, perturbed_collection
    ):
        calibrations = calibrate_queries(small_collection.values_matrix(), k=4)
        technique = EuclideanTechnique()
        epsilon = technique_epsilon(
            technique, perturbed_collection, calibrations[0]
        )
        expected = technique.distance(
            perturbed_collection[0],
            perturbed_collection[calibrations[0].anchor_index],
        )
        assert epsilon == pytest.approx(expected)

    def test_select_query_indices_all(self):
        indices = select_query_indices(10, 50, make_rng(0))
        assert np.array_equal(indices, np.arange(10))

    def test_select_query_indices_sampled(self):
        indices = select_query_indices(100, 10, make_rng(0))
        assert indices.size == 10
        assert np.array_equal(indices, np.sort(indices))
        assert np.unique(indices).size == 10

    def test_select_query_indices_validation(self):
        with pytest.raises(InvalidParameterError):
            select_query_indices(10, 0, make_rng(0))
