"""Batch query engine: materializations + kernel/per-pair equivalence.

The contract under test: for every technique family, a one-row
``distance_matrix`` / ``probability_matrix`` returns exactly (to 1e-9)
what the per-pair ``distance`` / ``probability`` loop returns, on
homogeneous and heterogeneous error models alike — so the harness can use
the vectorized kernels without changing any result.
"""

from __future__ import annotations

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.core import spawn
from repro.core.errors import InvalidParameterError
from repro.datasets import generate_dataset
from repro.distances.lp import euclidean, euclidean_profile
from repro.munich import Munich
from repro.perturbation import ConstantScenario, MixedStdScenario
from repro.queries import (
    CollectionMaterialization,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichTechnique,
    ProudTechnique,
    SimilaritySession,
    technique_epsilon,
)
from repro.queries.thresholds import PAPER_K, calibrate_queries

SEED = 1234
N_SERIES = 24
LENGTH = 32


@pytest.fixture(scope="module")
def exact():
    return generate_dataset(
        "GunPoint", seed=SEED, n_series=N_SERIES, length=LENGTH
    )


def _perturb(exact, scenario, tag):
    return [
        scenario.apply(series, spawn(SEED, tag, index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def homogeneous(exact):
    """Every series under one normal σ=0.4 error model."""
    return _perturb(exact, ConstantScenario("normal", 0.4), "homog")


@pytest.fixture(scope="module")
def heterogeneous(exact):
    """Per-timestamp mixed σ (20% at 1.0, 80% at 0.4) — each series gets
    its own heterogeneous error model."""
    return _perturb(exact, MixedStdScenario("normal"), "heterog")


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(SEED, "ms", index))
        for index, series in enumerate(exact)
    ]


def _distance_techniques():
    return [
        EuclideanTechnique(),
        DustTechnique(),
        FilteredTechnique.uma(),
        FilteredTechnique.uema(),
    ]


class TestDistanceProfileEquivalence:
    @pytest.mark.parametrize(
        "technique", _distance_techniques(), ids=lambda t: t.name
    )
    @pytest.mark.parametrize("fixture", ["homogeneous", "heterogeneous"])
    def test_profile_matches_per_pair(self, technique, fixture, request):
        collection = request.getfixturevalue(fixture)
        technique.reset()
        query = collection[3]
        profile = technique.distance_matrix([query], collection)[0]
        expected = np.array(
            [technique.distance(query, candidate) for candidate in collection]
        )
        assert profile.shape == (len(collection),)
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)

    def test_self_distance_is_zero(self, homogeneous):
        technique = EuclideanTechnique()
        profile = technique.distance_matrix([homogeneous[5]], homogeneous)[0]
        assert profile[5] == pytest.approx(0.0, abs=1e-12)

    def test_dust_heterogeneous_query_model_unseen_in_collection(
        self, homogeneous, heterogeneous
    ):
        """A query whose distributions extend the collection's code space."""
        technique = DustTechnique()
        query = heterogeneous[0]  # mixed-σ model vs σ=0.4 collection
        profile = technique.distance_matrix([query], homogeneous)[0]
        expected = np.array(
            [technique.distance(query, candidate) for candidate in homogeneous]
        )
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)


class TestProbabilityProfileEquivalence:
    def _epsilon(self, collection, query_index=3):
        query = collection[query_index]
        others = np.array(
            [
                euclidean(query.observations, candidate.observations)
                for candidate in collection
            ]
        )
        return float(np.partition(others, PAPER_K)[PAPER_K])

    @pytest.mark.parametrize("assumed_std", [None, 0.7])
    @pytest.mark.parametrize("fixture", ["homogeneous", "heterogeneous"])
    def test_proud_profile_matches_per_pair(
        self, assumed_std, fixture, request
    ):
        collection = request.getfixturevalue(fixture)
        technique = ProudTechnique(assumed_std=assumed_std)
        epsilon = self._epsilon(collection)
        query = collection[3]
        profile = technique.probability_matrix([query], collection, epsilon)[0]
        expected = np.array(
            [
                technique.probability(query, candidate, epsilon)
                for candidate in collection
            ]
        )
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)

    def test_proud_synopsis_falls_back_to_per_pair(self, homogeneous):
        technique = ProudTechnique(synopsis_coefficients=8)
        epsilon = self._epsilon(homogeneous)
        query = homogeneous[3]
        profile = technique.probability_matrix(
            [query], homogeneous, epsilon
        )[0]
        expected = np.array(
            [
                technique.probability(query, candidate, epsilon)
                for candidate in homogeneous
            ]
        )
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("use_bounds", [True, False])
    def test_munich_profile_matches_per_pair(self, multisample, use_bounds):
        technique = MunichTechnique(
            Munich(tau=0.5, n_bins=256, use_bounds=use_bounds)
        )
        query = multisample[3]
        others = np.array(
            [
                euclidean(query.samples[:, 0], candidate.samples[:, 0])
                for candidate in multisample
            ]
        )
        epsilon = float(np.partition(others, PAPER_K)[PAPER_K])
        profile = technique.probability_matrix(
            [query], multisample, epsilon
        )[0]
        expected = np.array(
            [
                technique.probability(query, candidate, epsilon)
                for candidate in multisample
            ]
        )
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)

    def test_negative_epsilon_rejected(self, homogeneous, multisample):
        with pytest.raises(Exception):
            ProudTechnique().probability_matrix(
                [homogeneous[0]], homogeneous, -1.0
            )
        with pytest.raises(Exception):
            MunichTechnique().probability_matrix(
                [multisample[0]], multisample, -1.0
            )


class TestCalibrationProfile:
    def test_distance_technique_uses_distance_profile(self, homogeneous):
        technique = DustTechnique()
        profile = technique.calibration_matrix(
            [homogeneous[0]], homogeneous
        )[0]
        np.testing.assert_allclose(
            profile,
            technique.distance_matrix([homogeneous[0]], homogeneous)[0],
            atol=1e-12,
        )

    def test_proud_calibration_is_euclidean(self, homogeneous):
        technique = ProudTechnique(assumed_std=0.7)
        profile = technique.calibration_matrix(
            [homogeneous[0]], homogeneous
        )[0]
        expected = np.array(
            [
                technique.calibration_distance(homogeneous[0], candidate)
                for candidate in homogeneous
            ]
        )
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)

    def test_munich_calibration_uses_column_zero(self, multisample):
        technique = MunichTechnique()
        profile = technique.calibration_matrix(
            [multisample[0]], multisample
        )[0]
        expected = np.array(
            [
                technique.calibration_distance(multisample[0], candidate)
                for candidate in multisample
            ]
        )
        np.testing.assert_allclose(profile, expected, atol=1e-9, rtol=0.0)

    def test_technique_epsilon_reads_profile_anchor(self, homogeneous):
        technique = EuclideanTechnique()
        values = np.vstack([s.observations for s in homogeneous])
        calibration = calibrate_queries(values, k=PAPER_K)[0]
        profile = technique.calibration_matrix(
            [homogeneous[0]], homogeneous
        )[0]
        from_pair = technique_epsilon(technique, homogeneous, calibration)
        assert profile[calibration.anchor_index] == pytest.approx(
            from_pair, abs=1e-9
        )


class TestBatchQueryConsumers:
    def test_range_query_vectorized_matches_loop(self, rng=None):
        values = np.random.default_rng(7).normal(size=(20, 16))
        query = values[0]
        epsilon = 4.0
        fast = (
            SimilaritySession(values)
            .queries([0])
            .using(EuclideanTechnique())
            .range(epsilon)
            .sets()[0]
        )
        slow = [
            j
            for j in range(1, 20)
            if euclidean(query, values[j]) <= epsilon
        ]
        assert fast == slow

    def test_knn_technique_query_matches_per_pair_ranking(self, homogeneous):
        technique = DustTechnique()
        batch = (
            SimilaritySession(homogeneous)
            .queries([2])
            .using(technique)
            .knn(5)
            .row(0)
        )
        distances = np.array(
            [technique.distance(homogeneous[2], c) for c in homogeneous]
        )
        order = [
            int(i) for i in np.argsort(distances, kind="stable") if i != 2
        ][:5]
        assert batch == order

    def test_probabilistic_range_query_distance_and_prob(
        self, homogeneous
    ):
        query_set = SimilaritySession(homogeneous).queries([0])
        result = query_set.using(EuclideanTechnique()).range(5.0).sets()[0]
        assert 0 not in result
        proud = ProudTechnique(assumed_std=0.7)
        with_tau = query_set.using(proud).prob_range(5.0, 0.5).sets()[0]
        expected = [
            j
            for j, candidate in enumerate(homogeneous)
            if j != 0
            and proud.probability(homogeneous[0], candidate, 5.0) >= 0.5
        ]
        assert with_tau == expected


class TestQueryEngine:
    def test_materialize_is_cached_per_collection(self, homogeneous):
        """A session builds its collection's materialization once and
        hands that one to every plan it runs."""
        session = SimilaritySession(homogeneous)
        first = session.materialization()
        session.queries([0]).using(EuclideanTechnique()).knn(3)
        session.queries().using(FilteredTechnique.uma()).range(4.0)
        assert session.materialization() is first

    def test_values_matrix_built_once(self, homogeneous):
        materialized = CollectionMaterialization(homogeneous)
        matrix = materialized.values_matrix()
        assert matrix is materialized.values_matrix()
        np.testing.assert_array_equal(
            matrix, np.vstack([s.observations for s in homogeneous])
        )

    def test_strong_reference_prevents_stale_id_reuse(self):
        """A materialization pins every member it snapshotted, so the
        member that replaces one in place can never inherit its ``id``
        and pass ``is_current`` as the old one."""
        values = np.random.default_rng(3).normal(size=(4, 8))
        collection = [row.copy() for row in values]
        for _ in range(20):
            materialized = CollectionMaterialization(collection)
            collection[0] = values[0].copy()
            gc.collect()
            assert not materialized.is_current()

    def test_model_codes_group_by_distribution(self, heterogeneous):
        materialized = CollectionMaterialization(heterogeneous)
        codes, distincts = materialized.model_codes()
        assert codes.shape == (len(heterogeneous), LENGTH)
        assert len(distincts) == 2  # σ=1.0 and σ=0.4 normals
        for row, series in enumerate(heterogeneous):
            for i in (0, LENGTH // 2, LENGTH - 1):
                assert distincts[codes[row, i]] == series.error_model[i]

    def test_filtered_matrix_cached_per_filter(self, homogeneous):
        materialized = CollectionMaterialization(homogeneous)
        uma = FilteredTechnique.uma().filtered
        uema = FilteredTechnique.uema().filtered
        first = materialized.filtered_matrix(uma)
        assert first is materialized.filtered_matrix(uma)
        assert materialized.filtered_matrix(uema) is not first

    def test_candidate_side_argument(self, homogeneous):
        """A plan reads the candidate side its caller passes, and
        refuses a side built over another collection."""
        technique = EuclideanTechnique()
        collection = list(homogeneous)
        side = CollectionMaterialization(collection)
        values, _ = technique.matrix_with_stats(
            "distance", [collection[0]], collection, candidate_side=side
        )
        assert side._values is not None
        np.testing.assert_array_equal(
            values, technique.distance_matrix([collection[0]], collection)
        )
        with pytest.raises(InvalidParameterError, match="candidate_side"):
            technique.matrix_with_stats(
                "distance", collection, list(collection), candidate_side=side
            )

    def test_session_less_call_keeps_no_collection(self, homogeneous):
        """A session-less matrix call builds its sides for the plan and
        drops them on return: the collection is collectable after."""

        class Members(list):
            """A list that takes weak references."""

        technique = EuclideanTechnique()
        collection = Members(homogeneous)
        alive = weakref.ref(collection)
        technique.distance_matrix(collection, collection)
        technique.distance_matrix([homogeneous[0]], collection)
        technique.matrix_with_stats(
            "distance", [homogeneous[1]], collection, knn_k=3
        )
        del collection
        gc.collect()
        assert alive() is None

    def test_euclidean_profile_matches_scalar(self):
        values = np.random.default_rng(11).normal(size=(6, 12))
        profile = euclidean_profile(values[0], values)
        expected = [euclidean(values[0], row) for row in values]
        np.testing.assert_allclose(profile, expected, atol=1e-12)

    def test_materialization_len(self, homogeneous):
        assert len(CollectionMaterialization(homogeneous)) == len(homogeneous)

    def test_in_place_mutation_triggers_rebuild(self, homogeneous):
        """A session over a plain list answers from its new contents
        after an in-place replace or append (identity of the list alone
        is not enough)."""
        technique = EuclideanTechnique()
        collection = list(homogeneous)
        session = SimilaritySession(collection)

        def profile():
            query_set = session.queries([0]).using(technique)
            return query_set.profile_matrix().values[0]

        before = profile()
        built = session.materialization()
        collection[5] = homogeneous[6]  # replace a member in place
        after = profile()
        assert after[5] == pytest.approx(before[6], abs=1e-12)
        assert session.materialization() is not built
        collection.append(homogeneous[7])  # grow in place
        grown = profile()
        assert grown.shape == (len(homogeneous) + 1,)
        assert grown[-1] == pytest.approx(before[7], abs=1e-12)
        nearest = session.queries([0]).using(technique).knn(len(homogeneous))
        assert len(homogeneous) in nearest.indices[0]

    def test_dust_table_propagates_nan(self):
        technique = DustTechnique()
        from repro.distributions import NormalError

        table = technique.dust.table(NormalError(0.4), NormalError(0.4))
        out = table.dust_squared(np.array([0.5, np.nan, 1.0]))
        assert np.isnan(out[1])
        assert np.isfinite(out[0]) and np.isfinite(out[2])

    def test_proud_synopsis_cache_cleared_on_reset(self, homogeneous):
        technique = ProudTechnique(synopsis_coefficients=8)
        technique.probability(homogeneous[0], homogeneous[1], 3.0)
        assert technique._proud.synopsis._cache
        technique.reset()
        assert not technique._proud.synopsis._cache


def _run_threads(target, n_threads: int, switch_interval: float) -> list:
    """Run ``target(slot)`` on ``n_threads`` threads under a short switch
    interval; returns the exceptions they raised (joins are bounded)."""
    errors: list = []
    start = threading.Barrier(n_threads)

    def guarded(slot: int) -> None:
        try:
            start.wait(timeout=30.0)
            target(slot)
        except Exception as error:  # noqa: BLE001 — asserted by callers
            errors.append(error)

    workers = [
        threading.Thread(target=guarded, args=(slot,))
        for slot in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120.0)
            assert not worker.is_alive(), "a worker thread never finished"
    finally:
        sys.setswitchinterval(interval)
    return errors


class TestEngineConcurrency:
    def test_concurrent_lazy_fills_build_equal_arrays(self, heterogeneous):
        """Eight threads filling one fresh materialization's caches at
        once: every thread gets arrays equal to a serial build."""
        uma = FilteredTechnique.uma().filtered
        materialized = CollectionMaterialization(heterogeneous)
        reference = CollectionMaterialization(heterogeneous)
        results: dict = {}

        def fill(slot: int) -> None:
            results[slot] = (
                materialized.filtered_matrix(uma),
                materialized.model_codes(),
                materialized.paa_summary(4),
            )

        assert _run_threads(fill, 8, 1e-6) == []
        codes, distincts = reference.model_codes()
        summary = reference.paa_summary(4)
        assert len(results) == 8
        for filtered, (got_codes, got_distincts), got_summary in (
            results.values()
        ):
            np.testing.assert_array_equal(
                filtered, reference.filtered_matrix(uma)
            )
            np.testing.assert_array_equal(got_codes, codes)
            assert got_distincts == distincts
            np.testing.assert_array_equal(got_summary.means, summary.means)
