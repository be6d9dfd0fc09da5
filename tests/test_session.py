"""Session API: all-pairs matrix kernels + declarative QuerySet semantics.

The contracts under test:

* ``distance_matrix`` / ``probability_matrix`` ≡ the stacked one-row
  matrices to 1e-9, for all five technique families on homogeneous *and*
  heterogeneous error models (so batching queries never changes a
  result);
* the GEMM identity stays numerically sound on near-duplicate series
  (where the norm expansion cancels catastrophically);
* all-pairs and one-row kNN rankings agree bit-for-bit (stable
  tie-breaking by candidate index);
* the fluent ``SimilaritySession`` / ``QuerySet`` surface matches
  per-pair references, including self-match exclusion;
* the harness's F1, τ and result sizes match a per-pair reference of
  the same protocol;
* a technique holds parameters only: running it through sessions leaves
  its state untouched, and one instance serves two sessions on two
  engines from two threads at once.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import MappedCollection, load_collection, save_collection, spawn
from repro.core.errors import InvalidParameterError, UnsupportedQueryError
from repro.datasets import generate_dataset
from repro.distances.filtered import FilteredEuclidean
from repro.distances.lp import (
    euclidean,
    euclidean_matrix,
    squared_euclidean_matrix,
)
from repro.evaluation import (
    DEFAULT_TAU_GRID,
    optimal_tau,
    results_at_tau,
    run_similarity_experiment,
    score_result_set,
)
from repro.munich import Munich
from repro.perturbation import ConstantScenario, MixedStdScenario
from repro.queries import (
    SHARED_ENGINE,
    DustDtwTechnique,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    KnnResult,
    MatrixResult,
    MunichDtwTechnique,
    MunichTechnique,
    ProudTechnique,
    QueryEngine,
    QuerySet,
    RangeResult,
    SimilaritySession,
    Technique,
    knn_indices,
    knn_table,
)
from repro.queries.session import execute_query
from repro.queries.thresholds import (
    PAPER_K,
    calibrate_queries,
    select_query_indices,
)

SEED = 4321
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
    return _perturb(exact, ConstantScenario("normal", 0.4), "homog")


@pytest.fixture(scope="module")
def heterogeneous(exact):
    return _perturb(exact, MixedStdScenario("normal"), "heterog")


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(SEED, "ms", index))
        for index, series in enumerate(exact)
    ]


def _per_query_epsilons(collection):
    """A spread of plausible per-query thresholds."""
    return np.linspace(2.0, 6.0, len(collection))


def _distance_techniques():
    return [
        EuclideanTechnique(),
        DustTechnique(),
        FilteredTechnique.uma(),
        FilteredTechnique.uema(),
    ]


class TestDistanceMatrixEquivalence:
    @pytest.mark.parametrize(
        "technique", _distance_techniques(), ids=lambda t: t.name
    )
    @pytest.mark.parametrize("fixture", ["homogeneous", "heterogeneous"])
    def test_matrix_matches_stacked_profiles(
        self, technique, fixture, request
    ):
        collection = request.getfixturevalue(fixture)
        technique.reset()
        matrix = technique.distance_matrix(collection, collection)
        stacked = np.vstack(
            [technique.distance_matrix([q], collection)[0] for q in collection]
        )
        assert matrix.shape == (len(collection), len(collection))
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    def test_subset_queries_and_outside_query(self, homogeneous, heterogeneous):
        technique = DustTechnique()
        queries = [heterogeneous[0], homogeneous[3], heterogeneous[7]]
        matrix = technique.distance_matrix(queries, homogeneous)
        stacked = np.vstack(
            [technique.distance_matrix([q], homogeneous) for q in queries]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    def test_self_distances_are_zero(self, homogeneous):
        matrix = EuclideanTechnique().distance_matrix(
            homogeneous, homogeneous
        )
        np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-12)

    def test_empty_query_set(self, homogeneous):
        for technique in _distance_techniques():
            out = technique.distance_matrix([], homogeneous)
            assert out.shape == (0, len(homogeneous))

    def test_base_class_fallback_for_custom_techniques(self, homogeneous):
        class Hamming(Technique):
            name = "Hamming-ish"
            kind = "distance"

            def distance(self, query, candidate):
                return float(
                    np.sum(query.observations > candidate.observations)
                )

        technique = Hamming()
        matrix = technique.distance_matrix(homogeneous[:4], homogeneous)
        per_pair = [
            [technique.distance(q, c) for c in homogeneous]
            for q in homogeneous[:4]
        ]
        np.testing.assert_array_equal(matrix, per_pair)


class TestProbabilityMatrixEquivalence:
    @pytest.mark.parametrize("assumed_std", [None, 0.7])
    @pytest.mark.parametrize("fixture", ["homogeneous", "heterogeneous"])
    def test_proud_matrix_matches_stacked_profiles(
        self, assumed_std, fixture, request
    ):
        collection = request.getfixturevalue(fixture)
        technique = ProudTechnique(assumed_std=assumed_std)
        epsilons = _per_query_epsilons(collection)
        matrix = technique.probability_matrix(
            collection, collection, epsilons
        )
        stacked = np.vstack(
            [
                technique.probability_matrix([q], collection, float(e))[0]
                for q, e in zip(collection, epsilons)
            ]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    def test_proud_scalar_epsilon_broadcasts(self, homogeneous):
        technique = ProudTechnique(assumed_std=0.7)
        matrix = technique.probability_matrix(homogeneous, homogeneous, 4.0)
        stacked = np.vstack(
            [
                technique.probability_matrix([q], homogeneous, 4.0)[0]
                for q in homogeneous
            ]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    def test_proud_synopsis_falls_back(self, homogeneous):
        technique = ProudTechnique(synopsis_coefficients=8)
        epsilons = _per_query_epsilons(homogeneous)[:3]
        matrix = technique.probability_matrix(
            homogeneous[:3], homogeneous, epsilons
        )
        stacked = np.vstack(
            [
                technique.probability_matrix([q], homogeneous, float(e))[0]
                for q, e in zip(homogeneous[:3], epsilons)
            ]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    @pytest.mark.parametrize("use_bounds", [True, False])
    def test_munich_matrix_matches_stacked_profiles(
        self, multisample, use_bounds
    ):
        technique = MunichTechnique(
            Munich(tau=0.5, n_bins=256, use_bounds=use_bounds)
        )
        epsilons = _per_query_epsilons(multisample)
        matrix = technique.probability_matrix(
            multisample, multisample, epsilons
        )
        stacked = np.vstack(
            [
                technique.probability_matrix([q], multisample, float(e))[0]
                for q, e in zip(multisample, epsilons)
            ]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    def test_epsilon_validation(self, homogeneous):
        technique = ProudTechnique(assumed_std=0.7)
        with pytest.raises(InvalidParameterError):
            technique.probability_matrix(homogeneous, homogeneous, -1.0)
        with pytest.raises(InvalidParameterError):
            technique.probability_matrix(
                homogeneous, homogeneous, np.ones(3)
            )


class TestCalibrationMatrix:
    def test_distance_techniques_use_distance_matrix(self, homogeneous):
        technique = DustTechnique()
        np.testing.assert_allclose(
            technique.calibration_matrix(homogeneous, homogeneous),
            technique.distance_matrix(homogeneous, homogeneous),
            atol=1e-12,
        )

    def test_proud_calibration_is_euclidean_gemm(self, homogeneous):
        technique = ProudTechnique(assumed_std=0.7)
        matrix = technique.calibration_matrix(homogeneous, homogeneous)
        stacked = np.vstack(
            [
                technique.calibration_matrix([q], homogeneous)[0]
                for q in homogeneous
            ]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)

    def test_munich_calibration_uses_column_zero(self, multisample):
        technique = MunichTechnique()
        matrix = technique.calibration_matrix(multisample, multisample)
        stacked = np.vstack(
            [
                technique.calibration_matrix([q], multisample)[0]
                for q in multisample
            ]
        )
        np.testing.assert_allclose(matrix, stacked, atol=1e-9, rtol=0.0)


class TestGemmNumericalStability:
    def test_near_duplicate_entries_are_exact(self):
        rng = np.random.default_rng(17)
        base = rng.normal(size=48)
        rows = np.vstack([base, base + 1e-9 * rng.normal(size=48)])
        columns = np.vstack([base, base + 100.0])
        matrix = euclidean_matrix(rows, columns)
        for i in range(2):
            for j in range(2):
                exact_value = euclidean(rows[i], columns[j])
                assert matrix[i, j] == pytest.approx(exact_value, abs=1e-9)

    def test_large_offset_near_duplicates(self):
        """Big norms + tiny distances: the worst case for the expansion."""
        rng = np.random.default_rng(18)
        base = rng.normal(size=64) + 1e4
        perturbed = base + 1e-7 * rng.normal(size=64)
        matrix = euclidean_matrix(
            np.vstack([base]), np.vstack([perturbed])
        )
        assert matrix[0, 0] == pytest.approx(
            euclidean(base, perturbed), abs=1e-9
        )

    def test_refine_off_reproduces_raw_expansion(self):
        rng = np.random.default_rng(19)
        rows = rng.normal(size=(4, 16))
        refined = squared_euclidean_matrix(rows, rows)
        raw = squared_euclidean_matrix(rows, rows, refine=False)
        # Far-apart pairs are untouched by refinement.
        off_diagonal = ~np.eye(4, dtype=bool)
        np.testing.assert_allclose(
            refined[off_diagonal], raw[off_diagonal], atol=1e-9
        )
        np.testing.assert_array_equal(np.diag(refined), 0.0)

    def test_euclidean_technique_near_duplicate_profile_agreement(
        self, homogeneous
    ):
        technique = EuclideanTechnique()
        near = [homogeneous[0], homogeneous[0]]  # identical queries
        matrix = technique.distance_matrix(near, homogeneous)
        profile = technique.distance_matrix([homogeneous[0]], homogeneous)
        np.testing.assert_allclose(matrix[0], profile[0], atol=1e-9, rtol=0.0)
        np.testing.assert_allclose(matrix[1], profile[0], atol=1e-9, rtol=0.0)


class TestKnnTieBreaking:
    def test_knn_table_breaks_ties_by_index(self):
        matrix = np.array(
            [
                [1.0, 0.5, 0.5, 0.5, 2.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        table = knn_table(matrix, 3)
        np.testing.assert_array_equal(table[0], [1, 2, 3])
        np.testing.assert_array_equal(table[1], [0, 1, 2])

    def test_knn_table_excludes_per_row(self):
        matrix = np.zeros((3, 4))
        table = knn_table(matrix, 3, exclude=np.array([0, 2, -1]))
        np.testing.assert_array_equal(table[0], [1, 2, 3])
        np.testing.assert_array_equal(table[1], [0, 1, 3])
        np.testing.assert_array_equal(table[2], [0, 1, 2])

    def test_knn_table_validates_k_and_exclude_shape(self):
        matrix = np.zeros((2, 3))
        with pytest.raises(InvalidParameterError):
            knn_table(matrix, 3, exclude=np.array([0, 1]))
        with pytest.raises(InvalidParameterError):
            knn_table(matrix, 2, exclude=np.array([0]))

    def test_matrix_and_profile_rankings_agree_bitwise(self, homogeneous):
        session = SimilaritySession(homogeneous)
        for technique in (DustTechnique(), DustDtwTechnique(window=2)):
            result = session.queries().using(technique).knn(5)
            for index, query in enumerate(homogeneous):
                expected = knn_indices(
                    technique.distance_matrix([query], homogeneous)[0], 5,
                    exclude=index,
                )
                assert result.row(index) == expected, technique.name


class TestSimilaritySession:
    def test_default_queries_are_all_series(self, homogeneous):
        session = SimilaritySession(homogeneous)
        query_set = session.queries()
        assert len(query_set) == len(homogeneous)
        np.testing.assert_array_equal(
            query_set.query_positions, np.arange(len(homogeneous))
        )

    def test_queries_by_index_and_identity(self, homogeneous):
        session = SimilaritySession(homogeneous)
        by_index = session.queries([3, 7])
        np.testing.assert_array_equal(by_index.query_positions, [3, 7])
        by_object = session.queries([homogeneous[3], homogeneous[7]])
        np.testing.assert_array_equal(by_object.query_positions, [3, 7])

    def test_outside_query_has_no_position(self, homogeneous, heterogeneous):
        session = SimilaritySession(homogeneous)
        query_set = session.queries([heterogeneous[0]])
        np.testing.assert_array_equal(query_set.query_positions, [-1])

    def test_query_by_series_reads_the_collection_once(
        self, homogeneous, tmp_path, monkeypatch
    ):
        """The identity map lives on the collection's materialization:
        repeated queries by series object look members up in O(M)
        instead of passing over the whole collection each time."""
        mapped = load_collection(
            save_collection(homogeneous, str(tmp_path / "mapped"))
        )
        session = SimilaritySession(mapped, engine=QueryEngine())
        passes = []
        iterate = MappedCollection.__iter__

        def counting(collection):
            passes.append(collection)
            return iterate(collection)

        monkeypatch.setattr(MappedCollection, "__iter__", counting)
        for index in (3, 7, 3, 0):
            query_set = session.queries([mapped[index]])
            assert query_set.query_positions.tolist() == [index]
        assert len(passes) <= 1

    def test_query_by_series_sees_a_grown_list(
        self, homogeneous, heterogeneous
    ):
        """A list collection that gains a member after a query by series
        still recognizes the new member."""
        members = list(homogeneous)
        session = SimilaritySession(members, engine=QueryEngine())
        assert session.queries([members[2]]).query_positions.tolist() == [2]
        newcomer = heterogeneous[0]
        assert session.queries([newcomer]).query_positions.tolist() == [-1]
        members.append(newcomer)
        positions = session.queries([newcomer]).query_positions
        assert positions.tolist() == [len(members) - 1]

    def test_queries_validation(self, homogeneous):
        session = SimilaritySession(homogeneous)
        with pytest.raises(InvalidParameterError):
            session.queries([])
        with pytest.raises(InvalidParameterError):
            session.queries([len(homogeneous)])

    def test_using_returns_new_query_set(self, homogeneous):
        session = SimilaritySession(homogeneous)
        bare = session.queries()
        bound = bare.using(EuclideanTechnique())
        assert bare.technique is None
        assert bound.technique is not None
        assert isinstance(bound, QuerySet)
        with pytest.raises(InvalidParameterError):
            bare.using("not a technique")

    def test_terminal_verbs_require_technique(self, homogeneous):
        query_set = SimilaritySession(homogeneous).queries()
        with pytest.raises(InvalidParameterError):
            query_set.profile_matrix()

    def test_session_pins_collection_on_private_engine(self, homogeneous):
        engine = QueryEngine()
        session = SimilaritySession(homogeneous, engine=engine)
        assert len(engine) == 1
        technique = EuclideanTechnique()
        before = dict(vars(technique))
        session.queries().using(technique).profile_matrix()
        # The engine reached the kernels as an argument: the technique
        # is unchanged and the session's engine holds the collection.
        assert vars(technique) == before
        assert list(engine._entries) == [id(homogeneous)]
        assert session.materialization().values_matrix().shape == (
            len(homogeneous),
            LENGTH,
        )

    def test_empty_collection_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimilaritySession([])


class TestSessionClose:
    def test_close_is_idempotent(self, homogeneous):
        session = SimilaritySession(homogeneous)
        assert not session.closed
        session.close()
        assert session.closed
        session.close()  # second call is a no-op, not an error
        assert session.closed

    def test_context_manager_closes(self, homogeneous):
        with SimilaritySession(homogeneous) as session:
            assert not session.closed
        assert session.closed

    def test_concurrent_close(self, homogeneous):
        """Many threads racing close() all return cleanly.

        The daemon's shutdown path can close a session while a draining
        request still holds a reference; no caller may fail or observe a
        half-closed session.
        """
        import threading

        session = SimilaritySession(homogeneous)
        barrier = threading.Barrier(8)
        errors = []

        def racer():
            try:
                barrier.wait(timeout=30.0)
                session.close()
            except Exception as error:  # pragma: no cover - must not fire
                errors.append(error)

        threads = [threading.Thread(target=racer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert errors == []
        assert session.closed


class TestQuerySetVerbs:
    def test_profile_matrix_distance(self, homogeneous):
        session = SimilaritySession(homogeneous)
        result = (
            session.queries().using(EuclideanTechnique()).profile_matrix()
        )
        assert isinstance(result, MatrixResult)
        assert result.kind == "distance"
        assert result.values.shape == (len(homogeneous), len(homogeneous))
        assert result.n_queries == len(homogeneous)
        assert result.elapsed_seconds > 0.0
        assert result.per_query_seconds > 0.0

    def test_profile_matrix_epsilon_rules(self, homogeneous):
        session = SimilaritySession(homogeneous)
        with pytest.raises(InvalidParameterError):
            session.queries().using(EuclideanTechnique()).profile_matrix(
                epsilon=1.0
            )
        with pytest.raises(InvalidParameterError):
            session.queries().using(
                ProudTechnique(assumed_std=0.7)
            ).profile_matrix()

    def test_probability_profile_matrix(self, homogeneous):
        session = SimilaritySession(homogeneous)
        epsilons = _per_query_epsilons(homogeneous)
        result = (
            session.queries()
            .using(ProudTechnique(assumed_std=0.7))
            .profile_matrix(epsilon=epsilons)
        )
        assert result.kind == "probability"
        np.testing.assert_array_equal(result.epsilons, epsilons)
        with pytest.raises(UnsupportedQueryError):
            result.top_k(3)

    def test_knn_excludes_self(self, homogeneous):
        session = SimilaritySession(homogeneous)
        result = session.queries().using(EuclideanTechnique()).knn(5)
        assert isinstance(result, KnnResult)
        assert result.k == 5
        for index in range(len(homogeneous)):
            assert index not in result.row(index)
        # Scores align with indices.
        matrix = EuclideanTechnique().distance_matrix(
            homogeneous, homogeneous
        )
        np.testing.assert_allclose(
            result.scores,
            np.take_along_axis(matrix, result.indices, axis=1),
            atol=1e-12,
        )

    def test_knn_rejects_probabilistic(self, homogeneous):
        session = SimilaritySession(homogeneous)
        with pytest.raises(UnsupportedQueryError):
            session.queries().using(ProudTechnique(assumed_std=0.7)).knn(5)

    def test_range_matches_per_pair_reference(self, homogeneous):
        technique = EuclideanTechnique()
        session = SimilaritySession(homogeneous)
        result = session.queries().using(technique).range(4.5)
        assert isinstance(result, RangeResult)
        for index, found in enumerate(result.sets()):
            expected = [
                j
                for j, candidate in enumerate(homogeneous)
                if j != index
                and technique.distance(homogeneous[index], candidate) <= 4.5
            ]
            assert found == expected

    def test_range_rejects_probabilistic(self, homogeneous):
        session = SimilaritySession(homogeneous)
        with pytest.raises(UnsupportedQueryError):
            session.queries().using(
                ProudTechnique(assumed_std=0.7)
            ).range(4.5)

    def test_prob_range_matches_per_pair_reference(self, homogeneous):
        technique = ProudTechnique(assumed_std=0.7)
        session = SimilaritySession(homogeneous)
        result = session.queries().using(technique).prob_range(4.5, 0.5)
        assert result.tau == 0.5
        for index, found in enumerate(result.sets()):
            query = homogeneous[index]
            expected = [
                j
                for j, candidate in enumerate(homogeneous)
                if j != index
                and technique.probability(query, candidate, 4.5) >= 0.5
            ]
            assert found == expected

    def test_prob_range_validation(self, homogeneous):
        session = SimilaritySession(homogeneous)
        with pytest.raises(UnsupportedQueryError):
            session.queries().using(EuclideanTechnique()).prob_range(
                4.5, 0.5
            )
        with pytest.raises(InvalidParameterError):
            session.queries().using(
                ProudTechnique(assumed_std=0.7)
            ).prob_range(4.5, 1.5)

    def test_calibration_matrix_anchor_equals_free_epsilon(
        self, exact, homogeneous
    ):
        from repro.queries.thresholds import (
            calibrate_queries,
            technique_epsilon,
        )

        technique = ProudTechnique(assumed_std=0.7)
        calibrations = calibrate_queries(exact.values_matrix(), k=PAPER_K)
        session = SimilaritySession(homogeneous)
        matrix = session.queries().using(technique).calibration_matrix()
        assert matrix.kind == "calibration"
        for calibration in calibrations[:5]:
            from_matrix = matrix.values[
                calibration.query_index, calibration.anchor_index
            ]
            from_pair = technique_epsilon(
                technique, homogeneous, calibration
            )
            assert from_matrix == pytest.approx(from_pair, abs=1e-9)

    def test_result_sets_respect_kind_and_self_exclusion(self, homogeneous):
        session = SimilaritySession(homogeneous)
        distance = (
            session.queries().using(EuclideanTechnique()).profile_matrix()
        )
        sets = distance.result_sets(4.5)
        for index, found in enumerate(sets):
            assert index not in found


def _per_pair_protocol(exact, scenario, technique, n_queries, seed):
    """The harness protocol evaluated one pair at a time.

    Same perturbation streams, calibration and query selection as
    :func:`run_similarity_experiment`, but every ε, distance and
    probability comes from the technique's per-pair methods.  Returns
    ``(per-query F1 list, tau, per-query result sizes)``.
    """
    pdf = [
        scenario.apply(series, spawn(seed, "perturb-pdf", index))
        for index, series in enumerate(exact)
    ]
    calibrations = calibrate_queries(exact.values_matrix(), k=PAPER_K)
    query_indices = select_query_indices(
        len(exact), n_queries, spawn(seed, "query-selection")
    )
    scores, candidate_lists, ground_truths, sizes = [], [], [], []
    for query_index in query_indices:
        calibration = calibrations[query_index]
        query = pdf[query_index]
        epsilon = technique.calibration_distance(
            query, pdf[calibration.anchor_index]
        )
        candidates = np.array(
            [i for i in range(len(pdf)) if i != query_index]
        )
        ground_truths.append(calibration.ground_truth)
        candidate_lists.append(candidates)
        if technique.kind == "distance":
            selected = [
                int(i)
                for i in candidates
                if technique.distance(query, pdf[i]) <= epsilon
            ]
            scores.append(
                score_result_set(selected, set(calibration.ground_truth))
            )
            sizes.append(len(selected))
        else:
            scores.append(
                np.array(
                    [
                        technique.probability(query, pdf[i], epsilon)
                        for i in candidates
                    ]
                )
            )
    if technique.kind == "distance":
        return [score.f1 for score in scores], None, sizes
    tau = optimal_tau(
        scores, candidate_lists, ground_truths, DEFAULT_TAU_GRID
    ).best_tau
    at_tau = results_at_tau(scores, candidate_lists, ground_truths, tau)
    sizes = [int(np.count_nonzero(row >= tau)) for row in scores]
    return [score.f1 for score in at_tau], tau, sizes


class TestHarnessPerPairReference:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate_dataset(
            "GunPoint", seed=SEED, n_series=20, length=24
        )

    def test_harness_f1_matches_per_pair_reference(self, dataset):
        scenario = ConstantScenario("normal", 0.6)
        techniques = [
            EuclideanTechnique(),
            DustTechnique(),
            FilteredTechnique.uma(),
            ProudTechnique(assumed_std=0.7),
        ]
        run = run_similarity_experiment(
            dataset, scenario, techniques, n_queries=8, seed=3
        )
        for technique in techniques:
            outcome = run.techniques[technique.name]
            f1s, tau, sizes = _per_pair_protocol(
                dataset, scenario, technique, n_queries=8, seed=3
            )
            assert outcome.tau == tau, technique.name
            assert [q.result_size for q in outcome.queries] == sizes
            np.testing.assert_allclose(
                [q.f1 for q in outcome.queries], f1s, atol=1e-12, rtol=0.0
            )


def _every_family():
    """One instance of each of the eight technique families."""
    return [
        EuclideanTechnique(),
        DustTechnique(),
        FilteredTechnique.uma(),
        FilteredTechnique.uema(),
        ProudTechnique(assumed_std=0.4),
        MunichTechnique(),
        DustDtwTechnique(window=2),
        MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=16, rng=0),
        ),
    ]


def _state(technique: Technique) -> dict:
    """Each attribute's identity and, for containers, its size."""
    return {
        name: (id(value), len(value) if hasattr(value, "__len__") else None)
        for name, value in vars(technique).items()
    }


class _GatedEuclidean(EuclideanTechnique):
    """Euclidean whose kernel waits until ``parties`` runs are inside it."""

    def __init__(self, parties: int) -> None:
        super().__init__()
        self.gate = threading.Barrier(parties, timeout=30.0)

    def distance_kernel(self, query_side, candidate_side):
        self.gate.wait()
        return super().distance_kernel(query_side, candidate_side)


class TestTechniquesHoldParametersOnly:
    @pytest.mark.parametrize(
        "technique", _every_family(), ids=lambda t: t.name
    )
    def test_session_runs_leave_the_technique_unchanged(
        self, technique, homogeneous, multisample
    ):
        """kNN, range and prob-range batches, full-protocol and
        single-row, change no attribute of the technique: same keys,
        same objects, same container sizes."""
        collection = (
            multisample if technique.input_kind == "multisample"
            else homogeneous
        )
        before = _state(technique)
        session = SimilaritySession(collection, engine=QueryEngine())
        for rows in (None, [3], [0, 5, 9]):
            queries = session.queries(rows).using(technique)
            if technique.kind == "distance":
                queries.knn(3)
                queries.range(4.0)
            else:
                queries.prob_range(4.0, 0.5)
        assert _state(technique) == before

    def test_one_technique_serves_two_engines_from_two_threads(
        self, homogeneous, heterogeneous
    ):
        """Two sessions on private engines run one shared technique at
        the same time (both kernels are entered before either returns):
        each engine holds only its own collection, and both answers
        equal serial runs."""
        technique = _GatedEuclidean(parties=2)
        collections = {"a": list(homogeneous), "b": list(heterogeneous)}
        engines = {key: QueryEngine() for key in collections}
        sessions = {
            key: SimilaritySession(collections[key], engine=engines[key])
            for key in collections
        }
        answers: dict = {}
        errors: list = []

        def run(key: str) -> None:
            try:
                query_set = sessions[key].queries().using(technique)
                answers[key] = query_set.profile_matrix().values
            except Exception as error:  # noqa: BLE001 — asserted below
                errors.append(error)

        workers = [
            threading.Thread(target=run, args=(key,)) for key in collections
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
            assert not worker.is_alive()
        assert errors == []
        for key, collection in collections.items():
            assert list(engines[key]._entries) == [id(collection)]
            assert id(collection) not in SHARED_ENGINE._entries
            serial = (
                SimilaritySession(collection, engine=QueryEngine())
                .queries()
                .using(EuclideanTechnique())
                .profile_matrix()
            )
            np.testing.assert_array_equal(answers[key], serial.values)


def _single_row_ops(session, technique: Technique, n_ops: int = 20) -> int:
    """``n_ops`` one-row verbs on ``session``: kNN and range in turn for
    a distance technique, prob-range for a probabilistic one."""
    for op in range(n_ops):
        queries = session.queries([op % len(session)]).using(technique)
        if technique.kind != "distance":
            queries.prob_range(4.0, 0.5)
        elif op % 2:
            queries.range(4.0)
        else:
            queries.knn(3)
    return n_ops


class TestPlanResolvesEachSideOnce:
    """A plan materializes its two sides once, and only the candidate
    side (or a loaded map) enters the session's engine."""

    @staticmethod
    def _collection(technique, homogeneous, multisample):
        if technique.input_kind == "multisample":
            return list(multisample)
        return list(homogeneous)

    @pytest.mark.parametrize(
        "technique", _every_family(), ids=lambda t: t.name
    )
    def test_single_row_ops_leave_one_engine_entry(
        self, technique, homogeneous, multisample
    ):
        """A one-row query list is built for its plan and dropped with
        it, so the session's engine holds the collection alone."""
        session = SimilaritySession(
            self._collection(technique, homogeneous, multisample),
            engine=QueryEngine(),
        )
        _single_row_ops(session, technique)
        assert len(session.engine) == 1

    @pytest.mark.parametrize(
        "technique", _every_family(), ids=lambda t: t.name
    )
    def test_one_engine_lookup_per_plan(
        self, technique, homogeneous, multisample, monkeypatch
    ):
        session = SimilaritySession(
            self._collection(technique, homogeneous, multisample),
            engine=QueryEngine(),
        )
        lookups = []
        materialize = QueryEngine.materialize

        def counting(engine, collection):
            lookups.append(collection)
            return materialize(engine, collection)

        monkeypatch.setattr(QueryEngine, "materialize", counting)
        n_ops = _single_row_ops(session, technique)
        assert len(lookups) == n_ops
        assert all(looked is session.collection for looked in lookups)

    def test_default_session_leaves_the_shared_engine_alone(
        self, homogeneous
    ):
        collection = list(homogeneous)
        session = SimilaritySession(collection)
        assert session.engine is not SHARED_ENGINE
        query_set = session.queries().using(FilteredTechnique.uma())
        query_set.knn(3)
        query_set.profile_matrix()
        session.queries([2]).using(EuclideanTechnique()).range(4.0)
        assert id(collection) not in SHARED_ENGINE._entries
        assert list(session.engine._entries) == [id(collection)]

    def test_shard_session_filters_the_map_once(
        self, homogeneous, tmp_path, monkeypatch
    ):
        """A shard daemon's all-series request queries the whole map
        against its slice: the map's side comes from the session's
        engine, so a second request reuses its filtered matrix."""
        mapped = load_collection(
            save_collection(homogeneous, str(tmp_path / "mapped"))
        )
        start, stop = 6, 18
        session = SimilaritySession(mapped.shard(start, stop))
        technique = FilteredTechnique.uma()
        filtered = []
        filter_uncertain = FilteredEuclidean.filter_uncertain

        def counting(self, series):
            filtered.append(series)
            return filter_uncertain(self, series)

        monkeypatch.setattr(FilteredEuclidean, "filter_uncertain", counting)
        positions = np.arange(len(mapped), dtype=np.intp)
        answers = []
        for _ in range(2):
            answers.append(
                execute_query(
                    session, technique, "knn", mapped, positions, k=3,
                    col_offset=start,
                )
            )
            map_side = session.engine._entries[id(mapped)]
            matrices = map_side.filtered_matrix(technique.filtered)
            if len(answers) == 1:
                first_side, first_matrices = map_side, matrices
        assert set(session.engine._entries) == {
            id(session.collection), id(mapped)
        }
        assert map_side is first_side and matrices is first_matrices
        assert len(filtered) == len(mapped) + (stop - start)
        np.testing.assert_array_equal(answers[0].indices, answers[1].indices)
