"""Tests for the sharded parallel executor (repro.queries.parallel).

The acceptance bar: sharded results must match the single-process matrix
path to 1e-9 for every technique family, with the kNN merge reproducing
``knn_table``'s stable-by-index rankings exactly — through both the
serial backend (shard/merge logic in isolation) and a real
``multiprocessing`` pool.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InvalidParameterError, spawn
from repro.datasets import generate_dataset
from repro.evaluation import run_similarity_experiment
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichTechnique,
    ProudTechnique,
    SessionConfig,
    ShardedExecutor,
    SimilaritySession,
    Technique,
    knn_table,
    plan_blocks,
)

PARITY_TOL = 1e-9

N_SERIES = 13  # deliberately prime: no block size divides it
LENGTH = 12


@pytest.fixture(scope="module")
def exact():
    return generate_dataset(
        "GunPoint", seed=42, n_series=N_SERIES, length=LENGTH
    )


@pytest.fixture(scope="module")
def pdf(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(42, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(42, "ms", index))
        for index, series in enumerate(exact)
    ]


class TestPlanBlocks:
    def test_exact_division(self):
        assert plan_blocks(12, 4) == [(0, 4), (4, 8), (8, 12)]

    def test_ragged_tail(self):
        # N not divisible by the block size: short final shard.
        assert plan_blocks(13, 5) == [(0, 5), (5, 10), (10, 13)]

    def test_single_shard_degenerate(self):
        assert plan_blocks(7, 100) == [(0, 7)]

    def test_empty(self):
        assert plan_blocks(0, 4) == []

    def test_invalid_block(self):
        with pytest.raises(InvalidParameterError):
            plan_blocks(10, 0)

    def test_plan_shapes(self):
        executor = ShardedExecutor(n_workers=1, row_block=4, col_block=5)
        plan = executor.plan(13, 13)
        assert plan.row_blocks == ((0, 4), (4, 8), (8, 12), (12, 13))
        assert plan.col_blocks == ((0, 5), (5, 10), (10, 13))
        assert plan.n_shards == 12


class TestSerialParity:
    """Shard/merge logic vs the direct matrix kernels, in-process."""

    @pytest.mark.parametrize("row_block,col_block", [(4, 5), (13, 13), (1, 1)])
    def test_euclidean(self, pdf, row_block, col_block):
        technique = EuclideanTechnique()
        direct = technique.distance_matrix(pdf, pdf)
        with ShardedExecutor(
            n_workers=1, row_block=row_block, col_block=col_block
        ) as executor:
            sharded = executor.matrix(technique, "distance", pdf, pdf)
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    @pytest.mark.parametrize(
        "factory",
        [
            DustTechnique,
            FilteredTechnique.uma,
            FilteredTechnique.uema,
        ],
    )
    def test_distance_families(self, pdf, factory):
        technique = factory()
        direct = technique.distance_matrix(pdf, pdf)
        with ShardedExecutor(
            n_workers=1, row_block=4, col_block=5
        ) as executor:
            sharded = executor.matrix(technique, "distance", pdf, pdf)
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_proud_probability_and_calibration(self, pdf):
        technique = ProudTechnique(assumed_std=0.7)
        epsilons = np.linspace(1.0, 4.0, len(pdf))
        direct = technique.probability_matrix(pdf, pdf, epsilons)
        calibration = technique.calibration_matrix(pdf, pdf)
        with ShardedExecutor(
            n_workers=1, row_block=4, col_block=5
        ) as executor:
            sharded = executor.matrix(
                technique, "probability", pdf, pdf, epsilons
            )
            sharded_calibration = executor.matrix(
                technique, "calibration", pdf, pdf
            )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL
        assert np.max(np.abs(sharded_calibration - calibration)) <= PARITY_TOL

    def test_munich_probability(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=64))
        direct = technique.probability_matrix(multisample, multisample, 2.5)
        with ShardedExecutor(
            n_workers=1, row_block=5, col_block=4
        ) as executor:
            sharded = executor.matrix(
                technique, "probability", multisample, multisample, 2.5
            )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_rectangular_query_subset(self, pdf):
        technique = EuclideanTechnique()
        queries = pdf[2:7]
        direct = technique.distance_matrix(queries, pdf)
        with ShardedExecutor(
            n_workers=1, row_block=2, col_block=6
        ) as executor:
            sharded = executor.matrix(technique, "distance", queries, pdf)
        assert sharded.shape == (5, N_SERIES)
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL


class TestProcessParity:
    """Real multiprocessing pool: same numbers, across shard boundaries."""

    def test_distance_matrix(self, pdf):
        technique = DustTechnique()
        direct = technique.distance_matrix(pdf, pdf)
        with ShardedExecutor(
            n_workers=2, backend="process", row_block=4, col_block=5
        ) as executor:
            sharded = executor.matrix(technique, "distance", pdf, pdf)
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_probability_matrix_per_query_epsilons(self, pdf):
        technique = ProudTechnique(assumed_std=0.7)
        epsilons = np.linspace(1.0, 4.0, len(pdf))
        direct = technique.probability_matrix(pdf, pdf, epsilons)
        with ShardedExecutor(
            n_workers=2, backend="process", row_block=6
        ) as executor:
            sharded = executor.matrix(
                technique, "probability", pdf, pdf, epsilons
            )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_pool_reused_across_kernels(self, pdf):
        technique = EuclideanTechnique()
        with ShardedExecutor(
            n_workers=2, backend="process", row_block=6
        ) as executor:
            executor.matrix(technique, "distance", pdf, pdf)
            pool = executor._pool
            executor.matrix(technique, "calibration", pdf, pdf)
            assert executor._pool is pool  # same binding, same pool


class TestKnnMerge:
    def test_matches_knn_table(self, pdf):
        technique = EuclideanTechnique()
        matrix = technique.distance_matrix(pdf, pdf)
        positions = np.arange(len(pdf), dtype=np.intp)
        expected = knn_table(matrix, 4, exclude=positions)
        with ShardedExecutor(
            n_workers=1, row_block=4, col_block=5
        ) as executor:
            indices, scores = executor.knn(
                technique, pdf, pdf, 4, exclude=positions
            )
        assert np.array_equal(indices, expected)
        assert np.allclose(
            scores, np.take_along_axis(matrix, indices, axis=1)
        )

    def test_shard_narrower_than_k(self, pdf):
        # col_block=2 < k=5: every shard contributes fewer than k
        # candidates and the merge must still find the global top-k.
        technique = EuclideanTechnique()
        matrix = technique.distance_matrix(pdf, pdf)
        positions = np.arange(len(pdf), dtype=np.intp)
        expected = knn_table(matrix, 5, exclude=positions)
        with ShardedExecutor(
            n_workers=1, row_block=13, col_block=2
        ) as executor:
            indices, _ = executor.knn(
                technique, pdf, pdf, 5, exclude=positions
            )
        assert np.array_equal(indices, expected)

    def test_single_shard_degenerate(self, pdf):
        technique = EuclideanTechnique()
        matrix = technique.distance_matrix(pdf, pdf)
        expected = knn_table(matrix, 3)
        with ShardedExecutor(
            n_workers=1, row_block=100, col_block=100
        ) as executor:
            indices, _ = executor.knn(technique, pdf, pdf, 3)
        assert np.array_equal(indices, expected)

    def test_process_backend(self, pdf):
        technique = EuclideanTechnique()
        matrix = technique.distance_matrix(pdf, pdf)
        positions = np.arange(len(pdf), dtype=np.intp)
        expected = knn_table(matrix, 4, exclude=positions)
        with ShardedExecutor(
            n_workers=2, backend="process", col_block=3
        ) as executor:
            indices, _ = executor.knn(
                technique, pdf, pdf, 4, exclude=positions
            )
        assert np.array_equal(indices, expected)

    def test_k_exceeding_candidates_raises(self, pdf):
        technique = EuclideanTechnique()
        positions = np.arange(len(pdf), dtype=np.intp)
        with ShardedExecutor(n_workers=1) as executor:
            with pytest.raises(InvalidParameterError):
                executor.knn(
                    technique, pdf, pdf, len(pdf), exclude=positions
                )


class TestEdgeCases:
    def test_empty_query_set_matrix(self, pdf):
        with ShardedExecutor(
            n_workers=1, row_block=4, col_block=5
        ) as executor:
            out = executor.matrix(EuclideanTechnique(), "distance", [], pdf)
        assert out.shape == (0, len(pdf))

    def test_empty_query_set_knn(self, pdf):
        with ShardedExecutor(n_workers=1) as executor:
            indices, scores = executor.knn(
                EuclideanTechnique(), [], pdf, 3
            )
        assert indices.shape == (0, 3)
        assert scores.shape == (0, 3)

    def test_invalid_backend(self):
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(backend="threads")

    def test_invalid_workers(self):
        with pytest.raises(InvalidParameterError):
            ShardedExecutor(n_workers=0)

    def test_invalid_kind(self, pdf):
        with ShardedExecutor(n_workers=1) as executor:
            with pytest.raises(InvalidParameterError):
                executor.matrix(EuclideanTechnique(), "similarity", pdf, pdf)

    def test_calibration_kind_rejects_epsilon(self, pdf):
        with ShardedExecutor(n_workers=1) as executor:
            with pytest.raises(InvalidParameterError):
                executor.matrix(
                    EuclideanTechnique(), "calibration", pdf, pdf, 1.0
                )

    def test_distance_kind_accepts_decision_epsilon(self, pdf):
        # On a distance workload, epsilon marks decision-mode range:
        # index-pruned cells come back +inf, surviving cells exact.
        with ShardedExecutor(n_workers=1) as executor:
            plain = executor.matrix(
                EuclideanTechnique(), "distance", pdf, pdf
            )
            decided = executor.matrix(
                EuclideanTechnique(), "distance", pdf, pdf, 1.0
            )
        finite = np.isfinite(decided)
        assert np.allclose(decided[finite], plain[finite])
        assert np.all(plain[~finite] > 1.0)


class _UnpicklableTechnique(Technique):
    """A custom technique that cannot cross a process boundary."""

    name = "unpicklable"
    kind = "distance"

    def __init__(self):
        self._closure = lambda values: float(np.sum(values))  # noqa: E731

    def distance(self, query, candidate):
        return self._closure(
            np.abs(query.observations - candidate.observations)
        )


class TestBackendFallback:
    def test_unpicklable_technique_falls_back_to_serial(self, pdf):
        technique = _UnpicklableTechnique()
        with ShardedExecutor(n_workers=2, row_block=4) as executor:
            assert (
                executor._resolve_backend(technique, pdf, pdf) == "serial"
            )
            sharded = executor.matrix(technique, "distance", pdf, pdf)
        direct = technique.distance_matrix(pdf, pdf)
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_picklable_resolves_to_process(self, pdf):
        with ShardedExecutor(n_workers=2) as executor:
            assert (
                executor._resolve_backend(EuclideanTechnique(), pdf, pdf)
                == "process"
            )

    def test_n_workers_one_resolves_to_serial(self, pdf):
        with ShardedExecutor(n_workers=1) as executor:
            assert (
                executor._resolve_backend(EuclideanTechnique(), pdf, pdf)
                == "serial"
            )


SERIAL_SHARDS = SessionConfig(
    n_workers=2, backend="serial", row_block=4, col_block=5
)


class TestSessionWiring:
    def test_single_process_session_has_no_executor(self, pdf):
        session = SimilaritySession(pdf)
        assert session.executor is None

    def test_parallel_session_results_match(self, pdf):
        reference = SimilaritySession(pdf)
        baseline = reference.queries().using(EuclideanTechnique()).knn(4)
        with SimilaritySession(pdf, config=SERIAL_SHARDS) as session:
            assert session.executor is not None
            result = session.queries().using(EuclideanTechnique()).knn(4)
            assert np.array_equal(result.indices, baseline.indices)

            matrix = (
                session.queries().using(DustTechnique()).profile_matrix()
            )
            direct = DustTechnique().distance_matrix(pdf, pdf)
            assert np.max(np.abs(matrix.values - direct)) <= PARITY_TOL

    def test_parallel_range_results_match(self, pdf):
        reference = (
            SimilaritySession(pdf)
            .queries()
            .using(EuclideanTechnique())
            .range(3.0)
        )
        with SimilaritySession(pdf, config=SERIAL_SHARDS) as session:
            sharded = (
                session.queries().using(EuclideanTechnique()).range(3.0)
            )
        assert sharded.sets() == reference.sets()

    def test_parallel_prob_range_matches(self, pdf):
        technique = ProudTechnique(assumed_std=0.7)
        reference = (
            SimilaritySession(pdf)
            .queries()
            .using(technique)
            .prob_range(2.5, tau=0.4)
        )
        with SimilaritySession(pdf, config=SERIAL_SHARDS) as session:
            sharded = (
                session.queries().using(technique).prob_range(2.5, tau=0.4)
            )
        assert sharded.sets() == reference.sets()

    def test_process_session_knn(self, pdf):
        baseline = (
            SimilaritySession(pdf).queries().using(EuclideanTechnique())
        ).knn(4)
        config = SessionConfig(n_workers=2, backend="process", col_block=4)
        with SimilaritySession(pdf, config=config) as session:
            result = session.queries().using(EuclideanTechnique()).knn(4)
        assert np.array_equal(result.indices, baseline.indices)


class TestHarnessParity:
    def test_f1_identical_across_worker_counts(self, exact):
        scenario = ConstantScenario("normal", 0.5)

        def techniques():
            return [EuclideanTechnique(), ProudTechnique(assumed_std=0.7)]

        single = run_similarity_experiment(
            exact, scenario, techniques(), k=3, n_queries=5, seed=9,
            n_workers=1,
        )
        sharded = run_similarity_experiment(
            exact, scenario, techniques(), k=3, n_queries=5, seed=9,
            n_workers=2,
        )
        assert single.f1_row() == sharded.f1_row()
