"""Shard invariance of the matrix kernels and the distributed kNN merge.

The service tier shards an ``(M, N)`` workload two ways: a daemon answers
a row batch of coalesced requests, and a cluster splits the collection
into column shards whose kNN candidates come back through
:func:`~repro.queries.knn.local_topk_rows` and are reassembled by
:func:`~repro.queries.knn.merge_knn_rows`.  The acceptance bar: any
row/column decomposition matches the single ``(M, N)`` kernel to 1e-9
for every technique family, and the merge reproduces ``knn_table``'s
stable-by-index rankings exactly, including across shards narrower
than ``k``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import InvalidParameterError, spawn
from repro.datasets import generate_dataset
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichTechnique,
    ProudTechnique,
    knn_table,
)
from shard_blocks import sharded_knn, sharded_matrix

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


class TestShardParity:
    """Row/column blocks of direct kernel calls vs one ``(M, N)`` call."""

    @pytest.mark.parametrize("row_block,col_block", [(4, 5), (13, 13), (1, 1)])
    def test_euclidean(self, pdf, row_block, col_block):
        technique = EuclideanTechnique()
        direct = technique.distance_matrix(pdf, pdf)
        sharded, _ = sharded_matrix(
            technique, "distance", pdf, pdf, row_block=row_block, col_block=col_block
        )
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
        sharded, _ = sharded_matrix(
            technique, "distance", pdf, pdf, row_block=4, col_block=5
        )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_proud_probability_and_calibration(self, pdf):
        technique = ProudTechnique(assumed_std=0.7)
        epsilons = np.linspace(1.0, 4.0, len(pdf))
        direct = technique.probability_matrix(pdf, pdf, epsilons)
        calibration = technique.calibration_matrix(pdf, pdf)
        sharded, _ = sharded_matrix(
            technique,
            "probability",
            pdf,
            pdf,
            row_block=4,
            col_block=5,
            epsilon=epsilons,
        )
        sharded_calibration, _ = sharded_matrix(
            technique, "calibration", pdf, pdf, row_block=4, col_block=5
        )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL
        assert np.max(np.abs(sharded_calibration - calibration)) <= PARITY_TOL

    def test_munich_probability(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=64))
        direct = technique.probability_matrix(multisample, multisample, 2.5)
        sharded, _ = sharded_matrix(
            technique,
            "probability",
            multisample,
            multisample,
            row_block=5,
            col_block=4,
            epsilon=2.5,
        )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_rectangular_query_subset(self, pdf):
        technique = EuclideanTechnique()
        queries = pdf[2:7]
        direct = technique.distance_matrix(queries, pdf)
        sharded, _ = sharded_matrix(
            technique, "distance", queries, pdf, row_block=2, col_block=6
        )
        assert sharded.shape == (5, N_SERIES)
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL

    def test_distance_kind_accepts_decision_epsilon(self, pdf):
        # On a distance workload, epsilon marks decision-mode range:
        # index-pruned cells come back +inf, surviving cells exact.
        plain, _ = sharded_matrix(
            EuclideanTechnique(), "distance", pdf, pdf, row_block=5
        )
        decided, _ = sharded_matrix(
            EuclideanTechnique(), "distance", pdf, pdf, row_block=5, epsilon=1.0
        )
        finite = np.isfinite(decided)
        assert np.allclose(decided[finite], plain[finite])
        assert np.all(plain[~finite] > 1.0)


class TestKnnMerge:
    def test_matches_knn_table(self, pdf):
        technique = EuclideanTechnique()
        matrix = technique.distance_matrix(pdf, pdf)
        positions = np.arange(len(pdf), dtype=np.intp)
        expected = knn_table(matrix, 4, exclude=positions)
        indices, scores, _ = sharded_knn(
            technique, pdf, pdf, 4, row_block=4, col_block=5, exclude=positions
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
        indices, _, _ = sharded_knn(
            technique, pdf, pdf, 5, row_block=13, col_block=2, exclude=positions
        )
        assert np.array_equal(indices, expected)

    def test_single_shard_degenerate(self, pdf):
        technique = EuclideanTechnique()
        matrix = technique.distance_matrix(pdf, pdf)
        expected = knn_table(matrix, 3)
        indices, _, _ = sharded_knn(
            technique, pdf, pdf, 3, row_block=100, col_block=100
        )
        assert np.array_equal(indices, expected)

    def test_k_exceeding_candidates_raises(self, pdf):
        technique = EuclideanTechnique()
        positions = np.arange(len(pdf), dtype=np.intp)
        with pytest.raises(InvalidParameterError):
            sharded_knn(
                technique, pdf, pdf, len(pdf), col_block=5, exclude=positions
            )
