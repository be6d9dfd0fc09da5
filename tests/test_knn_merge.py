"""Shard invariance of the matrix kernels and the distributed kNN merge.

The service tier shards an ``(M, N)`` workload by columns: each daemon
ranks the column slice it serves with
:func:`~repro.queries.knn.local_topk_rows` and a cluster coordinator
reassembles the global ranking with
:func:`~repro.queries.knn.merge_knn_rows`.  The acceptance bar: any
row/column decomposition matches the single ``(M, N)`` kernel to 1e-9
for every technique family, the merge reproduces ``knn_table``'s
stable-by-index rankings exactly, including across shards narrower
than ``k``, and ranking only a row's cells below ``+inf`` (the
summarization index's pruned cells) equals ranking the whole row.
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
    local_topk_rows,
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


def _pruned(matrix, keep):
    """``matrix`` with all but each row's ``keep`` smallest cells +inf."""
    pruned = np.full_like(matrix, np.inf)
    kept = np.argsort(matrix, axis=1, kind="stable")[:, :keep]
    np.put_along_axis(
        pruned, kept, np.take_along_axis(matrix, kept, axis=1), axis=1
    )
    return pruned


def _topk_inputs():
    """``(block, k, local_exclude, col_offset)`` per case."""
    rng = np.random.default_rng(7)
    dense = rng.uniform(size=(6, 30))
    pruned = _pruned(dense, 8)
    best = np.argmin(dense, axis=1)
    worst = np.argmax(dense, axis=1)
    ties = np.round(pruned * 4) / 4  # many equal scores among kept cells
    few = _pruned(dense, 2)
    narrow = dense[:, :3]
    return {
        "dense": (dense, 4, None, 0),
        "pruned": (pruned, 4, None, 0),
        "exclude-kept": (pruned, 4, best, 0),
        "exclude-pruned": (pruned, 4, worst, 0),
        "ties-offset": (ties, 5, best, 40),
        "fewer-than-k-kept": (few, 4, np.array([0, -1, 2, -1, 4, -1]), 0),
        "narrower-than-k": (narrow, 5, np.array([0, 1, 2, -1, -1, 0]), 12),
        "all-pruned": (np.full((2, 4), np.inf), 3, np.array([1, -1]), 0),
    }


def _dense_ranking(block, k, local_exclude, col_offset):
    """Rank every cell of each row by (score, column) — the reference."""
    n_rows, width = block.shape
    limit = min(k, width)
    indices = np.full((n_rows, limit), -1, dtype=np.intp)
    scores = np.full((n_rows, limit), np.inf)
    for row in range(n_rows):
        columns = np.arange(width)
        if local_exclude is not None and local_exclude[row] >= 0:
            columns = columns[columns != local_exclude[row]]
        order = np.lexsort((columns, block[row, columns]))[:limit]
        chosen = columns[order]
        indices[row, : chosen.size] = chosen + col_offset
        scores[row, : chosen.size] = block[row, chosen]
    return indices, scores


class TestLocalTopk:
    """Ranking cells below ``+inf`` only equals ranking the whole row."""

    @pytest.mark.parametrize("case", sorted(_topk_inputs()))
    def test_equals_dense_ranking(self, case):
        block, k, local_exclude, col_offset = _topk_inputs()[case]
        indices, scores = local_topk_rows(block, k, local_exclude, col_offset)
        expected_indices, expected_scores = _dense_ranking(
            block, k, local_exclude, col_offset
        )
        np.testing.assert_array_equal(indices, expected_indices)
        np.testing.assert_array_equal(scores, expected_scores)

    def test_pruned_rows_rank_like_the_unpruned_matrix(self):
        """Admissible pruning (the top-k survive) leaves rankings and
        scores exactly those of the unpruned matrix."""
        block, k, local_exclude, _ = _topk_inputs()["exclude-kept"]
        dense, _, _, _ = _topk_inputs()["dense"]
        indices, scores = local_topk_rows(block, k, local_exclude)
        assert np.array_equal(
            indices, knn_table(dense, k, exclude=local_exclude)
        )
        assert np.array_equal(
            scores, np.take_along_axis(dense, indices, axis=1)
        )
