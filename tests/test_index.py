"""Tests for the PAA summarization index (core.summaries + queries.index).

The acceptance bar for the index stage:

* **admissibility** — across randomized series, error models, and
  segment counts, the index lower bound never exceeds the true
  distance (and the upper bound never undercuts it), including the
  interval variant against every sampled materialization pair and the
  band-inflated variant against banded DTW;
* **exactness** — indexed kNN / range / prob_range answers are
  identical to the unindexed path for every technique family, single
  process and sharded;
* **accounting** — every cell is decided by exactly one stage,
  subset-running stages report both visited and skipped cells, and
  index selectivity lands in the stats summary.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.queries.techniques as techniques_module
from repro.core import (
    InvalidParameterError,
    TimeSeries,
    make_rng,
    spawn,
)
from repro.core.summaries import (
    DEFAULT_SEGMENTS,
    effective_segments,
    interval_lower_bound,
    paa_lower_bound,
    paa_upper_bound,
    reconstruct,
    residual_norms,
    segment_edges,
    segment_means,
    segment_widths,
    summarize_intervals,
    summarize_values,
)
from repro.datasets import generate_dataset
from repro.distances.dtw import dtw_distance
from repro.distances.dtw_batch import PRUNE_SLACK
from repro.distances.lp import euclidean_matrix
from repro.munich import Munich
from repro.perturbation import ConstantScenario, MixedStdScenario
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    IndexStage,
    MunichDtwTechnique,
    MunichTechnique,
    PlanPolicy,
    ProudTechnique,
    QueryEngine,
    SimilaritySession,
    knn_candidate_thresholds,
    knn_table,
    local_topk_rows,
)
from shard_blocks import sharded_knn, sharded_matrix

TOL = 1e-9
NO_INDEX = PlanPolicy(mode="fixed")
#: Row/column shard sizes of the sharded-parity tests.
SHARDED = {"row_block": 4, "col_block": 5}

N_SERIES = 13
LENGTH = 12


@pytest.fixture(scope="module")
def exact():
    return generate_dataset(
        "GunPoint", seed=23, n_series=N_SERIES, length=LENGTH
    )


@pytest.fixture(scope="module")
def pdf(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(23, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(23, "ms", index))
        for index, series in enumerate(exact)
    ]


# ---------------------------------------------------------------------------
# Summary geometry
# ---------------------------------------------------------------------------


class TestGeometry:
    def test_segment_edges_partition(self):
        for length in (1, 5, 8, 12, 37):
            for n_segments in (1, 2, 3, 8):
                segments = effective_segments(n_segments, length)
                edges = segment_edges(length, segments)
                assert edges[0] == 0 and edges[-1] == length
                widths = segment_widths(length, segments)
                assert widths.sum() == pytest.approx(length)
                # array_split geometry: widths differ by at most one.
                assert widths.max() - widths.min() <= 1.0

    def test_segment_means_match_reduceat(self):
        rng = make_rng(3)
        matrix = rng.normal(size=(7, 19))
        means = segment_means(matrix, 4)
        edges = segment_edges(19, 4)
        for row in range(7):
            for seg in range(4):
                expected = matrix[row, edges[seg]:edges[seg + 1]].mean()
                assert means[row, seg] == pytest.approx(expected)

    def test_reconstruct_and_residuals(self):
        rng = make_rng(4)
        matrix = rng.normal(size=(5, 16))
        means = segment_means(matrix, 4)
        rebuilt = reconstruct(means, 16)
        assert rebuilt.shape == matrix.shape
        norms = residual_norms(matrix, 4)
        manual = np.linalg.norm(matrix - rebuilt, axis=1)
        assert np.allclose(norms, manual, atol=TOL)

    def test_piecewise_constant_series_has_zero_residual(self):
        means = np.array([[1.0, -2.0, 3.0, 0.5]])
        matrix = reconstruct(means, 16)
        assert residual_norms(matrix, 4)[0] == pytest.approx(0.0, abs=TOL)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            segment_edges(8, 0)
        with pytest.raises(InvalidParameterError):
            effective_segments(0, 8)


# ---------------------------------------------------------------------------
# Admissibility properties
# ---------------------------------------------------------------------------


class TestAdmissibility:
    @pytest.mark.parametrize("n_segments", [1, 2, 3, 8, 64])
    @pytest.mark.parametrize("length", [4, 12, 37])
    def test_paa_bounds_bracket_euclidean(self, n_segments, length):
        rng = make_rng(n_segments * 1000 + length)
        queries = rng.normal(size=(6, length)).cumsum(axis=1)
        candidates = rng.normal(size=(9, length)).cumsum(axis=1)
        segments = effective_segments(n_segments, length)
        q = summarize_values(queries, segments)
        c = summarize_values(candidates, segments)
        lower = paa_lower_bound(q, c)
        upper = paa_upper_bound(lower, q, c)
        true = euclidean_matrix(queries, candidates)
        assert np.all(lower <= true + TOL)
        assert np.all(upper >= true - TOL)

    @pytest.mark.parametrize("n_segments", [1, 3, 8])
    def test_interval_bound_holds_for_every_materialization(
        self, n_segments
    ):
        rng = make_rng(n_segments)
        length = 20
        center_q = rng.normal(size=(4, length)).cumsum(axis=1)
        center_c = rng.normal(size=(7, length)).cumsum(axis=1)
        radius_q = np.abs(rng.normal(scale=0.3, size=center_q.shape))
        radius_c = np.abs(rng.normal(scale=0.3, size=center_c.shape))
        q = summarize_intervals(
            center_q - radius_q, center_q + radius_q, n_segments
        )
        c = summarize_intervals(
            center_c - radius_c, center_c + radius_c, n_segments
        )
        lower = interval_lower_bound(q, c)
        for _ in range(25):
            x = center_q + radius_q * rng.uniform(-1, 1, size=center_q.shape)
            y = center_c + radius_c * rng.uniform(-1, 1, size=center_c.shape)
            true = euclidean_matrix(x, y)
            assert np.all(lower <= true + TOL)

    @pytest.mark.parametrize(
        "scenario",
        [
            ConstantScenario("normal", 0.4),
            ConstantScenario("uniform", 0.6),
            MixedStdScenario("normal", 1.0, 0.4, 0.2),
        ],
        ids=["normal", "uniform", "mixed-std"],
    )
    @pytest.mark.parametrize("n_segments", [2, 5])
    def test_multisample_interval_bound(self, exact, scenario, n_segments):
        series = [
            scenario.apply_multisample(item, 4, spawn(31, "adm", index))
            for index, item in enumerate(exact)
        ]
        low = np.stack([s.samples.min(axis=1) for s in series])
        high = np.stack([s.samples.max(axis=1) for s in series])
        summary = summarize_intervals(low, high, n_segments)
        lower = interval_lower_bound(summary, summary)
        rng = make_rng(77)
        for _ in range(10):
            # Any per-timestamp sample choice is a valid materialization.
            pick = rng.integers(0, 4, size=low.shape)
            values = np.stack(
                [
                    np.take_along_axis(
                        s.samples, pick[i][:, None], axis=1
                    )[:, 0]
                    for i, s in enumerate(series)
                ]
            )
            true = euclidean_matrix(values, values)
            assert np.all(lower <= true + TOL)

    def test_dtw_index_bound_below_banded_dtw(self, multisample):
        """The envelope-summary bound lower-bounds banded DTW of every
        sampled materialization pair (the MUNICH-DTW soundness claim)."""
        technique = MunichDtwTechnique(window=2)
        lower, _, slack = technique.index_bounds(
            "probability", multisample, multisample, QueryEngine()
        )
        assert slack == PRUNE_SLACK
        rng = make_rng(5)
        n = len(multisample)
        for _ in range(20):
            i, j = rng.integers(0, n, size=2)
            x = np.array(
                [
                    multisample[i].samples[t, rng.integers(0, 3)]
                    for t in range(LENGTH)
                ]
            )
            y = np.array(
                [
                    multisample[j].samples[t, rng.integers(0, 3)]
                    for t in range(LENGTH)
                ]
            )
            banded = dtw_distance(x, y, window=2)
            assert lower[i, j] <= banded * (1.0 + PRUNE_SLACK) + TOL


# ---------------------------------------------------------------------------
# Threshold derivation and sparse top-k
# ---------------------------------------------------------------------------


class TestThresholds:
    def test_kth_smallest_upper_bound(self):
        rng = make_rng(9)
        upper = rng.uniform(size=(5, 20))
        thresholds = knn_candidate_thresholds(upper, 3)
        for row in range(5):
            assert thresholds[row] == pytest.approx(
                np.sort(upper[row])[2]
            )

    def test_exclusion_and_narrow_rows(self):
        upper = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        exclude = np.array([0, -1])
        thresholds = knn_candidate_thresholds(upper, 2, exclude)
        # Row 0: eligible {2.0, 3.0} -> eligible == k -> no pruning.
        assert np.isinf(thresholds[0])
        # Row 1: eligible 3 > k -> 2nd smallest of {4,5,6}.
        assert thresholds[1] == pytest.approx(5.0)

    def test_rejects_bad_parameters(self):
        upper = np.ones((2, 4))
        with pytest.raises(InvalidParameterError):
            knn_candidate_thresholds(upper, 0)
        with pytest.raises(InvalidParameterError):
            knn_candidate_thresholds(upper, 1, np.array([0]))

    def test_sparse_knn_matches_dense(self):
        rng = make_rng(11)
        matrix = rng.uniform(size=(6, 30))
        reference = knn_table(matrix, 4)
        # Prune everything except each row's 8 best (a superset of the
        # top 4) to +inf, as the index stage would.
        pruned = np.full_like(matrix, np.inf)
        keep = np.argsort(matrix, axis=1, kind="stable")[:, :8]
        np.put_along_axis(
            pruned, keep, np.take_along_axis(matrix, keep, axis=1), axis=1
        )
        indices, scores = local_topk_rows(pruned, 4)
        assert np.array_equal(indices, reference)
        assert np.allclose(
            scores, np.take_along_axis(matrix, reference, axis=1)
        )

    def test_sparse_knn_with_exclusion_and_ties(self):
        matrix = np.array(
            [[np.inf, 2.0, 2.0, 1.0, np.inf, 2.0]],
        )
        indices, scores = local_topk_rows(matrix, 3, np.array([3]))
        # Self-match 3 skipped; ties broken by ascending index.
        assert indices.tolist() == [[1, 2, 5]]
        assert scores.tolist() == [[2.0, 2.0, 2.0]]

    def test_sparse_knn_overpruned_row_ranks_whole_row(self):
        # One kept cell for k=2: the row is ranked whole, pruned cells
        # last and by index, exactly as a dense ranking would.
        matrix = np.array([[np.inf, 1.0, np.inf]])
        indices, scores = local_topk_rows(matrix, 2)
        assert indices.tolist() == [[1, 0]]
        assert scores.tolist() == [[1.0, np.inf]]


# ---------------------------------------------------------------------------
# End-to-end parity: indexed vs unindexed
# ---------------------------------------------------------------------------


def _distance_cases(pdf, multisample):
    return [
        (EuclideanTechnique(), multisample),
        (FilteredTechnique.uma(), pdf),
        (FilteredTechnique.uema(), pdf),
        (DustTechnique(), pdf),
    ]


class TestParity:
    def test_knn_matches_unindexed(self, pdf, multisample):
        for technique, collection in _distance_cases(pdf, multisample):
            session = SimilaritySession(collection, engine=QueryEngine())
            indexed = session.queries().using(technique).knn(4)
            baseline = (
                session.queries().using(technique).with_policy(NO_INDEX)
                .knn(4)
            )
            assert np.array_equal(indexed.indices, baseline.indices), (
                technique.name
            )
            assert np.allclose(
                indexed.scores, baseline.scores, atol=TOL
            ), technique.name

    def test_range_matches_unindexed(self, pdf, multisample):
        for technique, collection in _distance_cases(pdf, multisample):
            session = SimilaritySession(collection, engine=QueryEngine())
            indexed = session.queries().using(technique).range(3.0)
            baseline = (
                session.queries().using(technique).with_policy(NO_INDEX)
                .range(3.0)
            )
            for a, b in zip(indexed.matches, baseline.matches):
                assert np.array_equal(a, b), technique.name

    def test_prob_range_matches_unindexed(self, pdf, multisample):
        cases = [
            (MunichTechnique(), multisample),
            (
                MunichDtwTechnique(
                    munich=Munich(
                        tau=0.5, method="montecarlo", n_samples=24, rng=0
                    )
                ),
                multisample,
            ),
            (ProudTechnique(assumed_std=0.4), pdf),
        ]
        for technique, collection in cases:
            session = SimilaritySession(collection, engine=QueryEngine())
            indexed = (
                session.queries().using(technique).prob_range(2.5, 0.3)
            )
            baseline = (
                session.queries().using(technique).with_policy(NO_INDEX)
                .prob_range(2.5, 0.3)
            )
            for a, b in zip(indexed.matches, baseline.matches):
                assert np.array_equal(a, b), technique.name

    def test_sharded_knn_matches_single_process(self, multisample):
        technique = EuclideanTechnique()
        single = SimilaritySession(multisample, engine=QueryEngine())
        reference = single.queries().using(technique).knn(4)
        positions = np.arange(len(multisample), dtype=np.intp)
        indices, scores, _ = sharded_knn(
            technique, multisample, multisample, 4, exclude=positions, **SHARDED
        )
        assert np.array_equal(indices, reference.indices)
        assert np.allclose(scores, reference.scores, atol=TOL)

    def test_sharded_range_matches_single_process(self, multisample):
        technique = EuclideanTechnique()
        single = SimilaritySession(multisample, engine=QueryEngine())
        reference = single.queries().using(technique).range(3.0)
        values, _ = sharded_matrix(
            technique, "distance", multisample, multisample, epsilon=3.0, **SHARDED
        )
        for row, (found, expected) in enumerate(zip(values, reference.matches)):
            matches = np.flatnonzero(found <= 3.0)
            assert np.array_equal(matches[matches != row], expected)

    def test_profile_matrix_has_no_index_stage(self, multisample):
        """Plain distance matrices carry no decision information, so the
        plan stays a pure refine (documented stage-list contract)."""
        technique = EuclideanTechnique()
        session = SimilaritySession(multisample, engine=QueryEngine())
        result = session.queries().using(technique).profile_matrix()
        stages = [s.stage for s in result.pruning_stats.stages]
        assert stages == ["refine"]


class TestChunkedGather:
    """The sparse Euclidean refine gathers each row's surviving
    candidates in ``MATRIX_BLOCK_ELEMENTS // n``-column slices."""

    GATHER_LENGTH = 16
    #: Gather-slice width under the patched block budget.
    WIDTH = 2

    @pytest.fixture()
    def separated(self):
        # Offset copies of one curve: the PAA bounds are tight, so a
        # 3-NN or a narrow range keeps a handful of candidates per row
        # and the index prunes most of the grid.
        rng = np.random.default_rng(2012)
        curve = np.sin(np.linspace(0.0, 3.0 * np.pi, self.GATHER_LENGTH))
        exact = [
            TimeSeries(
                curve + 0.1 * index + rng.normal(scale=0.1, size=curve.size)
            )
            for index in range(64)
        ]
        scenario = ConstantScenario("normal", 0.1)
        return [
            scenario.apply(series, spawn(2012, "gather", index))
            for index, series in enumerate(exact)
        ]

    @pytest.fixture()
    def gathers(self, monkeypatch):
        """Run every sparse refine with its cells pre-poisoned to NaN and
        record ``(max row survivors, cells refined, cells left NaN)``."""
        monkeypatch.setattr(
            techniques_module,
            "MATRIX_BLOCK_ELEMENTS",
            self.WIDTH * self.GATHER_LENGTH,
        )
        original = techniques_module._sparse_euclidean_refine
        calls = []

        def spy(query_matrix, matrix, out, undecided):
            out[undecided] = np.nan
            refined = original(query_matrix, matrix, out, undecided)
            calls.append(
                (
                    int(undecided.sum(axis=1).max()),
                    refined,
                    int(np.isnan(out[undecided]).sum()),
                )
            )
            return refined

        monkeypatch.setattr(
            techniques_module, "_sparse_euclidean_refine", spy
        )
        return calls

    def _check_gathers(self, calls, cells):
        assert calls, "the sparse refine did not run"
        for widest, refined, unfilled in calls:
            # One row's candidates span at least three gather slices.
            assert widest > 2 * self.WIDTH
            # The index pruned more than half of the grid.
            assert 2 * refined < cells
            assert unfilled == 0
        calls.clear()

    @pytest.mark.parametrize(
        "technique", [EuclideanTechnique(), FilteredTechnique.uma()],
        ids=["euclidean", "uma"],
    )
    def test_knn_and_range_match_fixed_plan(
        self, technique, separated, gathers
    ):
        cells = len(separated) ** 2
        session = SimilaritySession(separated, engine=QueryEngine())
        indexed = session.queries().using(technique)
        fixed = indexed.with_policy(NO_INDEX)

        knn = indexed.knn(3)
        self._check_gathers(gathers, cells)
        reference = fixed.knn(3)
        assert not gathers
        np.testing.assert_array_equal(knn.indices, reference.indices)
        np.testing.assert_allclose(
            knn.scores, reference.scores, rtol=0, atol=TOL
        )

        dense = fixed.profile_matrix().values
        epsilon = float(np.quantile(dense, 0.1))
        matches = indexed.range(epsilon)
        self._check_gathers(gathers, cells)
        for got, want in zip(matches.matches, fixed.range(epsilon).matches):
            np.testing.assert_array_equal(got, want)
        values, stats = technique.matrix_with_stats(
            "distance", separated, separated, epsilon=epsilon
        )
        self._check_gathers(gathers, cells)
        assert [entry.stage for entry in stats.stages] == ["index", "refine"]
        within = dense <= epsilon
        np.testing.assert_array_equal(values <= epsilon, within)
        np.testing.assert_allclose(
            values[within], dense[within], rtol=0, atol=TOL
        )


# ---------------------------------------------------------------------------
# Stats accounting
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_visited_plus_skipped_covers_grid(self, multisample):
        technique = EuclideanTechnique()
        session = SimilaritySession(multisample, engine=QueryEngine())
        result = session.queries().using(technique).knn(4)
        stats = result.pruning_stats
        total = stats.total_cells
        assert [s.stage for s in stats.stages] == ["index", "refine"]
        index, refine = stats.stages
        assert index.visited == total and index.skipped == 0
        assert refine.visited + refine.skipped == total
        assert refine.skipped == index.decided
        assert index.decided + refine.decided == total
        assert stats.index_selectivity == pytest.approx(
            1.0 - index.decided / total
        )

    def test_summary_reports_selectivity(self, multisample):
        technique = EuclideanTechnique()
        session = SimilaritySession(multisample, engine=QueryEngine())
        result = session.queries().using(technique).knn(4)
        text = result.pruning_stats.summary()
        assert "index selectivity" in text
        assert "skipped" in text

    def test_selectivity_none_without_index(self, multisample):
        technique = EuclideanTechnique()
        session = SimilaritySession(
            multisample, engine=QueryEngine(), policy=NO_INDEX
        )
        result = session.queries().using(technique).knn(4)
        # The stage still runs (as a no-op); with nothing decided the
        # selectivity reads 1.0 — or the stage is absent entirely on the
        # pure top_k fallback path, reading None.
        stats = result.pruning_stats
        selectivity = stats.index_selectivity
        assert selectivity is None or selectivity == pytest.approx(1.0)

    def test_index_stage_noop_without_decision_info(self, multisample):
        technique = EuclideanTechnique()
        values, stats = technique.matrix_with_stats(
            "distance", multisample[:3], multisample
        )
        assert "index" not in [s.stage for s in stats.stages]
        reference = euclidean_matrix(
            np.stack([s.means() for s in multisample[:3]]),
            np.stack([s.means() for s in multisample]),
        )
        assert np.max(np.abs(values - reference)) <= TOL

    def test_default_segment_count_is_stable(self):
        # The persisted-index format depends on this default; changing
        # it silently would orphan on-disk tables.
        assert DEFAULT_SEGMENTS == 8
        assert isinstance(IndexStage(), IndexStage)
