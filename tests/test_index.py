"""Tests for the PAA summarization index (core.summaries + queries.index).

The acceptance bar for the index stage:

* **admissibility** — across randomized series, error models, and
  segment counts, the index lower bound never exceeds the true
  distance, including the interval variant against every sampled
  materialization pair and the band-inflated variant against banded
  DTW;
* **exactness** — indexed kNN / range / prob_range answers are
  identical to the unindexed path for every technique family, single
  process and sharded, also where the PAA bound equals the distance;
* **the multi-step gain** — a seeded collection's single-row kNN
  refines a small fraction of the grid;
* **accounting** — every cell is decided by exactly one stage,
  subset-running stages report both visited and skipped cells, and
  index selectivity lands in the stats summary.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.queries.techniques as techniques_module
from repro.core import (
    ErrorModel,
    InvalidParameterError,
    TimeSeries,
    UncertainTimeSeries,
    build_index,
    load_collection,
    make_rng,
    spawn,
)
from repro.core.summaries import (
    DEFAULT_SEGMENTS,
    effective_segments,
    interval_lower_bound,
    paa_bound_slack,
    paa_lower_bound,
    segment_edges,
    segment_means,
    segment_widths,
    summarize_intervals,
    summarize_values,
)
from repro.datasets import generate_dataset, stream_fourier_collection
from repro.distances.dtw import dtw_distance
from repro.distances.dtw_batch import PRUNE_SLACK
from repro.distances.filtered import FilteredEuclidean
from repro.distributions import NormalError
from repro.distances.lp import euclidean_matrix
from repro.munich import Munich
from repro.perturbation import ConstantScenario, MixedStdScenario
from repro.queries import (
    CollectionMaterialization,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    IndexStage,
    MunichDtwTechnique,
    MunichTechnique,
    PlanPolicy,
    ProudTechnique,
    SimilaritySession,
    knn_table,
    local_topk_rows,
)
from repro.queries.index import _smallest_columns
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
        true = euclidean_matrix(queries, candidates)
        assert np.all(lower <= true + TOL)
        # The guarded bound never overtakes the computed distance, also
        # where segments equal the length and the bound is the distance.
        slack = paa_bound_slack(length, segments)
        assert np.all(lower <= true * (1.0 + slack))

    def test_bound_equal_to_distance_needs_the_slack(self):
        """With one segment per point the bound is the distance, and the
        two kernels' rounding puts the bound above it in some cells."""
        rng = make_rng(2012)
        queries = rng.normal(size=(40, 32)).cumsum(axis=1)
        candidates = rng.normal(size=(200, 32)).cumsum(axis=1)
        lower = paa_lower_bound(
            summarize_values(queries, 32), summarize_values(candidates, 32)
        )
        true = euclidean_matrix(queries, candidates)
        assert np.any(lower > true)
        assert np.all(lower <= true * (1.0 + paa_bound_slack(32, 32)))

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
        side = CollectionMaterialization(multisample)
        lower, slack = technique.index_bounds("probability", side, side)
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
# Sparse top-k
# ---------------------------------------------------------------------------


class TestThresholds:
    """Top-k ranking of rows whose cells beyond a kNN pruning threshold
    the index recorded as ``+inf``."""

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


def _indexed_and_unindexed(collection):
    """Two sessions over one collection: the default policy, and
    ``NO_INDEX``."""
    return (
        SimilaritySession(collection),
        SimilaritySession(collection, policy=NO_INDEX),
    )


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
            session, unindexed = _indexed_and_unindexed(collection)
            indexed = session.queries().using(technique).knn(4)
            baseline = unindexed.queries().using(technique).knn(4)
            assert np.array_equal(indexed.indices, baseline.indices), (
                technique.name
            )
            assert np.allclose(
                indexed.scores, baseline.scores, atol=TOL
            ), technique.name

    def test_range_matches_unindexed(self, pdf, multisample):
        for technique, collection in _distance_cases(pdf, multisample):
            session, unindexed = _indexed_and_unindexed(collection)
            indexed = session.queries().using(technique).range(3.0)
            baseline = unindexed.queries().using(technique).range(3.0)
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
            session, unindexed = _indexed_and_unindexed(collection)
            indexed = (
                session.queries().using(technique).prob_range(2.5, 0.3)
            )
            baseline = (
                unindexed.queries().using(technique).prob_range(2.5, 0.3)
            )
            for a, b in zip(indexed.matches, baseline.matches):
                assert np.array_equal(a, b), technique.name

    def test_sharded_knn_matches_single_process(self, multisample):
        technique = EuclideanTechnique()
        single = SimilaritySession(multisample)
        reference = single.queries().using(technique).knn(4)
        positions = np.arange(len(multisample), dtype=np.intp)
        indices, scores, _ = sharded_knn(
            technique, multisample, multisample, 4, exclude=positions, **SHARDED
        )
        assert np.array_equal(indices, reference.indices)
        assert np.allclose(scores, reference.scores, atol=TOL)

    def test_sharded_range_matches_single_process(self, multisample):
        technique = EuclideanTechnique()
        single = SimilaritySession(multisample)
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
        session = SimilaritySession(multisample)
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
        # 3-NN keeps little beyond its 12-cell pilot per row, a narrow
        # range a handful of candidates, and the index prunes most of
        # the grid.
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
        # The query's first sparse refine (a kNN's pilot, a range
        # query's only refine) spans at least three gather slices in one
        # row; a kNN's survivor refine after it may be narrow or empty.
        assert calls[0][0] > 2 * self.WIDTH
        # The index kept more than half of the grid from being scored.
        assert 2 * sum(refined for _, refined, _ in calls) < cells
        assert all(unfilled == 0 for _, _, unfilled in calls)
        calls.clear()

    @pytest.mark.parametrize(
        "technique", [EuclideanTechnique(), FilteredTechnique.uma()],
        ids=["euclidean", "uma"],
    )
    def test_knn_and_range_match_fixed_plan(
        self, technique, separated, gathers
    ):
        cells = len(separated) ** 2
        session, unindexed = _indexed_and_unindexed(separated)
        indexed = session.queries().using(technique)
        fixed = unindexed.queries().using(technique)

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


def _exact_series(values):
    return UncertainTimeSeries(
        values, ErrorModel.constant(NormalError(0.2), values.size)
    )


class TestTightBounds:
    """kNN parity where the PAA bound equals the distance.

    Random walks indexed with one segment per point, and step functions
    whose steps line up with the default 8 segments: each row's pilot
    and its survivors are then compared with bounds that meet the
    distance in the last bits, the case the index's slack exists for.
    """

    N = 150

    @pytest.fixture(scope="class")
    def walks(self):
        rng = make_rng(41)
        return [
            _exact_series(row)
            for row in rng.normal(size=(self.N, 32)).cumsum(axis=1)
        ]

    @pytest.fixture(scope="class")
    def steps(self):
        rng = make_rng(43)
        return [
            _exact_series(np.repeat(row, 64 // DEFAULT_SEGMENTS))
            for row in rng.normal(size=(self.N, DEFAULT_SEGMENTS))
        ]

    @pytest.mark.parametrize("filtered", [False, True], ids=["euclidean", "uma"])
    @pytest.mark.parametrize("geometry", ["walks", "steps"])
    def test_knn_matches_fixed_plan(self, request, geometry, filtered):
        collection = request.getfixturevalue(geometry)
        segments = 32 if geometry == "walks" else DEFAULT_SEGMENTS
        technique = (
            FilteredTechnique(
                FilteredEuclidean("uma", window=2), index_segments=segments
            )
            if filtered
            else EuclideanTechnique(index_segments=segments)
        )
        if geometry == "steps" and not filtered:
            summary = CollectionMaterialization(collection).paa_summary(
                segments
            )
            lower = paa_lower_bound(summary, summary)
            dense = technique.distance_matrix(collection, collection)
            np.testing.assert_allclose(lower, dense, rtol=1e-12, atol=1e-12)
        session, unindexed = _indexed_and_unindexed(collection)
        for positions in [None] + [[row] for row in range(0, self.N, 5)]:
            indexed = session.queries(positions).using(technique).knn(10)
            fixed = unindexed.queries(positions).using(technique).knn(10)
            assert indexed.pruning_stats.stage("index") is not None
            np.testing.assert_array_equal(indexed.indices, fixed.indices)
            np.testing.assert_allclose(
                indexed.scores, fixed.scores, rtol=0, atol=TOL
            )


class TestPilotSearch:
    """A wide row's pilot is found through its block minima."""

    @pytest.mark.parametrize("width", [4900, 5000, 5040])
    def test_two_level_search_finds_the_smallest_cells(self, width):
        rng = make_rng(width)
        lower = rng.uniform(size=(3, width))
        # The smallest cell of row 1 sits in the partial last block (when
        # there is one), the smallest of row 2 in the first.
        lower[1, -1] = -1.0
        lower[2, 0] = -1.0
        # A 1-NN pilot holds 4 cells: sqrt(width) > 8 * 4 takes the
        # two-level path.
        chosen = _smallest_columns(lower, 4)
        assert chosen.shape == (3, 4)
        np.testing.assert_array_equal(
            np.sort(np.take_along_axis(lower, chosen, axis=1), axis=1),
            np.sort(lower, axis=1)[:, :4],
        )

    def test_knn_through_the_two_level_search_matches_fixed_plan(self):
        rng = make_rng(7)
        collection = [
            _exact_series(row)
            for row in rng.normal(size=(2000, 32)).cumsum(axis=1)
        ]
        session, unindexed = _indexed_and_unindexed(collection)
        technique = EuclideanTechnique()
        rows = [[row] for row in range(0, 2000, 100)]
        for positions in rows:
            indexed = session.queries(positions).using(technique).knn(1)
            fixed = unindexed.queries(positions).using(technique).knn(1)
            np.testing.assert_array_equal(indexed.indices, fixed.indices)
            np.testing.assert_allclose(
                indexed.scores, fixed.scores, rtol=0, atol=TOL
            )


class TestMultistepGain:
    def test_single_row_knn_scores_few_cells(self, tmp_path):
        """20 single-row Euclidean 10-NN over a seeded 4,000 x 64
        Fourier collection score at most 5% of their cells, pilots
        included.  Pruning against the k-th PAA upper bound scored a
        median 43% of each row; the count is deterministic."""
        manifest = stream_fourier_collection(
            str(tmp_path), n_series=4000, length=64, seed=2012
        )
        build_index(manifest, n_segments=DEFAULT_SEGMENTS)
        session = SimilaritySession(load_collection(manifest))
        technique = EuclideanTechnique()
        refined = cells = 0
        for row in range(0, 4000, 200):
            result = session.queries([row]).using(technique).knn(10)
            stats = result.pruning_stats
            refined += sum(entry.refined for entry in stats.stages)
            cells += stats.total_cells
        assert cells == 20 * 4000
        assert refined <= 0.05 * cells


# ---------------------------------------------------------------------------
# Stats accounting
# ---------------------------------------------------------------------------


class TestAccounting:
    def test_visited_plus_skipped_covers_grid(self, multisample):
        technique = EuclideanTechnique()
        session = SimilaritySession(multisample)
        result = session.queries().using(technique).knn(4)
        stats = result.pruning_stats
        total = stats.total_cells
        assert [s.stage for s in stats.stages] == ["index", "refine"]
        index, refine = stats.stages
        assert index.visited == total and index.skipped == 0
        assert refine.visited + refine.skipped == total
        assert refine.skipped == index.decided
        assert index.decided + refine.decided == total
        # The kNN pilot's cells are decided by scoring them, so only the
        # rest of the index stage's decisions count as pruned.
        assert index.refined > 0
        assert stats.index_pruned == index.decided - index.refined
        assert stats.index_selectivity == pytest.approx(
            1.0 - (index.decided - index.refined) / total
        )

    def test_summary_reports_selectivity(self, multisample):
        technique = EuclideanTechnique()
        session = SimilaritySession(multisample)
        result = session.queries().using(technique).knn(4)
        text = result.pruning_stats.summary()
        assert "index selectivity" in text
        assert "skipped" in text

    def test_selectivity_none_without_index(self, multisample):
        technique = EuclideanTechnique()
        session = SimilaritySession(
            multisample, policy=NO_INDEX
        )
        result = session.queries().using(technique).knn(4)
        # NO_INDEX keeps the stage out of the plan, so selectivity
        # reads None (1.0 would mean a stage that ran and kept all).
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
