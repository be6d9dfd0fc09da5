"""Tests for the unified filter-and-refine query planner.

The acceptance bar for the planner refactor:

* planner-executed matrices match the pre-refactor cascades to 1e-9 for
  every technique family — including across row/column shard
  boundaries;
* the adaptive Monte Carlo stage **never** flips a hit/miss decision
  versus the fixed-sample path, across randomized ε / τ / seeds;
* ``PruningStats`` accounting is complete: every cell is decided by
  exactly one stage, per-stage wall time is recorded, and sharded runs
  merge shard stats stage by stage.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    InvalidParameterError,
    MultisampleUncertainTimeSeries,
    spawn,
)
from repro.datasets import generate_dataset
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    AdaptiveMCStage,
    BoundStage,
    DustDtwTechnique,
    DustTechnique,
    EuclideanTechnique,
    FilteredTechnique,
    MunichDtwTechnique,
    MunichTechnique,
    ProudTechnique,
    PruningStats,
    QueryPlan,
    RefineStage,
    SimilaritySession,
    StageStats,
    Technique,
    adaptive_mc_schedule,
    sequential_mc_decision,
)
from shard_blocks import sharded_matrix

PARITY_TOL = 1e-9

N_SERIES = 13  # prime: no default block size divides it
LENGTH = 12


@pytest.fixture(scope="module")
def exact():
    return generate_dataset(
        "GunPoint", seed=11, n_series=N_SERIES, length=LENGTH
    )


@pytest.fixture(scope="module")
def pdf(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(11, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(11, "ms", index))
        for index, series in enumerate(exact)
    ]


def _per_pair_distances(technique, queries, collection):
    """The per-pair reference: one ``distance`` call per cell."""
    return np.array(
        [
            [technique.distance(query, candidate) for candidate in collection]
            for query in queries
        ]
    )


class TestSchedule:
    def test_increasing_and_complete(self):
        for n_samples in (1, 2, 5, 16, 17, 100, 10_000):
            schedule = adaptive_mc_schedule(n_samples)
            assert schedule[-1] == n_samples
            assert all(b > a for a, b in zip(schedule, schedule[1:]))
            assert all(1 <= target <= n_samples for target in schedule)

    def test_geometric_escalation(self):
        assert adaptive_mc_schedule(192) == [12, 24, 48, 96, 192]
        assert adaptive_mc_schedule(1) == [1]
        # At most 2x the ideal stopping point: consecutive targets
        # never more than double.
        schedule = adaptive_mc_schedule(10_000)
        assert all(b <= 2 * a for a, b in zip(schedule, schedule[1:]))

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            adaptive_mc_schedule(0)
        with pytest.raises(InvalidParameterError):
            adaptive_mc_schedule(10, first_fraction=0.0)


class TestSequentialDecision:
    def test_sound_against_every_completion(self):
        """Brute-force: an early verdict must hold for every completion."""
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_samples = int(rng.integers(1, 12))
            evaluated = int(rng.integers(0, n_samples + 1))
            hits = int(rng.integers(0, evaluated + 1))
            tau = float(rng.uniform(0.0, 1.0))
            verdict = sequential_mc_decision(hits, evaluated, n_samples, tau)
            finals = [
                (hits + extra) / n_samples
                for extra in range(n_samples - evaluated + 1)
            ]
            if verdict is None:
                # Undecided: both outcomes must still be possible.
                assert any(p >= tau for p in finals)
                assert any(p < tau for p in finals)
            else:
                is_hit, value = verdict
                assert all((p >= tau) == is_hit for p in finals)
                # The reported value sits on the verdict's side of τ.
                assert (value >= tau) == is_hit

    def test_exact_at_full_evaluation(self):
        verdict = sequential_mc_decision(3, 10, 10, 0.5)
        assert verdict == (False, 0.3)
        verdict = sequential_mc_decision(7, 10, 10, 0.5)
        assert verdict == (True, 0.7)


class TestPlanParity:
    """Planner output ≡ the pre-refactor cascades, to 1e-9."""

    @pytest.mark.parametrize(
        "factory",
        [
            EuclideanTechnique,
            DustTechnique,
            FilteredTechnique.uma,
            FilteredTechnique.uema,
        ],
    )
    def test_distance_families(self, pdf, factory):
        technique = factory()
        values, stats = technique.matrix_with_stats("distance", pdf, pdf)
        reference = _per_pair_distances(technique, pdf, pdf)
        assert np.max(np.abs(values - reference)) <= PARITY_TOL
        assert [entry.stage for entry in stats.stages] == ["refine"]
        assert stats.stages[0].decided == stats.total_cells

    def test_dust_dtw(self, pdf):
        technique = DustDtwTechnique(window=2)
        values, stats = technique.matrix_with_stats(
            "distance", pdf[:5], pdf
        )
        reference = _per_pair_distances(technique, pdf[:5], pdf)
        assert np.array_equal(values, reference)
        assert stats.decided_by("refine") == stats.total_cells

    def test_proud_probability(self, pdf):
        technique = ProudTechnique(assumed_std=0.4)
        epsilons = np.linspace(1.0, 4.0, len(pdf))
        values, stats = technique.matrix_with_stats(
            "probability", pdf, pdf, epsilon=epsilons
        )
        reference = np.array(
            [
                [technique.probability(query, c, float(eps)) for c in pdf]
                for query, eps in zip(pdf, epsilons)
            ]
        )
        assert np.max(np.abs(values - reference)) <= PARITY_TOL

    def test_munich_convolution_vs_per_pair(self, multisample):
        munich = Munich(tau=0.5, n_bins=256)
        technique = MunichTechnique(munich)
        epsilon = 3.0
        values, stats = technique.matrix_with_stats(
            "probability", multisample[:6], multisample, epsilon=epsilon
        )
        reference = np.vstack(
            [
                [
                    munich.probability(query, candidate, epsilon)
                    for candidate in multisample
                ]
                for query in multisample[:6]
            ]
        )
        assert np.max(np.abs(values - reference)) <= PARITY_TOL
        # The index/bound stages decided at least the certain cells, and
        # the stages together decided everything.
        assert (
            stats.decided_by("index")
            + stats.decided_by("bounds")
            + stats.decided_by("refine")
        ) == stats.total_cells

    def test_munich_without_bounds_is_pure_refine(self, multisample):
        technique = MunichTechnique(
            Munich(tau=0.5, n_bins=128, use_bounds=False)
        )
        values, stats = technique.matrix_with_stats(
            "probability", multisample[:3], multisample, epsilon=2.5
        )
        assert [entry.stage for entry in stats.stages] == ["refine"]
        reference = MunichTechnique(
            Munich(tau=0.5, n_bins=128)
        ).probability_matrix(multisample[:3], multisample, 2.5)
        assert np.max(np.abs(values - reference)) <= PARITY_TOL

    def test_munich_dtw_vs_per_pair(self, multisample):
        munich = Munich(tau=0.5, method="montecarlo", n_samples=40, rng=5)
        technique = MunichDtwTechnique(window=2, munich=munich)
        epsilon = 3.5
        values, _ = technique.matrix_with_stats(
            "probability", multisample[:4], multisample, epsilon=epsilon
        )
        reference = np.vstack(
            [
                [
                    munich.dtw_probability(
                        query, candidate, epsilon, window=2
                    )
                    for candidate in multisample
                ]
                for query in multisample[:4]
            ]
        )
        assert np.array_equal(values, reference)

    def test_profile_rides_the_plan(self, multisample):
        """A one-row plan (direct query-side bound stacks) scores its row
        exactly as the multi-row plan does."""
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        profile = technique.probability_matrix(
            [multisample[0]], multisample, 3.0
        )
        matrix = technique.probability_matrix(
            multisample[:4], multisample, 3.0
        )
        assert np.array_equal(profile[0], matrix[0])

    def test_calibration_kind_single_refine(self, multisample):
        technique = MunichTechnique()
        values, stats = technique.matrix_with_stats(
            "calibration", multisample[:4], multisample
        )
        assert [entry.stage for entry in stats.stages] == ["refine"]
        assert values.shape == (4, len(multisample))

    @pytest.mark.parametrize("row_block,col_block", [(4, 5), (1, 13), (3, 1)])
    def test_sharded_parity_and_merged_stats(
        self, multisample, row_block, col_block
    ):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        direct, direct_stats = technique.matrix_with_stats(
            "probability", multisample, multisample, epsilon=3.0
        )
        sharded, stats = sharded_matrix(
            technique,
            "probability",
            multisample,
            multisample,
            row_block=row_block,
            col_block=col_block,
            epsilon=3.0,
        )
        assert np.max(np.abs(sharded - direct)) <= PARITY_TOL
        decided = sum(entry.decided for entry in stats.stages)
        assert decided == len(multisample) ** 2
        assert stats.n_queries == len(multisample)
        # Shard boundaries change nothing about what the bound stage can
        # decide: per-cell verdicts are identical.
        assert stats.decided_by("bounds") == direct_stats.decided_by("bounds")

    def test_sharded_dtw_parity(self, multisample):
        munich = Munich(tau=0.5, method="montecarlo", n_samples=30, rng=9)
        technique = MunichDtwTechnique(window=2, munich=munich)
        direct = technique.probability_matrix(multisample, multisample, 3.5)
        sharded, stats = sharded_matrix(
            technique,
            "probability",
            multisample,
            multisample,
            row_block=4,
            col_block=5,
            epsilon=3.5,
        )
        assert np.array_equal(sharded, direct)
        assert sum(e.decided for e in stats.stages) == len(multisample) ** 2


class TestPruningStats:
    def test_stage_merge_arithmetic(self):
        first = PruningStats(
            technique_name="T",
            kind="probability",
            n_queries=2,
            n_candidates=3,
            stages=(
                StageStats("bounds", entered=6, decided=4, seconds=0.5),
                StageStats("refine", entered=2, decided=2, refined=2,
                           seconds=1.0),
            ),
        )
        second = PruningStats(
            technique_name="T",
            kind="probability",
            n_queries=2,
            n_candidates=4,
            stages=(
                StageStats("bounds", entered=8, decided=8, seconds=0.25),
            ),
        )
        merged = first.merged(second)
        bounds = merged.stage("bounds")
        assert bounds.entered == 14 and bounds.decided == 12
        assert bounds.seconds == 0.75
        assert merged.stage("refine").refined == 2
        assert merged.samples_drawn == 0

    def test_summary_mentions_every_stage(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        _, stats = technique.matrix_with_stats(
            "probability", multisample[:4], multisample, epsilon=3.0
        )
        text = stats.summary()
        assert "bounds" in text and "refine" in text
        assert all(entry.seconds >= 0.0 for entry in stats.stages)

    def test_empty_queries(self):
        technique = EuclideanTechnique()
        values, stats = technique.matrix_with_stats("distance", [], [1, 2])
        assert values.shape == (0, 2)
        assert stats.n_queries == 0

    def test_plan_must_decide_everything(self, pdf):
        class Leaky(BoundStage):
            def run(self, context):
                return 0, 0  # decides nothing

        technique = MunichTechnique()
        plan = QueryPlan((Leaky(),))
        with pytest.raises(InvalidParameterError):
            plan.execute(technique, "probability", pdf[:2], pdf, epsilon=1.0)


class TestAdaptiveMC:
    """The sequential stopping rule never flips a decision."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_munich_dtw_decisions_never_flip(self, multisample, seed):
        rng = np.random.default_rng(seed)
        epsilon = float(rng.uniform(1.0, 6.0))
        tau = float(rng.uniform(0.05, 0.95))
        munich = Munich(
            tau=0.5, method="montecarlo", n_samples=48, rng=seed
        )
        technique = MunichDtwTechnique(window=2, munich=munich)
        queries = multisample[:5]
        fixed, fixed_stats = technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilon
        )
        adaptive, adaptive_stats = technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilon, tau=tau
        )
        np.testing.assert_array_equal(fixed >= tau, adaptive >= tau)
        assert adaptive_stats.samples_drawn <= fixed_stats.samples_drawn
        assert adaptive_stats.stage("adaptive-mc") is not None

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_munich_euclidean_mc_decisions_never_flip(
        self, multisample, seed
    ):
        rng = np.random.default_rng(100 + seed)
        epsilon = float(rng.uniform(1.0, 6.0))
        tau = float(rng.uniform(0.05, 0.95))
        munich = Munich(
            tau=0.5, method="montecarlo", n_samples=64, rng=seed
        )
        technique = MunichTechnique(munich)
        queries = multisample[:5]
        fixed, fixed_stats = technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilon
        )
        adaptive, adaptive_stats = technique.matrix_with_stats(
            "probability", queries, multisample, epsilon=epsilon, tau=tau
        )
        np.testing.assert_array_equal(fixed >= tau, adaptive >= tau)
        assert adaptive_stats.samples_drawn <= fixed_stats.samples_drawn

    def test_convolution_decides_at_tau(self, multisample):
        """Convolution MUNICH plans no adaptive stage; its refine stage
        decides against τ with the τ-free verdicts, recording bounds on
        the verdict's side, and leaves τ-free output untouched."""
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        plan = technique.build_plan("probability", tau=0.5)
        assert not any(
            isinstance(stage, AdaptiveMCStage) for stage in plan.stages
        )
        epsilons = np.linspace(2.0, 4.0, 5)
        fixed = technique.probability_matrix(
            multisample[:5], multisample, epsilons
        )
        tau = 0.5
        with_tau, stats = technique.matrix_with_stats(
            "probability", multisample[:5], multisample, epsilon=epsilons,
            tau=tau,
        )
        assert stats.stage("refine") is not None
        np.testing.assert_array_equal(fixed >= tau, with_tau >= tau)
        # Cells a bound decided (Hoeffding or Berry–Esseen) hold that
        # bound: an upper bound below τ for misses, a lower bound at or
        # above τ for hits.
        bounded = np.abs(with_tau - fixed) > 1e-12
        misses = bounded & (fixed < tau)
        hits = bounded & (fixed >= tau)
        assert misses.any() and hits.any()
        assert np.all(with_tau[misses] >= fixed[misses])
        assert np.all(with_tau[misses] < tau)
        assert np.all(with_tau[hits] <= fixed[hits])
        assert np.all(with_tau[hits] >= tau)

        # τ = None keeps the full DP's bits.  The digest was recorded
        # from the kernel before decision mode existed; dyadic samples
        # keep every input bit platform-independent.
        rng = np.random.default_rng(17)
        base = rng.integers(-4, 5, size=(13, 12, 1))
        noise = rng.integers(-4, 5, size=(13, 12, 3))
        dyadic = [
            MultisampleUncertainTimeSeries((base[i] + noise[i]) / 8.0)
            for i in range(13)
        ]
        values, _ = technique.matrix_with_stats(
            "probability", dyadic[:5], dyadic,
            epsilon=np.linspace(1.0, 2.0, 5), tau=None,
        )
        assert hashlib.sha256(values.tobytes()).hexdigest() == (
            "4bbf64cc85527a89234e085b0e05355bfddab05df5e6d396331c6a812cfee92a"
        )

    def test_prob_range_matches_fixed_sets(self, multisample):
        munich = Munich(tau=0.5, method="montecarlo", n_samples=40, rng=2)
        technique = MunichDtwTechnique(window=2, munich=munich)
        tau = 0.6
        with SimilaritySession(multisample) as session:
            query_set = session.queries().using(technique)
            result = query_set.prob_range(epsilon=3.5, tau=tau)
            fixed = query_set.profile_matrix(epsilon=3.5)
        for position in range(len(multisample)):
            row = fixed.values[position] >= tau
            row[position] = False  # self-match excluded
            expected = np.flatnonzero(row)
            np.testing.assert_array_equal(
                result.matches[position], expected
            )
        assert result.pruning_stats is not None
        assert result.pruning_stats.stage("adaptive-mc") is not None


class TestSessionStats:
    def test_matrix_and_knn_results_expose_stats(self, pdf):
        with SimilaritySession(pdf) as session:
            query_set = session.queries().using(EuclideanTechnique())
            matrix = query_set.profile_matrix()
            assert matrix.pruning_stats is not None
            assert matrix.pruning_stats.decided_by("refine") == (
                len(pdf) ** 2
            )
            knn = query_set.knn(3)
            assert knn.pruning_stats is not None
            ranged = query_set.range(epsilon=4.0)
            assert ranged.pruning_stats is not None

    def test_harness_outcomes_carry_stats(self, exact):
        from repro.evaluation import run_similarity_experiment
        from repro.perturbation import ConstantScenario

        result = run_similarity_experiment(
            exact,
            ConstantScenario("normal", 0.4),
            [EuclideanTechnique(), ProudTechnique(assumed_std=0.4)],
            k=3,
            n_queries=4,
            seed=11,
        )
        for outcome in result.techniques.values():
            assert outcome.pruning_stats is not None
            assert outcome.pruning_stats.total_seconds >= 0.0


class TestCustomTechniqueMigration:
    """A per-pair-only subclass runs through the default plan."""

    def test_per_pair_fallback_subclass(self, pdf):
        class Hamming(Technique):
            name = "Hamming-ish"
            kind = "distance"

            def distance(self, query, candidate):
                return float(
                    np.sum(query.observations > candidate.observations)
                )

        technique = Hamming()
        values, stats = technique.matrix_with_stats(
            "distance", pdf[:4], pdf
        )
        reference = _per_pair_distances(technique, pdf[:4], pdf)
        np.testing.assert_array_equal(values, reference)
        assert [entry.stage for entry in stats.stages] == ["refine"]

    def test_default_plan_is_single_refine(self):
        plan = EuclideanTechnique().build_plan("distance")
        assert len(plan.stages) == 1
        assert isinstance(plan.stages[0], RefineStage)


class TestNaiveDtwPlan:
    def test_naive_method_refines_per_pair(self):
        from repro.core import MultisampleUncertainTimeSeries

        rng = np.random.default_rng(4)
        tiny = [
            MultisampleUncertainTimeSeries(rng.normal(size=(4, 2)))
            for _ in range(3)
        ]
        munich = Munich(tau=0.5, method="naive", use_bounds=False)
        technique = MunichDtwTechnique(window=1, munich=munich)
        values, stats = technique.matrix_with_stats(
            "probability", tiny[:2], tiny, epsilon=2.0
        )
        reference = np.vstack(
            [
                [
                    munich.dtw_probability(query, candidate, 2.0, window=1)
                    for candidate in tiny
                ]
                for query in tiny[:2]
            ]
        )
        np.testing.assert_array_equal(values, reference)
        assert [entry.stage for entry in stats.stages] == ["refine"]
