"""Cost-based plan policy: chooser, cache, τ-grid rule, API surface.

The contracts under test:

* :class:`PlanPolicy` validates its knobs and round-trips the wire form;
* the pinned-seed pilot keeps/drops filter stages deterministically and
  never changes decisions (filters are sound — cost only);
* chosen plans are cached per ``(technique, workload-shape, policy)``:
  reused on an identical workload, invalidated by a shape or policy
  change;
* one τ-grid bracketing pass reproduces the fixed-sample decisions at
  every grid threshold, across seeds, cached plans included;
* ``QuerySet.with_policy`` / ``SimilaritySession(config=...)`` /
  ``connect(policy=...)`` accept the policy uniformly and ``explain()``
  reports the same chosen plan on every backend;
* executor knobs live only on :class:`SessionConfig`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TimeSeries, spawn
from repro.core.errors import InvalidParameterError
from repro.datasets import generate_dataset
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    EuclideanTechnique,
    MunichTechnique,
    SimilaritySession,
)
from repro.queries.planner import (
    ExplainReport,
    PlanPolicy,
    clear_plan_cache,
    effective_index_enabled,
    get_default_policy,
    normalize_tau,
    plan_cache_size,
    sequential_mc_grid_decision,
    set_default_policy,
)
from repro.queries.session import SessionConfig

SEED = 2012


@pytest.fixture(autouse=True)
def _clean_planner_state():
    saved = get_default_policy()
    clear_plan_cache()
    yield
    set_default_policy(saved)
    clear_plan_cache()


@pytest.fixture(scope="module")
def noise():
    rng = np.random.default_rng(SEED)
    return [TimeSeries(rng.normal(size=24)) for _ in range(40)]


@pytest.fixture(scope="module")
def multisample():
    exact = generate_dataset(
        "GunPoint", seed=SEED, n_series=14, length=12
    )
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(SEED, "ms", index))
        for index, series in enumerate(exact)
    ]


class TestPlanPolicy:
    def test_defaults(self):
        policy = PlanPolicy()
        assert policy.mode == "auto"
        assert policy.cost_cache is True
        assert policy.use_index is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sometimes"},
            {"pilot_queries": 0},
            {"pilot_candidates": 0},
            {"pilot_floor_cells": -1},
            {"min_selectivity": 1.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            PlanPolicy(**kwargs)

    def test_wire_roundtrip(self):
        policy = PlanPolicy(
            mode="never_index",
            pilot_queries=2,
            pilot_candidates=8,
            pilot_floor_cells=0,
            min_selectivity=0.25,
            cost_cache=False,
            use_index=False,
        )
        assert PlanPolicy.from_wire(policy.to_wire()) == policy
        # Defaults ship as an empty payload.
        assert PlanPolicy().to_wire() == {}
        assert PlanPolicy.from_wire({}) == PlanPolicy()

    def test_wire_rejects_unknown_fields(self):
        for extra in (
            {"warp": 9},
            {"precision": "float64"},
            {"backend": "numpy"},
        ):
            with pytest.raises(InvalidParameterError, match="unknown policy"):
                PlanPolicy.from_wire({"mode": "auto", **extra})

    def test_policies_are_hashable(self):
        assert len({PlanPolicy(), PlanPolicy(), PlanPolicy(mode="fixed")}) == 2


class TestIndexRouting:
    def test_never_index_trumps_use_index(self):
        assert not effective_index_enabled(
            PlanPolicy(mode="never_index", use_index=True)
        )

    def test_explicit_use_index_wins_over_default(self):
        set_default_policy(PlanPolicy(use_index=False))
        assert effective_index_enabled(PlanPolicy(use_index=True))
        assert not effective_index_enabled(None)


class TestTauGrid:
    def test_normalize_tau_forms(self):
        assert normalize_tau(None) is None
        assert normalize_tau(0.5) == 0.5
        assert normalize_tau([0.9, 0.1, 0.9]) == (0.1, 0.9)
        with pytest.raises(InvalidParameterError):
            normalize_tau([])
        with pytest.raises(InvalidParameterError):
            normalize_tau([0.5, 1.5])

    def test_grid_decision_open_while_any_tau_bracketed(self):
        # hits/s in [2/10, 7/10]: tau=0.5 is inside the open bracket.
        assert (
            sequential_mc_grid_decision(2, 5, 10, (0.1, 0.5, 0.9)) is None
        )
        # Same draws, grid clear of the bracket: decided, value=2/10.
        assert sequential_mc_grid_decision(2, 5, 10, (0.1, 0.9)) == 0.2

    def test_grid_decision_matches_scalar_rule_at_exhaustion(self):
        value = sequential_mc_grid_decision(7, 10, 10, (0.2, 0.5, 0.8))
        assert value == 0.7

    @pytest.mark.parametrize("seed", [0, 7, 2012])
    def test_grid_never_flips_across_seeds(self, multisample, seed):
        grid = (0.2, 0.4, 0.6, 0.8)
        epsilon = 1.5

        def technique():
            return MunichTechnique(
                Munich(
                    tau=0.5, method="montecarlo", n_samples=64, rng=seed
                )
            )

        full, _ = technique().matrix_with_stats(
            "probability", multisample, multisample, epsilon=epsilon
        )
        bracketed, stats = technique().matrix_with_stats(
            "probability", multisample, multisample, epsilon=epsilon, tau=grid
        )
        for tau in grid:
            np.testing.assert_array_equal(
                bracketed >= tau, full >= tau
            )
        # The bracketing pass must actually stop early somewhere.
        assert stats.samples_drawn < 64 * len(multisample) * len(multisample)

    def test_cached_plan_keeps_never_flips(self, multisample):
        grid = (0.3, 0.7)
        policy = PlanPolicy(pilot_floor_cells=1, pilot_queries=2, pilot_candidates=8)
        for seed in (3, 11):
            technique = MunichTechnique(
                Munich(tau=0.5, method="montecarlo", n_samples=48, rng=seed)
            )
            full, _ = technique.matrix_with_stats(
                "probability", multisample, multisample, epsilon=1.5, policy=policy
            )
            first, stats_first = technique.matrix_with_stats(
                "probability",
                multisample,
                multisample,
                epsilon=1.5,
                tau=grid,
                policy=policy,
            )
            again, stats_again = technique.matrix_with_stats(
                "probability",
                multisample,
                multisample,
                epsilon=1.5,
                tau=grid,
                policy=policy,
            )
            assert stats_again.explanation.cache_hit
            np.testing.assert_array_equal(first, again)
            for tau in grid:
                np.testing.assert_array_equal(first >= tau, full >= tau)


class TestPlanCache:
    def _knn(self, session, technique, policy, k=3, n_queries=None):
        queries = session.queries(
            list(range(n_queries)) if n_queries else None
        )
        return queries.using(technique).with_policy(policy).knn(k)

    def test_cache_reuse_on_same_workload_shape(self, noise):
        policy = PlanPolicy(
            pilot_floor_cells=1, pilot_queries=2, pilot_candidates=8
        )
        technique = EuclideanTechnique()
        with SimilaritySession(noise) as session:
            first = self._knn(session, technique, policy)
            assert not first.pruning_stats.explanation.cache_hit
            size = plan_cache_size()
            again = self._knn(session, technique, policy)
            assert again.pruning_stats.explanation.cache_hit
            assert plan_cache_size() == size
            np.testing.assert_array_equal(first.indices, again.indices)

    def test_fresh_technique_instance_does_not_share_plans(self, noise):
        policy = PlanPolicy(
            pilot_floor_cells=1, pilot_queries=2, pilot_candidates=8
        )
        with SimilaritySession(noise) as session:
            self._knn(session, EuclideanTechnique(), policy)
            result = self._knn(session, EuclideanTechnique(), policy)
            assert not result.pruning_stats.explanation.cache_hit

    def test_cache_invalidated_by_shape_change(self, noise):
        policy = PlanPolicy(
            pilot_floor_cells=1, pilot_queries=2, pilot_candidates=8
        )
        technique = EuclideanTechnique()
        with SimilaritySession(noise) as session:
            self._knn(session, technique, policy)
            size = plan_cache_size()
            result = self._knn(session, technique, policy, n_queries=10)
            assert not result.pruning_stats.explanation.cache_hit
            assert plan_cache_size() == size + 1

    def test_cache_invalidated_by_policy_change(self, noise):
        policy = PlanPolicy(
            pilot_floor_cells=1, pilot_queries=2, pilot_candidates=8
        )
        sibling = PlanPolicy(
            pilot_floor_cells=1,
            pilot_queries=2,
            pilot_candidates=8,
            min_selectivity=0.5,
        )
        technique = EuclideanTechnique()
        with SimilaritySession(noise) as session:
            self._knn(session, technique, policy)
            size = plan_cache_size()
            result = self._knn(session, technique, sibling)
            assert not result.pruning_stats.explanation.cache_hit
            assert plan_cache_size() == size + 1

    def test_fixed_mode_bypasses_cache(self, noise):
        with SimilaritySession(noise) as session:
            result = self._knn(
                session, EuclideanTechnique(), PlanPolicy(mode="fixed")
            )
            assert plan_cache_size() == 0
            explanation = result.pruning_stats.explanation
            assert explanation.mode == "fixed"
            assert not explanation.cache_hit


class TestChooser:
    def test_chooser_drops_dead_index_and_keeps_parity(self, noise):
        auto = PlanPolicy(
            pilot_floor_cells=1, pilot_queries=4, pilot_candidates=16
        )
        fixed = PlanPolicy(mode="fixed")
        with SimilaritySession(noise) as session:
            query_set = session.queries().using(EuclideanTechnique())
            tuned = query_set.with_policy(auto).knn(3)
            authored = query_set.with_policy(fixed).knn(3)
            # i.i.d. noise collapses every PAA lower bound: the pilot
            # sees a dead index stage and drops it.
            assert "index" not in tuned.pruning_stats.explanation.chosen_stages
            assert any(
                stage.stage == "index"
                for stage in authored.pruning_stats.stages
            )
            np.testing.assert_array_equal(
                tuned.indices, authored.indices
            )
            np.testing.assert_allclose(
                tuned.scores, authored.scores, rtol=0, atol=1e-9
            )

    def test_small_workload_stays_on_authored_cascade(self, noise):
        with SimilaritySession(noise) as session:
            result = (
                session.queries()
                .using(EuclideanTechnique())
                .with_policy(PlanPolicy())
                .knn(3)
            )
            explanation = result.pruning_stats.explanation
            assert "below the pilot floor" in explanation.rationale
            assert "index" in explanation.chosen_stages

    def test_with_policy_returns_new_query_set(self, noise):
        with SimilaritySession(noise) as session:
            base = session.queries().using(EuclideanTechnique())
            bound = base.with_policy(PlanPolicy(mode="fixed"))
            assert base.policy is None
            assert bound.policy == PlanPolicy(mode="fixed")
            with pytest.raises(InvalidParameterError):
                base.with_policy("auto")

    def test_session_policy_flows_to_query_sets(self, noise):
        policy = PlanPolicy(mode="never_index")
        with SimilaritySession(noise, policy=policy) as session:
            query_set = session.queries().using(EuclideanTechnique())
            assert query_set.policy == policy
            result = query_set.knn(3)
            stages = [s.stage for s in result.pruning_stats.stages]
            assert "index" not in stages


class TestExplain:
    def test_explain_reports_estimated_vs_actual(self, noise):
        policy = PlanPolicy(
            pilot_floor_cells=1, pilot_queries=4, pilot_candidates=16
        )
        with SimilaritySession(noise) as session:
            report = (
                session.queries()
                .using(EuclideanTechnique())
                .with_policy(policy)
                .explain(k=3)
            )
        assert isinstance(report, ExplainReport)
        assert report.mode == "auto"
        assert report.plan  # at least the refine stage
        by_stage = {record["stage"]: record for record in report.records}
        assert by_stage["refine"]["actual_selectivity"] == 1.0
        # The dropped index stage still shows its pilot estimate.
        assert "index" in by_stage
        assert by_stage["index"]["estimated_selectivity"] is not None
        assert by_stage["index"]["actual_selectivity"] is None
        assert "pilot scored" in report.rationale
        assert "refine" in report.summary()

    def test_explain_sharded_merges_consistently(self, noise):
        config = SessionConfig(n_workers=2)
        with SimilaritySession(noise, config=config) as sharded:
            with SimilaritySession(noise) as serial:
                technique = EuclideanTechnique()
                shard_report = (
                    sharded.queries().using(technique).explain(k=3)
                )
                serial_report = (
                    serial.queries().using(technique).explain(k=3)
                )
        assert shard_report.plan == serial_report.plan
        assert shard_report.mode == serial_report.mode
        assert shard_report.executor["n_workers"] == 2
        # Sound filters: merged shard counts equal the serial counts.
        shard_totals = {
            record["stage"]: record["decided"]
            for record in shard_report.records
        }
        serial_totals = {
            record["stage"]: record["decided"]
            for record in serial_report.records
        }
        assert set(shard_totals) == set(serial_totals)


class TestSessionConfig:
    def test_config_object_replaces_loose_kwargs(self, noise):
        config = SessionConfig(n_workers=2, row_block=8)
        with SimilaritySession(noise, config=config) as session:
            assert session.config == config
            assert session.policy is None

    def test_executor_knobs_only_through_config(self, noise):
        with pytest.raises(TypeError):
            SimilaritySession(noise, n_workers=2)
        with pytest.raises(TypeError):
            SimilaritySession(noise, None, 2)

    def test_policy_kwarg_merges_into_config(self, noise):
        policy = PlanPolicy(mode="fixed")
        with SimilaritySession(noise, policy=policy) as session:
            assert session.policy == policy
            assert session.config.policy == policy

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            SessionConfig(n_workers=0)
        with pytest.raises(InvalidParameterError):
            SessionConfig(policy="auto")
