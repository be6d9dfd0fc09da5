"""Plan policy: the one-field :class:`PlanPolicy`, τ-grid rule, API surface.

The contracts under test:

* :class:`PlanPolicy` has one field, ``mode``; it validates it and
  round-trips the wire form, rejecting every other field name;
* ``mode="auto"`` lets the planner prepend the index stage and
  ``mode="fixed"`` runs the authored cascade — decisions never differ
  (filters are sound: cost only);
* one τ-grid bracketing pass reproduces the fixed-sample decisions at
  every grid threshold, across seeds and repeated runs;
* the session is the one place a policy is set
  (``SimilaritySession(policy=...)`` / ``connect(policy=...)``): every
  query set plans under it, without one the default ``PlanPolicy()``
  applies, and ``explain()`` returns the executed plan's
  :class:`PruningStats` on every backend;
* a session has one keyword, ``policy``: no executor knobs remain.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.core import TimeSeries, normalize_tau, spawn
from repro.core.errors import InvalidParameterError
from repro.datasets import generate_dataset
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    EuclideanTechnique,
    MunichDtwTechnique,
    MunichTechnique,
    SimilaritySession,
)
from repro.queries.planner import (
    PlanPolicy,
    PruningStats,
    effective_index_enabled,
    get_default_policy,
    sequential_mc_grid_decision,
)
from shard_blocks import sharded_knn

SEED = 2012


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


def _stage_names(stats):
    return [entry.stage for entry in stats.stages]


class TestPlanPolicy:
    def test_defaults(self):
        assert PlanPolicy().mode == "auto"
        assert [f.name for f in dataclasses.fields(PlanPolicy)] == ["mode"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mode": "sometimes"},
            {"mode": "never_index"},
            {"mode": ""},
            {"mode": "Fixed"},
            {"mode": None},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InvalidParameterError):
            PlanPolicy(**kwargs)

    def test_wire_roundtrip(self):
        policy = PlanPolicy(mode="fixed")
        assert policy.to_wire() == {"mode": "fixed"}
        assert PlanPolicy.from_wire(policy.to_wire()) == policy
        # Defaults ship as an empty payload.
        assert PlanPolicy().to_wire() == {}
        assert PlanPolicy.from_wire({}) == PlanPolicy()

    def test_wire_rejects_unknown_fields(self):
        for extra in (
            {"warp": 9},
            {"precision": "float64"},
            {"backend": "numpy"},
            {"use_index": False},
            {"pilot_floor_cells": 1},
            {"cost_cache": False},
        ):
            with pytest.raises(InvalidParameterError, match="unknown policy"):
                PlanPolicy.from_wire({"mode": "auto", **extra})
        with pytest.raises(InvalidParameterError, match="never_index"):
            PlanPolicy.from_wire({"mode": "never_index"})

    def test_policies_are_hashable(self):
        assert len({PlanPolicy(), PlanPolicy(), PlanPolicy(mode="fixed")}) == 2


class TestIndexRouting:
    def test_explicit_policy_wins_over_default(self):
        assert get_default_policy() == PlanPolicy()
        assert effective_index_enabled(PlanPolicy())
        assert not effective_index_enabled(PlanPolicy(mode="fixed"))
        assert effective_index_enabled(None)

    def test_modes_differ_in_cost_only(self, noise):
        technique = EuclideanTechnique()
        with SimilaritySession(noise, policy=PlanPolicy()) as session:
            indexed = session.queries().using(technique).knn(3)
        with SimilaritySession(
            noise, policy=PlanPolicy(mode="fixed")
        ) as session:
            authored = session.queries().using(technique).knn(3)
        assert _stage_names(indexed.pruning_stats) == ["index", "refine"]
        assert _stage_names(authored.pruning_stats) == ["refine"]
        np.testing.assert_array_equal(indexed.indices, authored.indices)
        np.testing.assert_allclose(
            indexed.scores, authored.scores, rtol=0, atol=1e-9
        )


class TestTauGrid:
    def test_normalize_tau_forms(self):
        assert normalize_tau(None) is None
        assert normalize_tau(0.5) == 0.5
        assert normalize_tau([0.9, 0.1, 0.9]) == (0.1, 0.9)
        with pytest.raises(InvalidParameterError):
            normalize_tau([])
        with pytest.raises(InvalidParameterError):
            normalize_tau([0.5, 1.5])
        for bad in (1.5, -0.2, math.nan, (0.5, math.nan), math.inf):
            with pytest.raises(InvalidParameterError):
                normalize_tau(bad)

    def test_profile_matrix_rejects_nan_tau(self, multisample):
        with SimilaritySession(multisample) as session:
            query_set = session.queries([0, 1]).using(
                MunichDtwTechnique(window=2)
            )
            with pytest.raises(InvalidParameterError):
                query_set.profile_matrix(2.0, tau=math.nan)

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
        policy = PlanPolicy()
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
            assert _stage_names(stats_again) == _stage_names(stats_first)
            np.testing.assert_array_equal(first, again)
            for tau in grid:
                np.testing.assert_array_equal(first >= tau, full >= tau)


class TestChooser:
    """How a policy binds to query sets and sessions."""

    def test_session_policy_flows_to_query_sets(self, noise):
        policy = PlanPolicy(mode="fixed")
        with SimilaritySession(noise, policy=policy) as session:
            query_set = session.queries().using(EuclideanTechnique())
            assert query_set.policy == policy
            result = query_set.knn(3)
            assert _stage_names(result.pruning_stats) == ["refine"]


class TestExplain:
    def test_explain_returns_executed_stats(self, noise):
        with SimilaritySession(noise) as session:
            stats = session.queries().using(EuclideanTechnique()).explain(k=3)
        assert isinstance(stats, PruningStats)
        assert _stage_names(stats) == ["index", "refine"]
        assert stats.n_queries == stats.n_candidates == len(noise)
        assert "index" in stats.summary()
        assert "refine" in stats.summary()

    def test_explain_sharded_merges_consistently(self, noise):
        fixed = PlanPolicy(mode="fixed")
        technique = EuclideanTechnique()
        _, _, shard_stats = sharded_knn(
            technique,
            noise,
            noise,
            3,
            row_block=7,
            col_block=20,
            exclude=np.arange(len(noise), dtype=np.intp),
            policy=fixed,
        )
        with SimilaritySession(noise, policy=fixed) as serial:
            serial_stats = serial.queries().using(technique).explain(k=3)
        assert _stage_names(shard_stats) == ["refine"]
        assert _stage_names(serial_stats) == ["refine"]
        # Merged shard counts equal the serial counts.
        assert [entry.decided for entry in shard_stats.stages] == [
            entry.decided for entry in serial_stats.stages
        ]


class TestSessionPolicy:
    def test_policy_round_trip(self, noise):
        policy = PlanPolicy(mode="fixed")
        with SimilaritySession(noise, policy=policy) as session:
            assert session.policy == policy
            assert session.queries().policy == policy
        with SimilaritySession(noise) as session:
            assert session.policy is None

    def test_policy_must_be_a_plan_policy(self, noise):
        with pytest.raises(InvalidParameterError):
            SimilaritySession(noise, policy="auto")

    def test_config_and_third_positional_rejected(self, noise):
        with pytest.raises(TypeError):
            SimilaritySession(noise, config=None)
        with pytest.raises(TypeError):
            SimilaritySession(noise, None, PlanPolicy())

    def test_cli_has_no_workers_option(self):
        from repro.cli import build_parser

        assert not hasattr(build_parser().parse_args(["fig05"]), "workers")
