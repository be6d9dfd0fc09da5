"""Tests for the batched MUNICH convolution (repro.munich.batch).

Property: for every randomized configuration — lengths, sample counts,
bin counts, thresholds from degenerate to saturating — the stacked batch
evaluator equals :func:`repro.munich.exact.convolved_probability` per
candidate to far better than the 1e-9 batch-kernel tolerance, and the
technique/one-row/matrix/shard layers above it inherit that parity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.munich.batch as batch_module
from repro.core import InvalidParameterError, MultisampleUncertainTimeSeries, spawn
from repro.datasets import generate_dataset
from repro.munich import (
    Munich,
    convolved_probability,
    convolved_probability_batch,
    stack_candidate_samples,
)
from repro.perturbation import ConstantScenario
from repro.queries import MunichTechnique, SimilaritySession
from shard_blocks import sharded_matrix

PARITY_TOL = 1e-9


def _random_workload(rng, n_candidates=None):
    length = int(rng.integers(1, 28))
    s_query = int(rng.integers(1, 6))
    s_candidate = int(rng.integers(1, 6))
    count = (
        int(rng.integers(1, 10)) if n_candidates is None else n_candidates
    )
    query = MultisampleUncertainTimeSeries(
        rng.normal(size=(length, s_query))
    )
    candidates = [
        MultisampleUncertainTimeSeries(
            rng.normal(size=(length, s_candidate)) + 0.5 * rng.normal()
        )
        for _ in range(count)
    ]
    return query, candidates


class TestBatchedConvolution:
    def test_randomized_parity(self):
        """Property: batch ≡ per-pair over random shapes, bins, and ε."""
        rng = np.random.default_rng(41)
        worst = 0.0
        for _ in range(30):
            query, candidates = _random_workload(rng)
            stacked = stack_candidate_samples(candidates)
            n_bins = int(rng.choice([2, 5, 64, 512, 4096]))
            scale = np.sqrt(len(query)) * (0.2 + 2.0 * rng.random())
            for epsilon in (0.0, 0.3 * scale, scale, 4.0 * scale):
                reference = np.array([
                    convolved_probability(
                        query, candidate, epsilon, n_bins=n_bins
                    )
                    for candidate in candidates
                ])
                batch = convolved_probability_batch(
                    query, stacked, epsilon, n_bins=n_bins
                )
                worst = max(worst, float(np.max(np.abs(batch - reference))))
        assert worst <= 1e-12

    def test_zero_epsilon_counts_exact_zeros(self):
        samples = np.ones((6, 3))
        query = MultisampleUncertainTimeSeries(samples)
        same = MultisampleUncertainTimeSeries(np.ones((6, 2)))
        other = MultisampleUncertainTimeSeries(np.ones((6, 2)) + 1.0)
        stacked = stack_candidate_samples([same, other])
        probabilities = convolved_probability_batch(query, stacked, 0.0)
        assert probabilities[0] == 1.0
        assert probabilities[1] == 0.0

    def test_saturating_epsilon_is_one(self):
        rng = np.random.default_rng(5)
        query, candidates = _random_workload(rng, n_candidates=4)
        stacked = stack_candidate_samples(candidates)
        probabilities = convolved_probability_batch(query, stacked, 1e9)
        assert np.all(probabilities == 1.0)

    def test_blocked_rows_match_single_block(self, monkeypatch):
        """Row blocking (memory bound) must not change any probability."""
        rng = np.random.default_rng(6)
        query, candidates = _random_workload(rng, n_candidates=9)
        stacked = stack_candidate_samples(candidates)
        epsilon = float(np.sqrt(len(query)))
        whole = convolved_probability_batch(query, stacked, epsilon, 128)
        monkeypatch.setattr(batch_module, "BATCH_BLOCK_ELEMENTS", 1)
        blocked = convolved_probability_batch(query, stacked, epsilon, 128)
        # Blocking regroups the span-sorted timestamp schedule, so the
        # float ordering (not the math) may differ across block sizes.
        np.testing.assert_allclose(whole, blocked, atol=1e-12)

    def test_chunked_dp_matches_per_pair(self, monkeypatch):
        """Tiny DP chunks (forced splits) keep per-pair parity."""
        monkeypatch.setattr(batch_module, "DP_CHUNK_ELEMENTS", 8)
        rng = np.random.default_rng(7)
        query, candidates = _random_workload(rng, n_candidates=8)
        stacked = stack_candidate_samples(candidates)
        epsilon = float(np.sqrt(len(query)))
        reference = np.array([
            convolved_probability(query, candidate, epsilon, n_bins=64)
            for candidate in candidates
        ])
        batch = convolved_probability_batch(query, stacked, epsilon, 64)
        np.testing.assert_allclose(batch, reference, atol=1e-12)

    def test_validation(self):
        query = MultisampleUncertainTimeSeries(np.zeros((4, 2)))
        stacked = np.zeros((1, 4, 2))
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, stacked, -1.0)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, stacked, 1.0, n_bins=1)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, np.zeros((4, 2)), 1.0)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, np.zeros((1, 5, 2)), 1.0)
        with pytest.raises(InvalidParameterError):
            convolved_probability_batch(query, stacked, float("nan"))
        for tau in ((), (0.2, 1.5), [-0.1, 0.5], (0.5, float("nan"))):
            with pytest.raises(InvalidParameterError):
                convolved_probability_batch(query, stacked, 1.0, tau=tau)

    def test_ragged_stacking_rejected(self):
        ragged = [
            MultisampleUncertainTimeSeries(np.zeros((4, 2))),
            MultisampleUncertainTimeSeries(np.zeros((4, 3))),
        ]
        with pytest.raises(InvalidParameterError):
            stack_candidate_samples(ragged)


# ---------------------------------------------------------------------------
# Decision mode: rows decided by Hoeffding, then Berry–Esseen bounds
# before the DP; τ-free verdicts
# ---------------------------------------------------------------------------

#: The decision thresholds every parity sweep covers.
TAUS = (0.0, 0.05, 0.5, 0.95, 1.0)


@pytest.fixture(scope="module")
def error_collections():
    """One seeded multisample collection per error distribution."""
    exact = generate_dataset("GunPoint", seed=71, n_series=14, length=12)
    collections = {}
    for kind in ("normal", "uniform", "exponential"):
        scenario = ConstantScenario(kind, 0.6)
        collections[kind] = [
            scenario.apply_multisample(series, 3, spawn(71, kind, index))
            for index, series in enumerate(exact)
        ]
    return collections


def _neighbour_epsilons(collection):
    """Per-query ε: the distance (over sample means) to a neighbour of
    rank 2–8, so rows span sparse to dense match sets."""
    means = np.vstack([series.samples.mean(axis=1) for series in collection])
    distances = np.sqrt(
        ((means[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    )
    ranks = 2 + np.arange(len(collection)) % 7
    return np.sort(distances, axis=1)[np.arange(len(collection)), ranks]


class TestDecisionMode:
    def test_hoeffding_bound_encloses_exact_probability(self):
        """Property: the recorded bound brackets the DP's probability.

        At each of 32 timestamps the query samples (0, 0, 0) meet the
        candidate samples (0, 0, 1): six zero atoms and three at 1, so
        the DP computes a binomial CDF.  ``τ = 1`` makes every row the
        upper bound can rule out a recorded miss (value = upper bound),
        ``τ = 0`` every row the lower bound settles a recorded hit
        (value = lower bound).
        """
        length = 32
        query = MultisampleUncertainTimeSeries(np.zeros((length, 3)))
        candidate = np.tile([0.0, 0.0, 1.0], (1, length, 1))
        bounded = {"upper": 0, "lower": 0}
        for epsilon in np.sqrt(np.linspace(0.5, 31.5, 41)):
            exact = convolved_probability_batch(query, candidate, epsilon)[0]
            upper = convolved_probability_batch(
                query, candidate, epsilon, tau=1.0
            )[0]
            lower = convolved_probability_batch(
                query, candidate, epsilon, tau=0.0
            )[0]
            assert lower <= exact <= upper
            bounded["upper"] += upper != exact
            bounded["lower"] += lower != exact
        assert bounded["upper"] >= 10 and bounded["lower"] >= 10

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        max_span=st.sampled_from([1, 3, 40, 4095]),
        sparse=st.booleans(),
    )
    def test_bound_cascade_matches_dp_on_random_atoms(
        self, seed, max_span, sparse
    ):
        """Property: rows the bound cascade decides have the DP's verdict.

        Random ``(L, n, K)`` residual atoms (each timestamp's minimum
        at 0; ``sparse`` pushes most atoms to 0, a skewed sum) with
        cutoffs in ``(0, Σ span)``.  Hoeffding runs on every row and
        Berry–Esseen on the rows it leaves open, as in decision mode.
        At every τ and the τ grid, a decided row's recorded bound has
        the DP's verdict and brackets the DP's value on that side.
        """
        rng = np.random.default_rng(seed)
        shape = (
            int(rng.integers(1, 9)),
            int(rng.integers(1, 33)),
            int(rng.integers(2, 10)),
        )
        atoms = rng.integers(0, max_span + 1, size=shape)
        if sparse:
            atoms *= rng.random(shape) < 0.2
        # Timestamp 0 spans at least 2, so every row has a cutoff.
        atoms[:, 0, :2] = (0, max_span + 1)
        residuals = atoms - atoms.min(axis=2, keepdims=True)
        spans = residuals.max(axis=2)
        cutoffs = rng.integers(1, spans.sum(axis=1))
        exact = batch_module._dp_chunk(residuals, cutoffs, shape[2])
        slack = batch_module.DECISION_SLACK
        for tau in (0.05, 0.5, 0.95, (0.2, 0.5, 0.8)):
            thresholds = np.atleast_1d(tau)
            values, decided = batch_module._hoeffding_decisions(
                residuals, cutoffs, spans, thresholds, slack
            )
            rest = np.flatnonzero(~decided)
            values[rest], decided[rest] = batch_module._berry_esseen_decisions(
                residuals[rest], cutoffs[rest], thresholds, slack
            )
            for threshold in thresholds:
                np.testing.assert_array_equal(
                    values[decided] >= threshold,
                    exact[decided] >= threshold,
                )
            hits = decided & (values >= thresholds[-1])
            misses = decided & ~hits
            assert np.all(values[misses] >= exact[misses] - 1e-12)
            assert np.all(values[hits] <= exact[hits] + 1e-12)

    def test_berry_esseen_decides_rows_hoeffding_leaves(self, monkeypatch):
        """The second stage is not redundant: at τ = 0.5 a row near the
        centre of its sum is open to Hoeffding and decided without the DP.

        As above, each of 32 timestamps has six zero atoms and three at
        ``b = ⌊4096/ε²⌋``; at ``ε² = 12.5`` the DP's ``P`` is
        ``Pr(Bin(32, 1/3) <= 12)`` ≈ 0.73.
        """
        length = 32
        query = MultisampleUncertainTimeSeries(np.zeros((length, 3)))
        candidate = np.tile([0.0, 0.0, 1.0], (1, length, 1))
        epsilon = np.sqrt(12.5)
        exact = convolved_probability_batch(query, candidate, epsilon)[0]
        rows = {"open": 0, "dp": 0}
        hoeffding = batch_module._hoeffding_decisions
        dp_chunk = batch_module._dp_chunk

        def counting_hoeffding(*arguments):
            values, decided = hoeffding(*arguments)
            rows["open"] += int(np.count_nonzero(~decided))
            return values, decided

        def counting_dp(residuals, cutoffs, n_atoms):
            rows["dp"] += len(cutoffs)
            return dp_chunk(residuals, cutoffs, n_atoms)

        monkeypatch.setattr(
            batch_module, "_hoeffding_decisions", counting_hoeffding
        )
        monkeypatch.setattr(batch_module, "_dp_chunk", counting_dp)
        decided = convolved_probability_batch(
            query, candidate, epsilon, tau=0.5
        )[0]
        assert rows == {"open": 1, "dp": 0}
        assert 0.5 <= decided <= exact

    @pytest.mark.parametrize("n_bins", [256, 4096])
    @pytest.mark.parametrize("kind", ["normal", "uniform", "exponential"])
    def test_prob_range_parity_sweep(
        self, error_collections, kind, n_bins, monkeypatch
    ):
        """``prob_range`` match sets equal the τ-free matrix thresholded
        at τ, in-process and on two column shards, and a τ grid brackets
        every grid point."""
        decided = {"hits": 0, "misses": 0}
        hoeffding = batch_module._hoeffding_decisions

        def counting(residuals, cutoffs, spans, thresholds, slack):
            values, rows = hoeffding(
                residuals, cutoffs, spans, thresholds, slack
            )
            hits = rows & (values >= thresholds[-1])
            decided["hits"] += int(np.count_nonzero(hits))
            decided["misses"] += int(np.count_nonzero(rows & ~hits))
            return values, rows

        monkeypatch.setattr(batch_module, "_hoeffding_decisions", counting)
        collection = error_collections[kind]
        epsilons = _neighbour_epsilons(collection)
        technique = MunichTechnique(Munich(tau=0.5, n_bins=n_bins))
        grid = (0.2, 0.5, 0.8)
        with SimilaritySession(collection) as session:
            query_set = session.queries().using(technique)
            full = query_set.profile_matrix(epsilon=epsilons)
            for tau in TAUS:
                ranged = query_set.prob_range(epsilons, tau)
                for got, want in zip(ranged.matches, full.result_sets(tau)):
                    np.testing.assert_array_equal(got, want)
            gridded = query_set.profile_matrix(epsilon=epsilons, tau=grid)
            for tau in grid:
                np.testing.assert_array_equal(
                    gridded.values >= tau, full.values >= tau
                )

        # Two column shards, as a 2-shard cluster splits the collection:
        # each half's verdicts equal its own τ-free half.
        def two_shards(tau=None):
            values, _ = sharded_matrix(
                technique,
                "probability",
                collection,
                collection,
                col_block=(len(collection) + 1) // 2,
                epsilon=epsilons,
                tau=tau,
            )
            return values

        halves = two_shards()
        for tau in TAUS:
            np.testing.assert_array_equal(two_shards(tau) >= tau, halves >= tau)
        gridded = two_shards(grid)
        for tau in grid:
            np.testing.assert_array_equal(gridded >= tau, halves >= tau)
        assert decided["hits"] > 0 and decided["misses"] > 0

    def test_near_threshold_rows_match_tau_free_chunks(self):
        """A refined row within rounding of τ keeps the τ-free verdict.

        Column 23 of this query has ``P̂ = 1`` in the τ-free DP chunk
        but ``1 − 2⁻⁵³`` in the smaller decision-mode chunk; only the
        re-run in its τ-free chunk keeps it a hit at ``τ = 1``.
        """
        exact = generate_dataset("GunPoint", seed=1, n_series=40, length=24)
        scenario = ConstantScenario("uniform", 0.5)
        collection = [
            scenario.apply_multisample(series, 3, spawn(1, "ms", index))
            for index, series in enumerate(exact)
        ]
        stacked = stack_candidate_samples(collection)
        epsilon = 7.574880283241908
        full = convolved_probability_batch(collection[10], stacked, epsilon)
        decided = convolved_probability_batch(
            collection[10], stacked, epsilon, tau=1.0
        )
        assert abs(full[23] - 1.0) <= 1e-12
        np.testing.assert_array_equal(full >= 1.0, decided >= 1.0)


# ---------------------------------------------------------------------------
# Technique-level parity (one row / matrix / shards / ragged fallback)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def multisample():
    exact = generate_dataset("GunPoint", seed=55, n_series=16, length=20)
    scenario = ConstantScenario("normal", 0.5)
    return [
        scenario.apply_multisample(series, 3, spawn(55, "ms", index))
        for index, series in enumerate(exact)
    ]


class TestMunichTechniqueBatch:
    @pytest.mark.parametrize("use_bounds", [True, False])
    def test_profile_matches_per_pair(self, multisample, use_bounds):
        munich = Munich(tau=0.5, n_bins=256, use_bounds=use_bounds)
        technique = MunichTechnique(munich)
        for epsilon in (0.5, 2.5, 6.0):
            profile = technique.probability_matrix(
                [multisample[0]], multisample, epsilon
            )[0]
            reference = np.array([
                munich.probability(multisample[0], candidate, epsilon)
                for candidate in multisample
            ])
            assert np.max(np.abs(profile - reference)) <= PARITY_TOL

    def test_matrix_matches_per_pair(self, multisample):
        munich = Munich(tau=0.5, n_bins=256)
        technique = MunichTechnique(munich)
        epsilons = np.linspace(1.0, 5.0, 6)
        matrix = technique.probability_matrix(
            multisample[:6], multisample, epsilons
        )
        reference = np.array([
            [
                munich.probability(query, candidate, float(epsilon))
                for candidate in multisample
            ]
            for query, epsilon in zip(multisample[:6], epsilons)
        ])
        assert np.max(np.abs(matrix - reference)) <= PARITY_TOL

    def test_montecarlo_method_keeps_per_pair_path(self, multisample):
        munich = Munich(tau=0.5, method="montecarlo", n_samples=50, rng=3)
        technique = MunichTechnique(munich)
        profile = technique.probability_matrix(
            [multisample[0]], multisample, 2.5
        )[0]
        reference = np.array([
            munich.probability(multisample[0], candidate, 2.5)
            for candidate in multisample
        ])
        np.testing.assert_allclose(profile, reference, atol=PARITY_TOL)

    def test_ragged_sample_counts_fall_back(self, multisample):
        """Mixed samples-per-timestamp collections use the per-pair path."""
        rng = np.random.default_rng(8)
        ragged = list(multisample[:5])
        ragged.append(
            MultisampleUncertainTimeSeries(
                rng.normal(size=(len(multisample[0]), 5))
            )
        )
        munich = Munich(tau=0.5, n_bins=128)
        technique = MunichTechnique(munich)
        profile = technique.probability_matrix(
            [multisample[0]], ragged, 2.5
        )[0]
        reference = np.array([
            munich.probability(multisample[0], candidate, 2.5)
            for candidate in ragged
        ])
        assert np.max(np.abs(profile - reference)) <= PARITY_TOL

    def test_sharded_matrix_parity(self, multisample):
        technique = MunichTechnique(Munich(tau=0.5, n_bins=256))
        epsilons = np.full(len(multisample), 2.5)
        full = technique.probability_matrix(
            multisample, multisample, epsilons
        )
        sharded, _ = sharded_matrix(
            technique,
            "probability",
            multisample,
            multisample,
            row_block=5,
            col_block=7,
            epsilon=epsilons,
        )
        assert np.max(np.abs(sharded - full)) <= PARITY_TOL
