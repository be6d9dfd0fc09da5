"""Tests for the batched banded DTW kernels (repro.distances.dtw_batch).

The acceptance bar for the kernel layer is *bit-identity* with the
per-pair dynamic program — the wavefront evaluates the same cells with
the same operand order — and 1e-9 parity everywhere a technique stacks
the kernels (one-row and all-pairs matrices, sharded execution).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ErrorModel,
    InvalidParameterError,
    MultisampleUncertainTimeSeries,
    UncertainTimeSeries,
    UnsupportedQueryError,
    spawn,
)
from repro.datasets import generate_dataset
from repro.distances import (
    banded_dtw_from_costs,
    dtw_distance,
    dtw_distance_matrix,
    dtw_distance_paired,
    dtw_distance_stack,
    dtw_hits_paired,
    keogh_envelope,
    keogh_envelope_stack,
    lb_keogh,
    lb_kim,
    rolling_dtw_from_cost_fn,
    rolling_dtw_paired,
    rolling_dtw_stack,
)
from repro.distributions import NormalError, UniformError
from repro.dust import Dust
from repro.munich import Munich
from repro.perturbation import ConstantScenario
from repro.queries import (
    DustDtwTechnique,
    MunichDtwTechnique,
    QueryEngine,
    SimilaritySession,
)
from shard_blocks import sharded_knn, sharded_matrix

PARITY_TOL = 1e-9


# ---------------------------------------------------------------------------
# Kernel-level properties: batch ≡ per-pair over randomized shapes
# ---------------------------------------------------------------------------


class TestWavefrontKernel:
    def test_stack_matches_per_pair_randomized(self):
        """Property: random lengths/windows/stacks are bit-identical."""
        rng = np.random.default_rng(101)
        for _ in range(40):
            n = int(rng.integers(1, 28))
            m = int(rng.integers(1, 28))
            window = (
                None if rng.random() < 0.3 else int(rng.integers(0, 12))
            )
            stack = rng.normal(size=(int(rng.integers(1, 8)), m))
            query = rng.normal(size=n)
            batch = dtw_distance_stack(query, stack, window=window)
            reference = np.array(
                [dtw_distance(query, row, window=window) for row in stack]
            )
            assert np.array_equal(batch, reference)

    def test_paired_matches_per_pair_randomized(self):
        rng = np.random.default_rng(202)
        for _ in range(20):
            pairs = int(rng.integers(1, 10))
            n = int(rng.integers(1, 24))
            window = None if rng.random() < 0.3 else int(rng.integers(0, 9))
            x_stack = rng.normal(size=(pairs, n))
            y_stack = rng.normal(size=(pairs, n))
            batch = dtw_distance_paired(x_stack, y_stack, window=window)
            reference = np.array([
                dtw_distance(a, b, window=window)
                for a, b in zip(x_stack, y_stack)
            ])
            assert np.array_equal(batch, reference)

    def test_matrix_matches_per_pair(self):
        rng = np.random.default_rng(303)
        queries = rng.normal(size=(5, 15))
        candidates = rng.normal(size=(7, 15))
        matrix = dtw_distance_matrix(queries, candidates, window=3)
        for i, query in enumerate(queries):
            for j, candidate in enumerate(candidates):
                assert matrix[i, j] == dtw_distance(query, candidate, window=3)

    def test_zero_window_equals_euclidean(self):
        rng = np.random.default_rng(4)
        query = rng.normal(size=20)
        stack = rng.normal(size=(6, 20))
        batch = dtw_distance_stack(query, stack, window=0)
        euclid = np.sqrt(((stack - query) ** 2).sum(axis=1))
        np.testing.assert_allclose(batch, euclid, atol=1e-12)

    def test_identical_rows_are_zero(self):
        query = np.linspace(-1.0, 1.0, 30)
        stack = np.vstack([query, query])
        assert np.all(dtw_distance_stack(query, stack) == 0.0)

    def test_cost_tensor_shape_validation(self):
        with pytest.raises(InvalidParameterError):
            banded_dtw_from_costs(np.zeros((3, 4)))
        with pytest.raises(InvalidParameterError):
            banded_dtw_from_costs(np.zeros((3, 0, 4)))

    def test_empty_stack(self):
        assert banded_dtw_from_costs(np.zeros((0, 3, 3))).shape == (0,)

    def test_non_1d_query_rejected(self):
        with pytest.raises(InvalidParameterError):
            dtw_distance_stack(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_unpaired_stacks_rejected(self):
        with pytest.raises(InvalidParameterError):
            dtw_distance_paired(np.zeros((2, 3)), np.zeros((3, 3)))


class TestBoundStacks:
    def test_envelope_stack_matches_per_series(self):
        rng = np.random.default_rng(6)
        stack = rng.normal(size=(5, 17))
        for window in (0, 1, 4, 16, 40):
            lower, upper = keogh_envelope_stack(stack, window)
            for row, series in enumerate(stack):
                low_ref, up_ref = keogh_envelope(series, window)
                assert np.array_equal(lower[row], low_ref)
                assert np.array_equal(upper[row], up_ref)

    def test_envelope_negative_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            keogh_envelope_stack(np.zeros((2, 5)), -1)

    def test_bounds_bracket_dtw(self):
        """LB_Kim and LB_Keogh never exceed the banded DTW distance."""
        rng = np.random.default_rng(8)
        x_stack = rng.normal(size=(20, 16))
        y = rng.normal(size=16)
        y_stack = np.broadcast_to(y, x_stack.shape)
        for window in (1, 4):
            distances = dtw_distance_paired(x_stack, y_stack, window=window)
            kim = np.array([lb_kim(x, y) for x in x_stack])
            keogh = np.array([lb_keogh(x, y, window) for x in x_stack])
            assert np.all(kim <= distances + 1e-12)
            assert np.all(keogh <= distances + 1e-12)


class TestPrunedHits:
    def test_hits_match_exact_dtw(self):
        rng = np.random.default_rng(9)
        x_stack = rng.normal(size=(40, 18))
        y_stack = x_stack + 0.4 * rng.normal(size=x_stack.shape)
        for window in (None, 2, 6):
            distances = dtw_distance_paired(x_stack, y_stack, window=window)
            for epsilon in (
                0.0,
                float(np.min(distances)),
                float(np.median(distances)),
                float(np.max(distances)),
            ):
                hits = dtw_hits_paired(
                    x_stack, y_stack, epsilon, window=window
                )
                assert np.array_equal(hits, distances <= epsilon)

    def test_hits_with_shared_envelope(self):
        """Draws scattered around one candidate — the shape MUNICH-DTW
        evaluates — get the exact DTW's verdicts."""
        rng = np.random.default_rng(10)
        window = 3
        base = rng.normal(size=22)
        y_stack = base + 0.2 * rng.normal(size=(30, 22))
        x_stack = rng.normal(size=(30, 22))
        distances = dtw_distance_paired(x_stack, y_stack, window=window)
        epsilon = float(np.median(distances))
        hits = dtw_hits_paired(x_stack, y_stack, epsilon, window=window)
        assert np.array_equal(hits, distances <= epsilon)

    def test_negative_epsilon_rejected(self):
        with pytest.raises(InvalidParameterError):
            dtw_hits_paired(np.zeros((1, 3)), np.zeros((1, 3)), -1.0)


# ---------------------------------------------------------------------------
# Technique-level parity: DUST-DTW and MUNICH-DTW batch kernels
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def workload():
    exact = generate_dataset("CBF", seed=77, n_series=14, length=24)
    scenario = ConstantScenario("normal", 0.4)
    pdf = [
        scenario.apply(series, spawn(77, "pdf", index))
        for index, series in enumerate(exact)
    ]
    multisample = [
        scenario.apply_multisample(series, 3, spawn(77, "ms", index))
        for index, series in enumerate(exact)
    ]
    return pdf, multisample


class TestDustDtwTechnique:
    def test_profile_matches_per_pair(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique(window=2)
        profile = technique.distance_matrix([pdf[0]], pdf)[0]
        reference = np.array(
            [technique.distance(pdf[0], candidate) for candidate in pdf]
        )
        assert np.array_equal(profile, reference)

    def test_profile_matches_dust_engine(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique(window=3)
        dust = Dust()
        profile = technique.distance_matrix([pdf[1]], pdf)[0]
        reference = np.array([
            dust.dtw_distance(pdf[1], candidate, window=3)
            for candidate in pdf
        ])
        assert np.array_equal(profile, reference)

    def test_matrix_matches_stacked_profiles(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique(window=2)
        matrix = technique.distance_matrix(pdf[:5], pdf)
        for row, query in enumerate(pdf[:5]):
            np.testing.assert_array_equal(
                matrix[row], technique.distance_matrix([query], pdf)[0]
            )

    def test_mixed_error_models_grouped(self, workload):
        """Candidates with different reported models use their own table."""
        pdf, _ = workload
        mixed = list(pdf)
        swapped = UncertainTimeSeries(
            pdf[2].observations,
            ErrorModel.constant(UniformError(0.8), len(pdf[2])),
        )
        mixed[2] = swapped
        technique = DustDtwTechnique(window=2)
        profile = technique.distance_matrix([mixed[0]], mixed)[0]
        reference = np.array(
            [technique.distance(mixed[0], candidate) for candidate in mixed]
        )
        assert np.array_equal(profile, reference)

    @pytest.mark.parametrize("dp", ["stacked", "rolling"])
    def test_kernel_many_queries_mixed_models(self, workload, dp):
        """M > 1 queries with different error distributions against a
        mixed collection: every cell equals per-pair ``dtw_distance``, for
        the rolling kernel the technique runs and for the full-state DP
        (``banded_dtw_from_costs``) over each query's stacked ``dust²``
        tensor, the reference that kernel is held to."""
        pdf, _ = workload
        length = len(pdf[0])
        models = [NormalError(0.4), UniformError(0.8), NormalError(1.0)]
        mixed = [
            UncertainTimeSeries(
                series.observations,
                ErrorModel.constant(models[index % len(models)], length),
            )
            for index, series in enumerate(pdf[:6])
        ]
        queries = mixed[:3]
        technique = DustDtwTechnique(window=4)
        if dp == "rolling":
            matrix = technique.distance_matrix(queries, mixed)
        else:
            matrix = np.array([
                banded_dtw_from_costs(
                    np.stack([
                        technique.dust.table(
                            query.error_model[0], candidate.error_model[0]
                        ).dust_squared(
                            np.abs(
                                query.observations[:, None]
                                - candidate.observations[None, :]
                            )
                        )
                        for candidate in mixed
                    ]),
                    4,
                )
                for query in queries
            ])
        reference = np.array(
            [
                [
                    technique.dust.dtw_distance(query, candidate, window=4)
                    for candidate in mixed
                ]
                for query in queries
            ]
        )
        assert np.array_equal(matrix, reference)

    def test_unconstrained_window(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique()
        profile = technique.distance_matrix([pdf[0]], pdf[:6])[0]
        reference = np.array(
            [technique.distance(pdf[0], c) for c in pdf[:6]]
        )
        assert np.array_equal(profile, reference)

    @pytest.mark.parametrize("window", [0, 3, None])
    @pytest.mark.parametrize("n_candidates", [1, 5, 70])
    def test_rolling_kernel_parity(self, n_candidates, window):
        """The rolling ``dust²`` kernel is bit-identical to the per-pair
        program and to the full-state reference on the whole ``dust²``
        tensor — for a query shorter than its candidates, whose error
        models split the stack into two table groups."""
        rng = np.random.default_rng(100 + n_candidates)
        query_length, candidate_length = 12, 15
        query = UncertainTimeSeries(
            rng.normal(size=query_length),
            ErrorModel.constant(NormalError(1.0), query_length),
        )
        models = [NormalError(0.4), UniformError(0.8)]
        candidates = [
            UncertainTimeSeries(
                rng.normal(size=candidate_length),
                ErrorModel.constant(models[index % 2], candidate_length),
            )
            for index in range(n_candidates)
        ]
        technique = DustDtwTechnique(window=window)
        row = technique.distance_matrix([query], candidates)[0]
        per_pair = np.array([
            technique.dust.dtw_distance(query, candidate, window=window)
            for candidate in candidates
        ])
        full_state = np.array([
            banded_dtw_from_costs(
                technique.dust.table(
                    query.error_model[0], candidate.error_model[0]
                ).dust_squared(
                    np.abs(
                        query.observations[:, None]
                        - candidate.observations[None, :]
                    )
                )[None],
                window,
            )[0]
            for candidate in candidates
        ])
        assert np.array_equal(row, per_pair)
        assert np.array_equal(row, full_state)

    def test_negative_window_rejected(self):
        with pytest.raises(InvalidParameterError):
            DustDtwTechnique(window=-1)

    @pytest.mark.parametrize(
        "path", ["per-pair", "batch", "batch-query", "batch-candidate"]
    )
    def test_heterogeneous_error_models_rejected(self, path):
        """One table prices a DUST-DTW pair, so a series whose timestamps
        report different error distributions is refused on every path
        instead of being scored under timestamp 0's distribution alone."""
        rng = np.random.default_rng(16)
        split = ErrorModel([NormalError(0.2)] * 8 + [UniformError(2.0)] * 8)
        x = UncertainTimeSeries(rng.normal(size=16), split)
        y = UncertainTimeSeries(rng.normal(size=16), split)
        plain = UncertainTimeSeries(
            y.observations, ErrorModel.constant(NormalError(0.2), 16)
        )
        technique = DustDtwTechnique(window=3)
        calls = {
            "per-pair": lambda: Dust().dtw_distance(x, y, window=3),
            "batch": lambda: technique.distance_matrix([x], [x, y]),
            "batch-query": lambda: technique.distance_matrix([x], [plain]),
            "batch-candidate": lambda: technique.distance_matrix(
                [plain], [plain, y]
            ),
        }
        with pytest.raises(UnsupportedQueryError, match="homogeneous"):
            calls[path]()

    def test_session_knn(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique(window=2)
        session = SimilaritySession(pdf)
        result = session.queries().using(technique).knn(3)
        matrix = technique.distance_matrix(pdf, pdf)
        np.fill_diagonal(matrix, np.inf)
        expected = np.argsort(matrix, axis=1, kind="stable")[:, :3]
        assert np.array_equal(result.indices, expected)


class TestMunichDtwTechnique:
    def test_profile_matches_per_pair(self, workload):
        _, multisample = workload
        technique = MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=40, rng=9),
        )
        epsilon = 3.5
        profile = technique.probability_matrix(
            [multisample[0]], multisample, epsilon
        )[0]
        reference = np.array([
            technique.probability(multisample[0], candidate, epsilon)
            for candidate in multisample
        ])
        assert np.array_equal(profile, reference)

    def test_profile_matches_munich_engine(self, workload):
        _, multisample = workload
        munich = Munich(tau=0.5, method="montecarlo", n_samples=30, rng=4)
        technique = MunichDtwTechnique(window=3, munich=munich)
        epsilon = 2.0
        profile = technique.probability_matrix(
            [multisample[1]], multisample, epsilon
        )[0]
        reference = np.array([
            munich.dtw_probability(
                multisample[1], candidate, epsilon, window=3
            )
            for candidate in multisample
        ])
        assert np.array_equal(profile, reference)

    def test_bounds_off_matches(self, workload):
        _, multisample = workload
        munich = Munich(tau=0.5, method="montecarlo", n_samples=30, rng=4)
        bounded = MunichDtwTechnique(window=2, munich=munich)
        unbounded = MunichDtwTechnique(
            window=2, munich=munich, use_bounds=False
        )
        for epsilon in (0.5, 2.0, 8.0):
            np.testing.assert_array_equal(
                bounded.probability_matrix(
                    [multisample[2]], multisample, epsilon
                ),
                unbounded.probability_matrix(
                    [multisample[2]], multisample, epsilon
                ),
            )

    def test_extreme_epsilons_decided_by_bounds(self, workload):
        _, multisample = workload
        technique = MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=20, rng=1),
        )
        tiny = technique.probability_matrix(
            [multisample[0]], multisample, 1e-9
        )[0]
        assert np.all(tiny[1:] == 0.0)
        huge = technique.probability_matrix(
            [multisample[0]], multisample, 1e6
        )[0]
        assert np.all(huge == 1.0)

    def test_matrix_per_query_epsilons(self, workload):
        _, multisample = workload
        technique = MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=25, rng=2),
        )
        epsilons = np.linspace(1.0, 4.0, 4)
        matrix = technique.probability_matrix(
            multisample[:4], multisample, epsilons
        )
        for row in range(4):
            np.testing.assert_array_equal(
                matrix[row],
                technique.probability_matrix(
                    [multisample[row]], multisample, float(epsilons[row])
                )[0],
            )

    def test_generator_stream_matches_per_pair_loop(self, workload):
        """A Generator rng is consumed per cell in row-major cell order:
        the matrix equals a per-pair loop over a fresh generator of the
        same seed."""
        _, multisample = workload
        queries = multisample[:3]
        epsilons = np.array([2.0, 2.5, 3.0])

        def technique():
            return MunichDtwTechnique(
                window=2,
                munich=Munich(
                    tau=0.5,
                    method="montecarlo",
                    n_samples=25,
                    rng=np.random.default_rng(5),
                ),
                use_bounds=False,
                index_segments=None,
            )

        matrix = technique().probability_matrix(
            queries, multisample, epsilons
        )
        reference_technique = technique()
        reference = np.array([
            [
                reference_technique.probability(
                    query, candidate, float(epsilon)
                )
                for candidate in multisample
            ]
            for query, epsilon in zip(queries, epsilons)
        ])
        assert np.array_equal(matrix, reference)

    def test_ragged_collection_matches_per_pair(self):
        """Mixed samples per timestamp leave the engine without a
        samples tensor; the per-cell draws still equal the per-pair
        path."""
        rng = np.random.default_rng(12)
        series = [
            MultisampleUncertainTimeSeries(
                rng.normal(size=(10, 2 + index % 3))
            )
            for index in range(7)
        ]
        technique = MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=30, rng=6),
        )
        assert QueryEngine().materialize(series).samples_tensor() is None
        matrix = technique.probability_matrix(series[:3], series, 2.5)
        reference = np.array([
            [technique.probability(query, candidate, 2.5)
             for candidate in series]
            for query in series[:3]
        ])
        assert np.array_equal(matrix, reference)

    def test_mixed_query_shapes_match_per_pair(self, workload):
        """Queries with another sample count than the collection (and
        than each other) draw other choice indices; the gathered draws
        follow each query's shape."""
        _, multisample = workload
        rng = np.random.default_rng(13)
        length = len(multisample[0])
        queries = [
            MultisampleUncertainTimeSeries(rng.normal(size=(length, width)))
            for width in (3, 5, 5)
        ]
        technique = MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=30, rng=8),
        )
        for batch in (queries[:1], queries[1:], queries):
            matrix = technique.probability_matrix(batch, multisample, 3.0)
            reference = np.array([
                [technique.probability(query, candidate, 3.0)
                 for candidate in multisample]
                for query in batch
            ])
            assert np.array_equal(matrix, reference)

    def test_naive_method_falls_back(self):
        rng = np.random.default_rng(11)
        series = [
            MultisampleUncertainTimeSeries(rng.normal(size=(4, 2)))
            for _ in range(5)
        ]
        technique = MunichDtwTechnique(
            window=1, munich=Munich(tau=0.5, method="naive")
        )
        profile = technique.probability_matrix([series[0]], series, 1.5)[0]
        reference = np.array(
            [technique.probability(series[0], c, 1.5) for c in series]
        )
        np.testing.assert_allclose(profile, reference, atol=PARITY_TOL)

    def test_calibration_is_column0_euclidean(self, workload):
        _, multisample = workload
        technique = MunichDtwTechnique(window=2)
        profile = technique.calibration_matrix(
            [multisample[0]], multisample
        )[0]
        reference = np.array([
            np.linalg.norm(
                multisample[0].samples[:, 0] - candidate.samples[:, 0]
            )
            for candidate in multisample
        ])
        np.testing.assert_allclose(profile, reference, atol=PARITY_TOL)

    def test_negative_epsilon_rejected(self, workload):
        _, multisample = workload
        technique = MunichDtwTechnique(window=2)
        with pytest.raises(InvalidParameterError):
            technique.probability_matrix(
                [multisample[0]], multisample, -1.0
            )


# ---------------------------------------------------------------------------
# Shard-boundary parity: row/column blocks and the kNN merge
# ---------------------------------------------------------------------------


class TestShardParity:
    def test_dust_dtw_sharded_matrix(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique(window=2)
        full = technique.distance_matrix(pdf, pdf)
        sharded, _ = sharded_matrix(
            technique, "distance", pdf, pdf, row_block=5, col_block=4
        )
        assert np.max(np.abs(sharded - full)) <= PARITY_TOL

    def test_munich_dtw_sharded_matrix(self, workload):
        _, multisample = workload
        technique = MunichDtwTechnique(
            window=2,
            munich=Munich(tau=0.5, method="montecarlo", n_samples=25, rng=3),
        )
        epsilons = np.full(len(multisample), 2.5)
        full = technique.probability_matrix(
            multisample, multisample, epsilons
        )
        sharded, _ = sharded_matrix(
            technique,
            "probability",
            multisample,
            multisample,
            row_block=4,
            col_block=5,
            epsilon=epsilons,
        )
        assert np.max(np.abs(sharded - full)) <= PARITY_TOL

    def test_dust_dtw_sharded_knn(self, workload):
        pdf, _ = workload
        technique = DustDtwTechnique(window=2)
        session = SimilaritySession(pdf)
        expected = session.queries().using(technique).knn(4).indices
        indices, _, _ = sharded_knn(
            technique,
            pdf,
            pdf,
            4,
            row_block=5,
            col_block=3,
            exclude=np.arange(len(pdf), dtype=np.intp),
        )
        assert np.array_equal(indices, expected)


class TestRollingDiagonalKernel:
    """The O(B·n) three-diagonal state vs the full-state wavefront."""

    @pytest.mark.parametrize(
        "n,m,window",
        [(7, 7, None), (9, 9, 2), (6, 10, None), (12, 8, 5), (1, 1, None)],
    )
    def test_bit_identical_to_full_state(self, n, m, window):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(5, n))
        y = rng.normal(size=(5, m))
        costs = (x[:, :, None] - y[:, None, :]) ** 2
        reference = banded_dtw_from_costs(costs, window)
        rolled = rolling_dtw_paired(x, y, window=window)
        assert np.array_equal(reference, rolled)

    def test_stack_form_matches(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=11)
        candidates = rng.normal(size=(6, 11))
        assert np.array_equal(
            rolling_dtw_stack(x, candidates, window=3),
            np.array([dtw_distance(x, row, window=3) for row in candidates]),
        )

    def test_bit_identical_to_per_pair_at_long_length(self):
        # The public paired entry point always runs the rolling kernel;
        # spot-check a long pair (where the full state would be at its
        # most expensive) against the per-pair Python DP.
        rng = np.random.default_rng(5)
        length = 512
        x = rng.normal(size=(1, length))
        y = rng.normal(size=(1, length))
        rolled = dtw_distance_paired(x, y, window=8)
        assert rolled[0] == dtw_distance(x[0], y[0], window=8)

    def test_empty_series_raises(self):
        with pytest.raises(InvalidParameterError):
            rolling_dtw_from_cost_fn(1, 0, 4, lambda rows, cols: None)

    def test_empty_stack_short_circuits(self):
        def cost_fn(rows, cols):  # pragma: no cover - never called
            raise AssertionError("no pairs, no costs")

        assert rolling_dtw_from_cost_fn(0, 4, 4, cost_fn).shape == (0,)

    def test_cost_fn_form_supports_custom_costs(self):
        # The generic entry point reproduces squared-difference DTW when
        # handed the same per-diagonal costs in the (len(rows), B) layout.
        rng = np.random.default_rng(23)
        x = rng.normal(size=(3, 9))
        y = rng.normal(size=(3, 9))

        def cost_fn(rows, cols):
            residual = x.T[rows] - y.T[cols]
            assert residual.shape == (rows.size, 3)
            return residual * residual

        rolled = rolling_dtw_from_cost_fn(3, 9, 9, cost_fn, window=2)
        reference = dtw_distance_paired(x, y, window=2)
        assert np.array_equal(rolled, reference)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_rolling_equals_full_state_property(self, data):
        """Property: for any stack size, unequal lengths and a band that
        is absent, zero-width or wider than both series, the rolling
        kernel is ``array_equal`` to the full-state reference, and
        ``dtw_hits_paired`` is the exact DP verdict per row."""
        n_pairs = data.draw(st.integers(min_value=1, max_value=40))
        n = data.draw(st.integers(min_value=1, max_value=24))
        m = data.draw(
            st.integers(min_value=1, max_value=24).filter(lambda v: v != n)
        )
        window = data.draw(
            st.one_of(
                st.none(),
                st.just(0),
                st.integers(min_value=max(n, m), max_value=max(n, m) + 4),
            )
        )
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n_pairs, n))
        y = rng.normal(size=(n_pairs, m))
        reference = banded_dtw_from_costs(
            (x[:, :, None] - y[:, None, :]) ** 2, window
        )
        rolled = rolling_dtw_paired(x, y, window=window)
        assert np.array_equal(rolled, reference)
        epsilon = rng.uniform(0.0, 1.2, size=n_pairs) * reference
        epsilon[::3] = reference[::3]  # ties sit exactly on the threshold
        hits = dtw_hits_paired(x, y, epsilon, window=window)
        assert np.array_equal(
            hits, dtw_distance_paired(x, y, window=window) <= epsilon
        )

    def test_dust_dtw_profile_long_series_parity(self):
        # DUST-DTW's rolling kernel on the longest series GunPoint
        # generates (it tops out at 150 timestamps; per-pair DTW at 512
        # takes seconds per pair), against the per-pair anchor.
        exact = generate_dataset("GunPoint", seed=29, n_series=3, length=512)
        scenario = ConstantScenario("normal", 0.4)
        pdf = [
            scenario.apply(series, spawn(29, "pdf", index))
            for index, series in enumerate(exact)
        ]
        technique = DustDtwTechnique(window=6)
        profile = technique.distance_matrix([pdf[0]], pdf)[0]
        expected = np.array(
            [
                technique.dust.dtw_distance(pdf[0], candidate, window=6)
                for candidate in pdf
            ]
        )
        assert np.array_equal(profile, expected)
