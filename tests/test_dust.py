"""Unit tests for repro.dust (phi, tables, distance)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    ErrorModel,
    LengthMismatchError,
    UncertainTimeSeries,
    make_rng,
)
from repro.distances import euclidean
from repro.distributions import (
    ExponentialError,
    NormalError,
    UniformError,
    with_tails,
)
from repro.dust import (
    DEFAULT_TABLE_POINTS,
    Dust,
    DustTable,
    dust_table,
    phi,
    phi_normal_closed_form,
    phi_numeric,
    phi_support_radius,
)
from repro.queries import DustDtwTechnique, DustTechnique


def _uncertain(values, distribution):
    values = np.asarray(values, dtype=np.float64)
    model = ErrorModel.constant(distribution, values.size)
    return UncertainTimeSeries(values, model)


class TestPhi:
    def test_numeric_matches_normal_closed_form(self):
        grid = np.linspace(0.0, 4.0, 21)
        numeric = phi_numeric(grid, NormalError(0.4), NormalError(0.7))
        closed = phi_normal_closed_form(grid, 0.4, 0.7)
        assert np.allclose(numeric, closed, rtol=1e-6)

    def test_dispatch_uses_closed_form_for_normals(self):
        grid = np.array([0.0, 1.0])
        assert np.allclose(
            phi(grid, NormalError(0.3), NormalError(0.3)),
            phi_normal_closed_form(grid, 0.3, 0.3),
        )

    def test_phi_maximal_at_zero_for_symmetric_errors(self):
        grid = np.linspace(0.0, 3.0, 31)
        for dist in (NormalError(0.5), UniformError(0.5)):
            values = phi(grid, dist, dist)
            assert values[0] == values.max()

    def test_phi_symmetric_in_sign(self):
        # Exact mathematically; tolerance covers trapezoid error at the
        # exponential pdf's discontinuous left edge.
        dist = ExponentialError(0.5)
        left = phi_numeric(np.array([-1.2]), dist, dist)
        right = phi_numeric(np.array([1.2]), dist, dist)
        assert left == pytest.approx(right, rel=5e-3)

    def test_uniform_phi_zero_beyond_support(self):
        """The Section 4.2.1 degeneracy: bounded supports make phi vanish."""
        dist = UniformError(0.5)
        radius = phi_support_radius(dist, dist)
        outside = phi_numeric(np.array([radius * 1.05]), dist, dist)
        assert outside.item() == 0.0

    def test_phi_integrates_to_one_over_d(self):
        """phi is the density of e_x - e_y, so it integrates to 1."""
        dist_x, dist_y = NormalError(0.4), UniformError(0.6)
        grid = np.linspace(-8.0, 8.0, 4001)
        values = phi_numeric(grid, dist_x, dist_y)
        assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-3)

    def test_support_radius_covers_both(self):
        radius = phi_support_radius(UniformError(1.0), ExponentialError(0.5))
        assert radius > UniformError(1.0).half_width

    @pytest.mark.parametrize(
        "error_x, error_y",
        [
            (UniformError(1.0), UniformError(0.4)),
            (ExponentialError(1.0), ExponentialError(0.4)),
            (UniformError(1.0), NormalError(0.4)),
        ],
        ids=["uniform", "exponential", "uniform-normal"],
    )
    def test_blocked_quadrature_equals_row_by_row(self, error_x, error_y):
        """φ over a table's d-grid does not depend on how the d-values are
        blocked: the figure tables stay exact whatever the block budget."""
        tailed_x, tailed_y = with_tails(error_x), with_tails(error_y)
        d = np.linspace(
            0.0, phi_support_radius(tailed_x, tailed_y), DEFAULT_TABLE_POINTS
        )
        blocked = phi_numeric(d, tailed_x, tailed_y, grid_points=4001)
        rows = np.concatenate([
            phi_numeric(d[i:i + 1], tailed_x, tailed_y, grid_points=4001)
            for i in range(d.size)
        ])
        assert np.array_equal(blocked, rows)


class TestDustTable:
    def test_zero_difference_is_zero_distance(self):
        """Reflexivity: the constant k makes dust(0) = 0."""
        table = DustTable(NormalError(0.4), NormalError(0.4))
        assert float(table.dust(np.array(0.0))) == pytest.approx(0.0, abs=1e-9)

    def test_monotone_in_difference(self):
        table = DustTable(NormalError(0.4), NormalError(0.4))
        grid = np.linspace(0.0, 5.0, 101)
        values = table.dust(grid)
        assert np.all(np.diff(values) >= -1e-9)

    def test_normal_closed_form_value(self):
        """dust(d)^2 = d^2 / (2 (s_x^2 + s_y^2)) for normal errors."""
        table = DustTable(NormalError(0.3), NormalError(0.4))
        d = np.array([0.5, 1.0, 2.0])
        expected = d / np.sqrt(2.0 * (0.09 + 0.16))
        assert np.allclose(table.dust(d), expected, rtol=1e-3)

    def test_extrapolation_beyond_radius_continues(self):
        table = DustTable(NormalError(0.2), NormalError(0.2))
        inside = float(table.dust(np.array(table.radius * 0.9)))
        outside = float(table.dust(np.array(table.radius * 1.5)))
        assert outside > inside

    def test_uniform_with_workaround_finite(self):
        table = DustTable(UniformError(0.4), UniformError(0.4),
                          tail_workaround=True)
        values = table.dust(np.linspace(0.0, 10.0, 50))
        assert np.all(np.isfinite(values))

    def test_uniform_without_workaround_capped(self):
        """Without tails, phi hits the floor and dust saturates (finite)."""
        table = DustTable(UniformError(0.4), UniformError(0.4),
                          tail_workaround=False)
        far = table.dust(np.array([3.0, 5.0]))
        assert np.all(np.isfinite(far))

    def test_symmetry_of_identical_pair(self):
        dist = ExponentialError(0.6)
        table = DustTable(dist, dist)
        d = np.linspace(0.0, 2.0, 9)
        assert np.allclose(table.dust(d), table.dust(-d))


class TestDustTableStore:
    def test_tables_shared_by_value(self):
        a = dust_table(NormalError(0.4), NormalError(0.4), 2048, True)
        b = dust_table(NormalError(0.4), NormalError(0.4), 2048, True)
        assert a is b
        assert dust_table.cache_info().currsize >= 1

    def test_distinct_pairs_distinct_tables(self):
        a = dust_table(NormalError(0.4), NormalError(0.4), 2048, True)
        b = dust_table(NormalError(0.4), NormalError(0.8), 2048, True)
        assert a is not b

    def test_clear(self):
        dust_table(NormalError(0.4), NormalError(0.4), 2048, True)
        dust_table.cache_clear()
        assert dust_table.cache_info().currsize == 0
        misses = dust_table.cache_info().misses
        dust_table(NormalError(0.4), NormalError(0.4), 2048, True)
        assert dust_table.cache_info().misses == misses + 1

    def test_one_table_per_pair_across_dust_and_techniques(self):
        pair = (UniformError(0.6), ExponentialError(0.3))
        tables = [
            Dust().table(*pair),
            Dust().table(*pair),
            DustTechnique().dust.table(*pair),
            DustDtwTechnique(window=2).dust.table(*pair),
        ]
        assert all(table is tables[0] for table in tables)

    def test_settings_key_their_own_tables(self):
        pair = (UniformError(0.6), UniformError(0.6))
        default = Dust().table(*pair)
        assert Dust(tail_workaround=False).table(*pair) is not default
        assert Dust(table_points=1024).table(*pair) is not default

    def test_stored_table_equals_direct_build(self):
        """The store keys the *ordered* pair: its table is the one a direct
        build of that pair gives, value for value."""
        error_x, error_y = UniformError(1.0), NormalError(0.4)
        d = np.linspace(0.0, 8.0, 301)
        stored = Dust().table(error_x, error_y)
        assert np.array_equal(
            stored.dust_squared(d), DustTable(error_x, error_y).dust_squared(d)
        )
        assert not np.array_equal(
            stored.dust_squared(d), DustTable(error_y, error_x).dust_squared(d)
        )

    def test_stored_table_is_read_only(self):
        table = Dust().table(NormalError(0.4), NormalError(0.4))
        with pytest.raises(ValueError):
            table._dust_squared[0] = 1.0

    def test_concurrent_misses_agree(self):
        """8 threads that miss one key at once all get equal tables, and
        the key is a hit afterwards."""
        key = (UniformError(0.8137), ExponentialError(0.2917), 64, True)
        results = [None] * 8
        barrier = threading.Barrier(len(results))

        def ask(slot):
            barrier.wait(timeout=30)
            results[slot] = dust_table(*key)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=ask, args=(slot,))
                for slot in range(len(results))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        d = np.linspace(0.0, 6.0, 97)
        reference = DustTable(*key[:2], n_points=64).dust_squared(d)
        for table in results:
            assert np.array_equal(table.dust_squared(d), reference)
        hits = dust_table.cache_info().hits
        assert dust_table(*key) in results
        assert dust_table.cache_info().hits == hits + 1


class TestDustDistance:
    def test_equivalent_to_scaled_euclidean_for_normal(self):
        """Paper Section 2.3: for normal errors DUST ∝ Euclidean."""
        rng = make_rng(0)
        x = _uncertain(rng.normal(size=50), NormalError(0.5))
        y = _uncertain(rng.normal(size=50), NormalError(0.5))
        dust = Dust()
        expected = euclidean(x.observations, y.observations) / np.sqrt(
            2.0 * (0.25 + 0.25)
        )
        assert dust.distance(x, y) == pytest.approx(expected, rel=1e-3)

    def test_reflexive(self, uncertain_pair):
        x, _ = uncertain_pair
        assert Dust().distance(x, x) == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_for_identical_models(self, uncertain_pair):
        x, y = uncertain_pair
        dust = Dust()
        assert dust.distance(x, y) == pytest.approx(dust.distance(y, x))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            Dust().distance(
                _uncertain([1.0], NormalError(0.3)),
                _uncertain([1.0, 2.0], NormalError(0.3)),
            )

    def test_heterogeneous_models_grouped_correctly(self):
        """Per-timestamp tables: verify against point-wise evaluation."""
        rng = make_rng(1)
        distributions_x = [NormalError(0.3), UniformError(0.5), NormalError(0.3)]
        distributions_y = [NormalError(0.3), UniformError(0.5), NormalError(0.8)]
        x = UncertainTimeSeries(rng.normal(size=3), ErrorModel(distributions_x))
        y = UncertainTimeSeries(rng.normal(size=3), ErrorModel(distributions_y))
        dust = Dust()
        total = sum(
            dust.point_dust(
                x.observations[i], y.observations[i],
                distributions_x[i], distributions_y[i],
            ) ** 2
            for i in range(3)
        )
        assert dust.distance(x, y) == pytest.approx(np.sqrt(total), rel=1e-9)

    def test_down_weights_high_sigma_timestamps(self):
        """A big difference at a noisy timestamp matters less than the same
        difference at a precise timestamp — DUST's whole point."""
        dust = Dust()
        noisy = dust.point_dust(0.0, 2.0, NormalError(1.5), NormalError(1.5))
        precise = dust.point_dust(0.0, 2.0, NormalError(0.2), NormalError(0.2))
        assert noisy < precise

    def test_mixed_error_advantage_mechanism(self):
        """With correct per-timestamp sigma knowledge, DUST discounts exactly
        the timestamps that were heavily perturbed (Figure 8 mechanism)."""
        rng = make_rng(2)
        n = 60
        base = np.zeros(n)
        stds = np.where(np.arange(n) < n // 5, 1.5, 0.2)
        distributions = [NormalError(float(s)) for s in stds]
        model = ErrorModel(distributions)
        x = UncertainTimeSeries(base + model.sample(rng), model)
        y = UncertainTimeSeries(base + model.sample(rng), model)
        profile = Dust().dust_squared_profile(x, y)
        # Noisy prefix contributes less per unit squared difference.
        observed_sq = (x.observations - y.observations) ** 2
        ratio_noisy = profile[: n // 5].sum() / observed_sq[: n // 5].sum()
        ratio_precise = profile[n // 5:].sum() / observed_sq[n // 5:].sum()
        assert ratio_noisy < ratio_precise / 10.0

    def test_dtw_variant_leq_pointwise(self):
        """DUST-DTW warps, so it can only reduce the aggregate cost."""
        rng = make_rng(3)
        x = _uncertain(np.sin(np.linspace(0, 6, 25)), NormalError(0.4))
        y = _uncertain(np.sin(np.linspace(0.4, 6.4, 25)), NormalError(0.4))
        dust = Dust()
        assert dust.dtw_distance(x, y) <= dust.distance(x, y) + 1e-9

    def test_dtw_variant_reflexive(self, uncertain_pair):
        x, _ = uncertain_pair
        assert Dust().dtw_distance(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_repr_names_table_settings(self):
        assert repr(Dust(tail_workaround=False)) == (
            "Dust(table_points=2048, tail_workaround=False)"
        )
