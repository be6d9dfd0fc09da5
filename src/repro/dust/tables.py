"""DUST lookup tables (paper Sections 2.3 and 4.2.1).

Evaluating ``dust(x, y) = sqrt(-log φ(|x-y|) + log φ(0))`` requires the φ
integral for every point pair — far too slow to recompute per comparison.
The original DUST implementation precomputes *lookup tables*; we do the
same: a :class:`DustTable` holds ``dust`` values sampled on a dense grid of
observed differences for one ``(error_x, error_y)`` pair, with linear
interpolation in between and linear-slope extrapolation beyond.

Degenerate φ (paper Section 4.2.1): for bounded error supports (uniform),
``φ(d) = 0`` for large ``d`` and the logarithm blows up.  Two mitigations,
both from the paper, are applied:

* ``tail_workaround=True`` mixes a small wide-normal tail into bounded
  distributions before integrating ("adding two tails to the uniform
  error, so that the error probability density function is never exactly
  zero");
* φ is floored at a tiny positive value, capping ``dust`` at a large but
  finite constant (the paper observes the workaround "did not completely
  solve the problem" — the floor guarantees a total order regardless).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..core.errors import InvalidParameterError
from ..distributions.base import ErrorDistribution
from ..distributions.mixture import with_tails
from ..distributions.normal import NormalError
from ..distributions.uniform import UniformError
from .phi import phi, phi_support_radius

#: Floor applied to φ before taking logs; dust² is capped at -log(floor)+log φ(0).
PHI_FLOOR = 1e-30

#: Default number of grid samples per table.
DEFAULT_TABLE_POINTS = 2048


class DustTable:
    """``dust`` values on a grid of absolute observed differences.

    The table covers ``|d| ∈ [0, radius]`` where ``radius`` spans the
    combined error supports; beyond it, values continue with the final
    slope (the normal closed form is exactly quadratic in ``d``, so the
    extrapolation regime is reached only for extreme outliers).
    """

    def __init__(
        self,
        error_x: ErrorDistribution,
        error_y: ErrorDistribution,
        n_points: int = DEFAULT_TABLE_POINTS,
        tail_workaround: bool = True,
    ) -> None:
        if n_points < 16:
            raise InvalidParameterError(f"n_points must be >= 16, got {n_points}")
        self.error_x = error_x
        self.error_y = error_y
        effective_x, effective_y = error_x, error_y
        if tail_workaround:
            effective_x = _maybe_add_tails(error_x)
            effective_y = _maybe_add_tails(error_y)
        radius = phi_support_radius(effective_x, effective_y)
        self._grid = np.linspace(0.0, radius, n_points)
        # The grid is uniform, so lookups use direct index arithmetic
        # instead of np.interp's per-point binary search (the hot path of
        # the batch DUST kernels — see dust_squared()).
        self._step = radius / (n_points - 1)
        # A 4001-point integration grid keeps the table values within
        # ~0.3% even at pdf discontinuities, at a quarter of the default
        # cost — tables are built once per distribution pair but for many
        # pairs under mixed-error scenarios.
        phi_values = np.maximum(
            phi(self._grid, effective_x, effective_y, grid_points=4001),
            PHI_FLOOR,
        )
        phi_zero = float(phi_values[0])
        # dust² = -log φ(d) + log φ(0)  (the reflexivity constant k).
        dust_squared = -np.log(phi_values) + np.log(phi_zero)
        # φ(0) maximizes φ for symmetric unimodal errors; guard tiny negative
        # values from numeric integration noise.
        self._dust_squared = np.maximum(dust_squared, 0.0)
        self._slope = self._tail_slope()

    def _tail_slope(self) -> float:
        """Slope of dust² per unit d at the end of the grid (extrapolation)."""
        if self._grid[-1] <= 0.0:
            return 0.0
        last, previous = self._dust_squared[-1], self._dust_squared[-2]
        step = self._grid[-1] - self._grid[-2]
        return max((last - previous) / step, 0.0)

    @property
    def radius(self) -> float:
        """Largest tabulated |difference|."""
        return float(self._grid[-1])

    def dust_squared(self, difference: np.ndarray) -> np.ndarray:
        """``dust(d)²`` for absolute differences ``d`` (vectorized).

        Linear interpolation on the uniform grid via direct indexing —
        ``O(1)`` per point with no search, which is what keeps whole
        ``(N, n)`` difference-matrix lookups cheap.  Beyond the grid the
        value continues with the final slope.
        """
        d = np.abs(np.asarray(difference, dtype=np.float64))
        if self._step <= 0.0:
            inside = np.full(d.shape, self._dust_squared[0])
            return inside + self._slope * d
        position = d / self._step
        # NaN differences must propagate as NaN results (np.interp's
        # behaviour), not crash the integer cast below.
        left = np.clip(
            np.nan_to_num(position, nan=0.0), 0.0, len(self._grid) - 2
        ).astype(np.intp)
        fraction = np.clip(position - left, 0.0, 1.0)
        values = self._dust_squared
        inside = values[left] + fraction * (values[left + 1] - values[left])
        overshoot = np.maximum(d - self.radius, 0.0)
        return inside + self._slope * overshoot

    def dust(self, difference: np.ndarray) -> np.ndarray:
        """``dust(d)`` for absolute differences ``d`` (vectorized)."""
        return np.sqrt(self.dust_squared(difference))

    def dust_squared_sum(self, differences: np.ndarray) -> np.ndarray:
        """``dust(d)².sum(axis=-1)`` fused for the batch matrix kernels.

        Numerically equivalent to ``self.dust_squared(differences)``
        followed by the sum, but with in-place arithmetic and the NaN /
        beyond-grid handling gated on whether the block actually needs
        them — the passes that dominate all-pairs ``(M, N, n)`` lookups.
        """
        d = np.abs(np.asarray(differences, dtype=np.float64))
        if self._step <= 0.0:
            flat = np.full(d.shape[:-1], self._dust_squared[0] * d.shape[-1])
            return flat + self._slope * d.sum(axis=-1)
        position = np.divide(d, self._step, out=d)
        top = np.float64(len(self._grid) - 1)
        peak = position.max() if position.size else 0.0
        if np.isnan(peak):
            # Rare: fall back to the NaN-propagating scalar-grid path.
            return self.dust_squared(differences).sum(axis=-1)
        # int32 indices halve the gather-index traffic; positions are
        # clamped to the grid *before* the cast, so overflow is impossible.
        left = np.minimum(position, top - 1.0).astype(np.int32)
        values = self._dust_squared
        beyond_grid = peak > top
        if beyond_grid:
            # Keep `position` intact for the extrapolation term below.
            fraction = np.clip(position - left, 0.0, 1.0)
        else:
            fraction = position
            fraction -= left
            np.clip(fraction, 0.0, 1.0, out=fraction)
        interpolated = values[1:][left]  # values[left + 1], no index temp
        anchor = values[left]
        interpolated -= anchor
        interpolated *= fraction
        interpolated += anchor
        result = interpolated.sum(axis=-1)
        if beyond_grid:
            overshoot = np.maximum(position - top, 0.0)
            result += (self._slope * self._step) * overshoot.sum(axis=-1)
        return result

    def __repr__(self) -> str:
        return (
            f"DustTable({self.error_x!r}, {self.error_y!r}, "
            f"radius={self.radius:.3g})"
        )


class DustTableCache:
    """Keyed cache of :class:`DustTable` objects.

    Error distributions are value objects (equal by family+parameters), so
    a table built for ``(normal σ=0.4, normal σ=0.4)`` is shared by every
    timestamp and every series using that error model — the dominant case
    in the paper's experiments, where at most a handful of distinct
    distributions appear per run.
    """

    def __init__(
        self,
        n_points: int = DEFAULT_TABLE_POINTS,
        tail_workaround: bool = True,
    ) -> None:
        self.n_points = n_points
        self.tail_workaround = tail_workaround
        self._tables: Dict[
            Tuple[ErrorDistribution, ErrorDistribution], DustTable
        ] = {}

    def get(
        self, error_x: ErrorDistribution, error_y: ErrorDistribution
    ) -> DustTable:
        """Fetch (building on first use) the table for an error pair."""
        key = (error_x, error_y)
        table = self._tables.get(key)
        if table is None:
            table = DustTable(
                error_x,
                error_y,
                n_points=self.n_points,
                tail_workaround=self.tail_workaround,
            )
            self._tables[key] = table
            # dust is symmetric in the pair for identical families; the
            # reversed key reuses the same table when distributions match.
            if error_x == error_y:
                self._tables[(error_y, error_x)] = table
        return table

    def __len__(self) -> int:
        return len(self._tables)

    def clear(self) -> None:
        """Drop all cached tables."""
        self._tables.clear()


def _maybe_add_tails(distribution: ErrorDistribution) -> ErrorDistribution:
    """Apply the paper's tail workaround to bounded-support distributions.

    Normal errors are untouched (unbounded already); uniform errors — the
    family the paper diagnoses — get the mixture tails.  Other bounded or
    semi-bounded families (exponential has a hard left edge) are also
    tailed, which only ever *adds* support.
    """
    if isinstance(distribution, NormalError):
        return distribution
    if isinstance(distribution, UniformError):
        return with_tails(distribution)
    low, high = distribution.support()
    if np.isfinite(low) or np.isfinite(high):
        return with_tails(distribution)
    return distribution
