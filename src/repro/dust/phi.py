"""DUST's φ similarity function (paper Section 2.3, Equation 12).

φ measures "the probability that the true (unknown) values behind two
observations are equal", as a density over the observed difference.  With
observation model ``x = r(x) + e_x`` and the DUST paper's uniform prior on
true values, Bayes reduces φ to the cross-correlation of the two error
densities evaluated at the observed difference ``d = x - y``:

    φ(d) = ∫ f_x(e) · f_y(e - d) de

(the density of ``e_x - e_y`` at ``d``).  Two important analytic cases:

* both errors normal with stds ``s_x, s_y`` → φ is the ``N(0, s_x²+s_y²)``
  density, hence ``dust(d)² = d² / (2 (s_x²+s_y²))`` and DUST is a monotone
  transform of Euclidean — the equivalence the paper states;
* both errors uniform → φ has bounded support and *is exactly zero* for
  large ``d``, the degeneracy discussed in Section 4.2.1.

For everything else φ is integrated numerically: a trapezoid rule on a
fixed, uniform grid over ``error_x``'s support (:func:`phi_numeric`).
"""

from __future__ import annotations

import math

import numpy as np

from ..core import MATRIX_BLOCK_ELEMENTS
from ..distributions.base import ErrorDistribution
from ..distributions.normal import NormalError

#: Grid points for the numeric cross-correlation.  Densities with jump
#: discontinuities (uniform edges, the exponential's left edge) dominate the
#: trapezoid error.  Measured against a 400,001-point evaluation over a DUST
#: table's 2,048 d-values, on cells where that reference exceeds 1e-12 of
#: its maximum, 16,001 points leave a max relative error of 7–10% on
#: tailed-uniform pairs (largest near the edge of the combined uniform
#: support), 0.4–0.7% on tailed exponential and 0.4–1.0% on tailed
#: uniform × normal.  Converging φ is item 2 of ROADMAP.md.
_GRID_POINTS = 16001


def phi_normal_closed_form(
    d: np.ndarray, std_x: float, std_y: float
) -> np.ndarray:
    """φ for two normal errors: the ``N(0, std_x² + std_y²)`` density."""
    d = np.asarray(d, dtype=np.float64)
    combined_variance = std_x * std_x + std_y * std_y
    normalizer = 1.0 / math.sqrt(2.0 * math.pi * combined_variance)
    return normalizer * np.exp(-0.5 * d * d / combined_variance)


def phi_numeric(
    d: np.ndarray,
    error_x: ErrorDistribution,
    error_y: ErrorDistribution,
    grid_points: int = _GRID_POINTS,
) -> np.ndarray:
    """φ via trapezoid integration of ``∫ f_x(e) f_y(e - d) de``.

    The integration grid covers ``error_x``'s support (where the first
    factor is non-zero); vectorized over all requested ``d`` values at once.
    """
    d = np.atleast_1d(np.asarray(d, dtype=np.float64))
    low_x, high_x = error_x.support()
    grid = np.linspace(low_x, high_x, grid_points)
    fx = error_x.pdf(grid)
    # Evaluate f_y at (e - d) in blocks of d-rows sized to the L2 budget:
    # the pdf (a tailed mixture makes several passes), the product and the
    # trapezoid sweep each block a dozen times, and an L2-resident block
    # keeps those sweeps out of DRAM.  Each row's arithmetic is the same
    # whatever the block height, so φ does not depend on the budget.
    out = np.empty(d.size)
    rows = max(1, MATRIX_BLOCK_ELEMENTS // grid_points)
    for start in range(0, d.size, rows):
        block = d[start:start + rows]
        fy = error_y.pdf(grid[None, :] - block[:, None])
        out[start:start + rows] = np.trapezoid(fx[None, :] * fy, grid, axis=1)
    return out


def phi(
    d: np.ndarray,
    error_x: ErrorDistribution,
    error_y: ErrorDistribution,
    grid_points: int = _GRID_POINTS,
) -> np.ndarray:
    """φ with automatic dispatch to the normal closed form when possible."""
    if isinstance(error_x, NormalError) and isinstance(error_y, NormalError):
        return phi_normal_closed_form(d, error_x.std, error_y.std)
    return phi_numeric(d, error_x, error_y, grid_points=grid_points)


def phi_support_radius(
    error_x: ErrorDistribution, error_y: ErrorDistribution
) -> float:
    """Radius beyond which φ is (numerically) zero.

    φ(d) can only be non-zero when the supports of ``e_x`` and ``e_y - d``
    overlap, i.e. ``|d| <= high_x - low_y`` / ``high_y - low_x`` bounds.
    """
    low_x, high_x = error_x.support()
    low_y, high_y = error_y.support()
    return max(abs(high_x - low_y), abs(high_y - low_x))
