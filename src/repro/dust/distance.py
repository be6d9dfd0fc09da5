"""The DUST distance (paper Section 2.3, Equation 13).

``DUST(X, Y) = sqrt( Σ_i dust(x_i, y_i)² )`` where the per-point
``dust(x, y) = sqrt(-log φ(|x-y|) - k)``, ``k = -log φ(0)``.  Unlike MUNICH
and PROUD, DUST is a plain real-valued distance: it plugs into any mining
algorithm for certain time series, including DTW (Section 3.2), which
:meth:`Dust.dtw_distance` provides.

DUST consumes the *reported* error model of each series — per-timestamp
distributions, so mixed errors (Figures 8–9) are handled natively.  When
the reported model is wrong (Figure 10), DUST degrades to Euclidean-level
accuracy; the distance itself cannot detect that.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.errors import LengthMismatchError, UnsupportedQueryError
from ..core.uncertain import UncertainTimeSeries
from ..distances.dtw import dtw_distance
from ..distributions.base import ErrorDistribution
from .tables import DEFAULT_TABLE_POINTS, DustTable, dust_table

#: What both DUST-DTW paths (per pair and batch) raise for a series
#: whose timestamps report different error distributions.
HETEROGENEOUS_DTW_MESSAGE = (
    "DUST-DTW requires homogeneous error models: every timestamp of a "
    "series must report the same error distribution"
)


class Dust:
    """DUST distance over the process-wide lookup-table store.

    Tables come from :func:`~repro.dust.tables.dust_table`, so every
    ``Dust`` with the same settings shares them: each error pair is
    built once per process.

    Parameters
    ----------
    table_points:
        Grid samples per lookup table.
    tail_workaround:
        Mix the paper's wide-normal tails into bounded error supports
        before integrating φ (Section 4.2.1).
    """

    name = "DUST"

    def __init__(
        self,
        table_points: int = DEFAULT_TABLE_POINTS,
        tail_workaround: bool = True,
    ) -> None:
        self.table_points = table_points
        self.tail_workaround = tail_workaround

    def table(
        self, error_x: ErrorDistribution, error_y: ErrorDistribution
    ) -> DustTable:
        """The lookup table for one ordered error pair."""
        return dust_table(
            error_x, error_y, self.table_points, self.tail_workaround
        )

    def point_dust(
        self,
        x_value: float,
        y_value: float,
        error_x: ErrorDistribution,
        error_y: ErrorDistribution,
    ) -> float:
        """Per-point ``dust(x, y)`` for one observation pair."""
        table = self.table(error_x, error_y)
        return float(table.dust(abs(x_value - y_value)))

    def dust_squared_profile(
        self, x: UncertainTimeSeries, y: UncertainTimeSeries
    ) -> np.ndarray:
        """Vector of per-timestamp ``dust²`` values (Equation 13's summands)."""
        if len(x) != len(y):
            raise LengthMismatchError(len(x), len(y), "DUST distance")
        differences = np.abs(x.observations - y.observations)
        x_model, y_model = x.error_model, y.error_model
        if x_model.is_homogeneous and y_model.is_homogeneous:
            table = self.table(x_model[0], y_model[0])
            return table.dust_squared(differences)
        # Heterogeneous: group timestamps by their (error_x, error_y) pair
        # so each distinct table is applied vectorized.
        out = np.empty(len(x))
        pair_positions: dict = {}
        for index, (dist_x, dist_y) in enumerate(zip(x_model, y_model)):
            pair_positions.setdefault((dist_x, dist_y), []).append(index)
        for (dist_x, dist_y), positions in pair_positions.items():
            table = self.table(dist_x, dist_y)
            idx = np.asarray(positions, dtype=np.intp)
            out[idx] = table.dust_squared(differences[idx])
        return out

    def distance(
        self, x: UncertainTimeSeries, y: UncertainTimeSeries
    ) -> float:
        """``DUST(X, Y)`` (Equation 13)."""
        return float(np.sqrt(self.dust_squared_profile(x, y).sum()))

    def dtw_distance(
        self,
        x: UncertainTimeSeries,
        y: UncertainTimeSeries,
        window: Optional[int] = None,
    ) -> float:
        """DTW with ``dust²`` as the per-point cost (Section 3.2 extension).

        Requires homogeneous error models (one table), since under warping
        a point may align with any timestamp of the other series; a
        heterogeneous model raises
        :class:`~repro.core.errors.UnsupportedQueryError`.
        """
        x_model, y_model = x.error_model, y.error_model
        if not (x_model.is_homogeneous and y_model.is_homogeneous):
            raise UnsupportedQueryError(HETEROGENEOUS_DTW_MESSAGE)
        table = self.table(x_model[0], y_model[0])
        cost = lambda a, b: float(table.dust_squared(abs(a - b)))  # noqa: E731
        return dtw_distance(
            x.observations, y.observations, window=window, point_cost=cost
        )

    def __repr__(self) -> str:
        return (
            f"Dust(table_points={self.table_points}, "
            f"tail_workaround={self.tail_workaround})"
        )
