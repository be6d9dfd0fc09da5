"""Filtered-Euclidean similarity measures (UMA / UEMA distances).

Section 5.1: "we consider the Euclidean distance computed on the sequences
filtered by UMA and UEMA techniques.  Thus, Euclidean, UMA, and UEMA share
the same distance function, but the input sequence is different."

:class:`FilteredEuclidean` packages a filter choice (MA / EMA / UMA / UEMA,
window, decay) with the Euclidean distance.  Filtering one series costs
O(n·w); queries over a collection reuse cached filtered sequences via
:meth:`FilteredEuclidean.filter_uncertain`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.errors import InvalidParameterError
from ..core.uncertain import UncertainTimeSeries
from .filters import exponential_moving_average, moving_average, uema, uma
from .lp import euclidean

#: Parameter defaults the paper settles on after Figures 13–14.
PAPER_WINDOW = 2  # "moving average window length W = 5 (i.e., w = 2)"
PAPER_DECAY = 1.0  # "a decaying factor of λ = 1 for UEMA"


@dataclass(frozen=True)
class FilteredEuclidean:
    """Euclidean distance over filtered sequences.

    Parameters
    ----------
    kind:
        One of ``"ma"``, ``"ema"``, ``"uma"``, ``"uema"``.
    window:
        The paper's ``w`` (window width is ``2w + 1``).
    decay:
        The paper's ``λ``; required for the exponential variants and
        ignored by ``"ma"`` / ``"uma"``.
    """

    kind: str
    window: int = PAPER_WINDOW
    decay: Optional[float] = PAPER_DECAY

    def __post_init__(self) -> None:
        if self.kind not in ("ma", "ema", "uma", "uema"):
            raise InvalidParameterError(
                f"kind must be one of ma/ema/uma/uema, got {self.kind!r}"
            )
        if self.window < 0:
            raise InvalidParameterError(f"window must be >= 0, got {self.window}")
        if self.kind in ("ema", "uema") and (self.decay is None or self.decay < 0):
            raise InvalidParameterError(
                f"{self.kind} requires a non-negative decay, got {self.decay}"
            )

    @property
    def name(self) -> str:
        """Report name, e.g. ``"UEMA(w=2, lambda=1)"``."""
        if self.kind in ("ema", "uema"):
            return f"{self.kind.upper()}(w={self.window}, lambda={self.decay:g})"
        return f"{self.kind.upper()}(w={self.window})"

    @property
    def uses_error_stds(self) -> bool:
        """Whether the filter consumes per-timestamp error σ (UMA/UEMA)."""
        return self.kind in ("uma", "uema")

    def filter_values(
        self, values: np.ndarray, stds: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Apply the configured filter to raw observation values."""
        if self.kind == "ma":
            return moving_average(values, self.window)
        if self.kind == "ema":
            return exponential_moving_average(values, self.window, self.decay)
        if stds is None:
            raise InvalidParameterError(
                f"{self.kind} requires per-timestamp error stds"
            )
        if self.kind == "uma":
            return uma(values, stds, self.window)
        return uema(values, stds, self.window, self.decay)

    def filter_uncertain(self, series: UncertainTimeSeries) -> np.ndarray:
        """Filter a pdf-based uncertain series using its reported stds."""
        stds = series.stds() if self.uses_error_stds else None
        return self.filter_values(series.observations, stds)

    def distance(
        self, x: UncertainTimeSeries, y: UncertainTimeSeries
    ) -> float:
        """Euclidean distance between the filtered versions of two series."""
        return euclidean(self.filter_uncertain(x), self.filter_uncertain(y))

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distance-protocol entry point over pre-filtered value arrays.

        Callers that cache filtered sequences can use the plain protocol;
        :meth:`distance` is the convenience path for uncertain series.
        """
        return euclidean(x, y)


def uma_distance(
    x: UncertainTimeSeries, y: UncertainTimeSeries, window: int = PAPER_WINDOW
) -> float:
    """One-shot UMA distance with the paper's default window."""
    return FilteredEuclidean("uma", window=window).distance(x, y)


def uema_distance(
    x: UncertainTimeSeries,
    y: UncertainTimeSeries,
    window: int = PAPER_WINDOW,
    decay: float = PAPER_DECAY,
) -> float:
    """One-shot UEMA distance with the paper's default parameters."""
    return FilteredEuclidean("uema", window=window, decay=decay).distance(x, y)
