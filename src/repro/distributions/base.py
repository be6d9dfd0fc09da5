"""Abstract interface for zero-mean error distributions.

The paper perturbs exact series with measurement errors drawn from uniform,
normal, and exponential distributions "with zero mean and varying standard
deviation within interval [0.2, 2.0]" (Section 4.1.1).  Every concrete
distribution in this package is therefore parameterized by its standard
deviation and centered at zero.

The interface exposes exactly what the techniques need:

* ``sample``     — perturbation (all techniques) and repeated observations
                   (MUNICH);
* ``pdf``        — DUST's φ function (numeric cross-correlation of the two
                   error densities);
* ``cdf``        — analytic checks and tests;
* ``std``        — PROUD (which only consumes the error standard deviation).
"""

from __future__ import annotations

import abc
from typing import Tuple

import numpy as np

from ..core.errors import DistributionError


class ErrorDistribution(abc.ABC):
    """A zero-mean distribution of measurement error.

    Concrete subclasses are immutable value objects: two instances with the
    same family and parameters compare equal and hash equal, which lets the
    process-wide DUST lookup-table store key on them directly.
    """

    #: Short family name, e.g. ``"normal"``; set by subclasses.
    family: str = "abstract"

    def __init__(self, std: float) -> None:
        std = float(std)
        if not np.isfinite(std) or std <= 0.0:
            raise DistributionError(
                f"error standard deviation must be positive and finite, got {std}"
            )
        self._std = std

    @property
    def std(self) -> float:
        """Standard deviation of the error."""
        return self._std

    @property
    def variance(self) -> float:
        """Variance of the error (``std ** 2``)."""
        return self._std * self._std

    @property
    def mean(self) -> float:
        """All paper error models are centered: the mean is always zero."""
        return 0.0

    @abc.abstractmethod
    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Probability density evaluated element-wise at ``x``."""

    @abc.abstractmethod
    def cdf(self, x: np.ndarray) -> np.ndarray:
        """Cumulative distribution evaluated element-wise at ``x``."""

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw ``size`` error values using ``rng``."""

    @abc.abstractmethod
    def support(self) -> Tuple[float, float]:
        """Interval outside which the pdf is (numerically) zero.

        Unbounded tails are reported as a high-quantile cut suitable for
        numeric integration grids (DUST lookup tables).
        """

    def with_std(self, std: float) -> "ErrorDistribution":
        """Return a distribution of the same family with a new ``std``."""
        return type(self)(std)

    # Value-object behaviour -------------------------------------------------

    def _key(self) -> tuple:
        return (self.family, round(self._std, 12))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ErrorDistribution):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(std={self._std:g})"
