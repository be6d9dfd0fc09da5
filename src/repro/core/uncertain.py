"""Uncertain time-series models.

Section 2 of the paper defines an uncertain time series as a sequence of
random variables, one per timestamp, and reviews two concrete realizations:

* **pdf-based** (PROUD, DUST; paper Figure 1): a single observed value per
  timestamp plus knowledge of the error distribution around it —
  :class:`UncertainTimeSeries` here, with the per-timestamp error knowledge
  captured by :class:`ErrorModel`;
* **multi-sample** (MUNICH; paper Figure 2): repeated observations per
  timestamp, no distributional knowledge —
  :class:`MultisampleUncertainTimeSeries`.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..distributions.base import ErrorDistribution
from .errors import InvalidParameterError, InvalidSeriesError, LengthMismatchError
from .series import TimeSeries, as_values, owns_readonly_buffer


class ErrorModel:
    """Per-timestamp error-distribution knowledge for one series.

    The paper's experiments include homogeneous errors (one distribution for
    every timestamp), mixed standard deviations (Figure 8: 20% of timestamps
    at σ=1.0, 80% at σ=0.4), and mixed families (Figure 9).  ``ErrorModel``
    represents all of these as a sequence of
    :class:`~repro.distributions.base.ErrorDistribution`, one per timestamp,
    with the homogeneous case stored compactly.
    """

    __slots__ = ("_distributions", "_length")

    def __init__(
        self,
        distributions: Union[ErrorDistribution, Sequence[ErrorDistribution]],
        length: Optional[int] = None,
    ) -> None:
        if isinstance(distributions, ErrorDistribution):
            if length is None:
                raise InvalidParameterError(
                    "length is required when a single distribution is given"
                )
            if length < 1:
                raise InvalidParameterError(f"length must be >= 1, got {length}")
            self._distributions: Tuple[ErrorDistribution, ...] = (distributions,)
            self._length = int(length)
        else:
            distributions = tuple(distributions)
            if not distributions:
                raise InvalidParameterError("at least one distribution is required")
            if length is not None and length != len(distributions):
                raise LengthMismatchError(
                    length, len(distributions), "ErrorModel length vs distributions"
                )
            self._distributions = distributions
            self._length = len(distributions)

    @classmethod
    def constant(cls, distribution: ErrorDistribution, length: int) -> "ErrorModel":
        """Homogeneous model: the same distribution at every timestamp."""
        return cls(distribution, length=length)

    @property
    def length(self) -> int:
        """Number of timestamps covered."""
        return self._length

    @property
    def is_homogeneous(self) -> bool:
        """True when every timestamp shares one distribution object."""
        return len(self._distributions) == 1 or len(set(self._distributions)) == 1

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, timestamp: int) -> ErrorDistribution:
        if not -self._length <= timestamp < self._length:
            raise IndexError(
                f"timestamp {timestamp} out of range for length {self._length}"
            )
        if len(self._distributions) == 1:
            return self._distributions[0]
        return self._distributions[timestamp]

    def __iter__(self):
        if len(self._distributions) == 1:
            single = self._distributions[0]
            return iter([single] * self._length)
        return iter(self._distributions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ErrorModel):
            return NotImplemented
        return list(self) == list(other)

    def __repr__(self) -> str:
        if self.is_homogeneous:
            return f"ErrorModel({self._distributions[0]!r} x {self._length})"
        return f"ErrorModel(<heterogeneous>, length={self._length})"

    def stds(self) -> np.ndarray:
        """Per-timestamp error standard deviations as a float array."""
        return np.fromiter((d.std for d in self), dtype=np.float64, count=self._length)

    def variances(self) -> np.ndarray:
        """Per-timestamp error variances as a float array."""
        return np.fromiter(
            (d.variance for d in self), dtype=np.float64, count=self._length
        )

    def distinct(self) -> Tuple[ErrorDistribution, ...]:
        """The set of distinct distributions used, in first-seen order."""
        seen = []
        for distribution in self:
            if distribution not in seen:
                seen.append(distribution)
        return tuple(seen)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one error value per timestamp."""
        if len(self._distributions) == 1:
            return self._distributions[0].sample(rng, self._length)
        return np.array([d.sample(rng, ()) for d in self], dtype=np.float64)

    def with_reported(
        self, distributions: Union[ErrorDistribution, Sequence[ErrorDistribution]]
    ) -> "ErrorModel":
        """Build a *claimed* model of the same length (misinformation tests)."""
        return ErrorModel(distributions, length=self._length)


class UncertainTimeSeries:
    """pdf-based uncertain series: one observation + error model (Figure 1).

    This is the input format of PROUD and DUST.  ``observations`` holds the
    single measured value per timestamp; ``error_model`` is what the
    technique *believes* about the measurement error (which the
    misinformation experiments deliberately set different from the truth).
    """

    __slots__ = ("observations", "error_model", "label", "name")

    def __init__(
        self,
        observations: Iterable[float],
        error_model: ErrorModel,
        label: Optional[int] = None,
        name: Optional[str] = None,
        *,
        _validated: bool = False,
    ) -> None:
        # ``_validated``: as for :class:`~repro.core.series.TimeSeries`.
        self.observations = (
            observations if _validated else as_values(observations)
        )
        if error_model.length != self.observations.size:
            raise LengthMismatchError(
                self.observations.size, error_model.length,
                "observations vs error model",
            )
        self.error_model = error_model
        self.label = label
        self.name = name

    def __len__(self) -> int:
        return int(self.observations.size)

    def __repr__(self) -> str:
        return (
            f"UncertainTimeSeries(n={len(self)}, error_model={self.error_model!r}, "
            f"name={self.name!r})"
        )

    @property
    def values(self) -> np.ndarray:
        """Alias for ``observations`` (the best point estimate)."""
        return self.observations

    def stds(self) -> np.ndarray:
        """Believed per-timestamp error standard deviations."""
        return self.error_model.stds()

    def as_certain(self) -> TimeSeries:
        """Drop the uncertainty: a certain series of the observations."""
        return TimeSeries(self.observations, label=self.label, name=self.name)

    def possible_world(self, rng: np.random.Generator) -> TimeSeries:
        """Sample one plausible exact series: observation + fresh error."""
        return TimeSeries(
            self.observations + self.error_model.sample(rng),
            label=self.label,
            name=self.name,
        )


class MultisampleUncertainTimeSeries:
    """Repeated-observation uncertain series (Figure 2), MUNICH's input.

    ``samples`` is an ``(n_timestamps, n_samples)`` matrix: row ``i`` holds
    the repeated measurements taken at timestamp ``i``.
    """

    __slots__ = ("samples", "label", "name")

    def __init__(
        self,
        samples: Iterable[Iterable[float]],
        label: Optional[int] = None,
        name: Optional[str] = None,
        *,
        _validated: bool = False,
    ) -> None:
        # ``_validated``: as for :class:`~repro.core.series.TimeSeries`.
        if not _validated:
            samples = np.asarray(samples, dtype=np.float64)
            if samples.ndim != 2:
                raise InvalidSeriesError(
                    f"samples must be a 2-D (timestamps x samples) matrix, "
                    f"got shape {samples.shape}"
                )
            if samples.shape[0] == 0 or samples.shape[1] == 0:
                raise InvalidSeriesError("samples matrix must be non-empty")
            if not np.all(np.isfinite(samples)):
                raise InvalidSeriesError("samples must be finite")
            if not owns_readonly_buffer(samples):
                # Fully read-only inputs are adopted without copying.
                samples = samples.copy()
                samples.setflags(write=False)
        self.samples = samples
        self.label = label
        self.name = name

    def __len__(self) -> int:
        return int(self.samples.shape[0])

    def __repr__(self) -> str:
        return (
            f"MultisampleUncertainTimeSeries(n={len(self)}, "
            f"samples_per_timestamp={self.samples_per_timestamp}, "
            f"name={self.name!r})"
        )

    @property
    def samples_per_timestamp(self) -> int:
        """The paper's ``s``: number of repeated observations per timestamp."""
        return int(self.samples.shape[1])

    @property
    def n_materializations(self) -> int:
        """``s ** n``: number of certain series this model can materialize."""
        return self.samples_per_timestamp ** len(self)

    def means(self) -> np.ndarray:
        """Per-timestamp sample means (a certain point estimate)."""
        return self.samples.mean(axis=1)

    def stds(self, ddof: int = 1) -> np.ndarray:
        """Per-timestamp sample standard deviations."""
        if self.samples_per_timestamp <= ddof:
            return np.zeros(len(self))
        return self.samples.std(axis=1, ddof=ddof)

    def as_certain(self) -> TimeSeries:
        """Collapse to a certain series using per-timestamp means."""
        return TimeSeries(self.means(), label=self.label, name=self.name)

    def bounding_intervals(self) -> Tuple[np.ndarray, np.ndarray]:
        """Minimal bounding interval ``[min, max]`` per timestamp.

        These are MUNICH's summarization structures for distance bounding
        (Section 2.1: "summarizing the repeated samples using minimal
        bounding intervals").
        """
        return self.samples.min(axis=1), self.samples.max(axis=1)

    def materialize(self, choice: Sequence[int]) -> TimeSeries:
        """Materialize one certain series by picking sample ``choice[i]``
        at each timestamp ``i`` (one element of the paper's ``TS_X`` set)."""
        choice = np.asarray(choice, dtype=np.intp)
        if choice.shape != (len(self),):
            raise InvalidParameterError(
                f"choice must have one index per timestamp "
                f"({len(self)}), got shape {choice.shape}"
            )
        if np.any(choice < 0) or np.any(choice >= self.samples_per_timestamp):
            raise InvalidParameterError(
                "choice indices must be in "
                f"[0, {self.samples_per_timestamp})"
            )
        rows = np.arange(len(self))
        return TimeSeries(self.samples[rows, choice], label=self.label, name=self.name)
