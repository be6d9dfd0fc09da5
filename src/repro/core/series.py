"""Certain (exact-valued) time series.

The paper (Section 2) defines a time series ``S = <s1, ..., sn>`` as a
sequence of real values at discrete, equally spaced timestamps.  This module
provides the :class:`TimeSeries` wrapper used throughout the library: a thin,
immutable view over a ``float64`` numpy array carrying an optional label
(class id, used by dataset generators) and name.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InvalidSeriesError


def owns_readonly_buffer(array: np.ndarray) -> bool:
    """Whether ``array`` and its whole base chain are non-writeable.

    Only then is adopting the array without a defensive copy safe: a
    read-only *view* of a writeable base (``base[:]`` +
    ``setflags(write=False)``) can still be mutated through the base,
    which would silently desynchronize the engine's cached matrices.
    Memory-mapped rows (``np.load(..., mmap_mode="r")``) pass — every
    level of their chain is read-only.
    """
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        if array.base is None:
            return True
        array = array.base
    # Non-ndarray base (e.g. the mmap buffer of a read-only memmap):
    # nothing above was writeable, so the data cannot be mutated through
    # any ndarray reference.
    return True


def as_values(values: Iterable[float], *, allow_empty: bool = False) -> np.ndarray:
    """Validate and convert ``values`` to a read-only 1-D ``float64`` array.

    Raises :class:`InvalidSeriesError` when the input is empty (unless
    ``allow_empty``), not one-dimensional, or contains NaN/inf.
    """
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        raise InvalidSeriesError(
            f"time series must be one-dimensional, got shape {array.shape}"
        )
    if array.size == 0 and not allow_empty:
        raise InvalidSeriesError("time series must contain at least one point")
    if array.size and not np.all(np.isfinite(array)):
        raise InvalidSeriesError("time series values must be finite")
    if not owns_readonly_buffer(array):
        # Writeable (anywhere in the base chain) inputs are defensively
        # snapshotted.  Fully read-only arrays are adopted as-is:
        # memory-mapped collection rows (repro.core.mmapio) stay
        # zero-copy views of the on-disk matrix.
        array = array.copy()
        array.setflags(write=False)
    return array


class TimeSeries:
    """An exact-valued time series.

    Parameters
    ----------
    values:
        The real-valued points, one per timestamp.
    label:
        Optional class label (dataset generators attach the class id here;
        the similarity harness never looks at it).
    name:
        Optional identifier, e.g. ``"GunPoint/042"``.
    """

    __slots__ = ("values", "label", "name")

    def __init__(
        self,
        values: Iterable[float],
        label: Optional[int] = None,
        name: Optional[str] = None,
        *,
        _validated: bool = False,
    ) -> None:
        # ``_validated`` adopts ``values`` as is: a row view of a payload
        # already checked whole (repro.core.mmapio), never user input.
        self.values = values if _validated else as_values(values)
        self.label = label
        self.name = name

    def __len__(self) -> int:
        return int(self.values.size)

    def __iter__(self) -> Iterator[float]:
        return iter(self.values)

    def __getitem__(self, index):
        return self.values[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (
            np.array_equal(self.values, other.values)
            and self.label == other.label
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.values.tobytes(), self.label, self.name))

    def __repr__(self) -> str:
        head = np.array2string(self.values[:4], precision=3, separator=", ")
        suffix = ", ..." if len(self) > 4 else ""
        return (
            f"TimeSeries(n={len(self)}, values={head[:-1]}{suffix}], "
            f"label={self.label!r}, name={self.name!r})"
        )

    @property
    def length(self) -> int:
        """Number of timestamps (the paper's ``n``)."""
        return len(self)

    def mean(self) -> float:
        """Arithmetic mean of the values."""
        return float(np.mean(self.values))

    def std(self) -> float:
        """Population standard deviation of the values."""
        return float(np.std(self.values))

    def with_values(self, values: Iterable[float]) -> "TimeSeries":
        """Return a copy of this series with new values, same metadata."""
        return TimeSeries(values, label=self.label, name=self.name)

    def slice(self, start: int, stop: int) -> "TimeSeries":
        """Return the subsequence ``[start, stop)`` keeping metadata."""
        if not 0 <= start < stop <= len(self):
            raise InvalidSeriesError(
                f"invalid slice [{start}, {stop}) for series of length {len(self)}"
            )
        return TimeSeries(self.values[start:stop], label=self.label, name=self.name)
