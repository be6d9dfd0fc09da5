"""Distance-measure protocol and registry.

The paper's methodology compares heterogeneous techniques "on the same task"
(Section 4.1.2).  The harness therefore treats every measure as a callable
``(x_values, y_values) -> float`` over aligned numpy arrays; this module
defines that protocol and a registry so experiments can select measures by
name.
"""

from __future__ import annotations

from typing import Dict, Protocol

import numpy as np

from ..core.errors import InvalidParameterError, LengthMismatchError


class Distance(Protocol):
    """A dissimilarity function over aligned value arrays."""

    def __call__(self, x: np.ndarray, y: np.ndarray) -> float: ...


_REGISTRY: Dict[str, Distance] = {}


def register_distance(name: str, distance: Distance, overwrite: bool = False) -> None:
    """Register ``distance`` under ``name``.

    Registration is explicit (no decorators with side effects at import
    time beyond the built-ins) and refuses silent overwrites.
    """
    if not overwrite and name in _REGISTRY:
        raise InvalidParameterError(f"distance {name!r} is already registered")
    _REGISTRY[name] = distance


def get_distance(name: str) -> Distance:
    """Look up a registered distance by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise InvalidParameterError(
            f"unknown distance {name!r}; registered: {known}"
        ) from None


def registered_distances() -> Dict[str, Distance]:
    """Snapshot of the registry (copy; mutating it has no effect)."""
    return dict(_REGISTRY)


def check_aligned(x: np.ndarray, y: np.ndarray, context: str = "") -> None:
    """Raise :class:`LengthMismatchError` unless ``x`` and ``y`` align."""
    if x.shape != y.shape:
        raise LengthMismatchError(int(x.size), int(y.size), context)


def pairwise_matrix(
    distance: Distance, rows: np.ndarray, columns: np.ndarray
) -> np.ndarray:
    """Dense pairwise distance matrix between two stacks of series.

    A generic fallback that works for any registered distance; vectorized
    fast paths (e.g. Euclidean) should be preferred when available.
    """
    rows = np.atleast_2d(rows)
    columns = np.atleast_2d(columns)
    out = np.empty((rows.shape[0], columns.shape[0]))
    for i, row in enumerate(rows):
        for j, column in enumerate(columns):
            out[i, j] = distance(row, column)
    return out
