"""Core data model: exact series, uncertain series, collections, transforms."""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .collection import Collection
from .errors import (
    DatasetError,
    DistributionError,
    InvalidParameterError,
    InvalidSeriesError,
    LengthMismatchError,
    ReproError,
    UnsupportedQueryError,
)
from .normalization import (
    is_znormalized,
    resample,
    resample_values,
    truncate,
    znormalize,
    znormalize_values,
)
from .mmapio import (
    MANIFEST_NAME,
    MappedCollection,
    MappedCollectionError,
    StreamingCollectionWriter,
    build_index,
    load_collection,
    save_collection,
)
from .rng import DEFAULT_SEED, child_seeds, make_rng, spawn
from .series import TimeSeries, as_values
from .summaries import (
    DEFAULT_SEGMENTS,
    IntervalSummary,
    PointSummary,
    interval_lower_bound,
    paa_lower_bound,
    summarize_intervals,
    summarize_values,
)
from .uncertain import (
    ErrorModel,
    MultisampleUncertainTimeSeries,
    UncertainTimeSeries,
)

#: Element budget for one block of a streaming NumPy kernel: 2^16 float64s
#: ≈ 512 KB per temporary, so the dozen elementwise passes a DUST/PROUD/
#: MUNICH matrix block or a DUST φ quadrature block makes stay resident in
#: L2 instead of streaming the whole tensor through DRAM once per pass
#: (matrix kernels measured ~2× faster than with 8 MB blocks on the
#: full-protocol workload), while still amortizing per-block NumPy call
#: overhead thousands of ways.
MATRIX_BLOCK_ELEMENTS = 1 << 16


def normalize_tau(tau) -> Union[None, float, Tuple[float, ...]]:
    """Canonical decision target: ``None``, a float, or a sorted tuple.

    Sequences (lists, arrays, tuples) become the τ-grid form — sorted and
    deduplicated — so plans, caches and wire payloads all key on one
    representation.  Every threshold, scalar or grid, must lie within
    ``[0, 1]``; NaN and ±inf are rejected.
    """
    if tau is None:
        return None
    grid = isinstance(tau, (list, tuple, np.ndarray))
    values = [float(value) for value in np.asarray(tau).ravel()]
    if not values:
        raise InvalidParameterError("a tau grid needs >= 1 threshold")
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise InvalidParameterError(
                f"tau values must be within [0, 1], got {value:g}"
            )
    return tuple(sorted(set(values))) if grid else values[0]


def epsilon_vector(epsilon, n_queries: int) -> np.ndarray:
    """A scalar or per-query ε as a validated ``(n_queries,)`` vector.

    A scalar is broadcast to every query row; a sequence must hold one
    threshold per row.  Every ε must be ``>= 0`` (NaN is rejected).
    """
    eps = np.asarray(epsilon, dtype=np.float64)
    if eps.ndim == 0:
        eps = np.full(n_queries, float(eps))
    elif eps.shape != (n_queries,):
        raise InvalidParameterError(
            f"epsilon must be a scalar or a vector of {n_queries} per-query "
            f"thresholds, got shape {eps.shape}"
        )
    if eps.size and (np.any(eps < 0.0) or np.any(np.isnan(eps))):
        raise InvalidParameterError("every epsilon must be >= 0")
    return eps


__all__ = [
    "Collection",
    "TimeSeries",
    "UncertainTimeSeries",
    "MultisampleUncertainTimeSeries",
    "ErrorModel",
    "MappedCollection",
    "MappedCollectionError",
    "save_collection",
    "load_collection",
    "build_index",
    "StreamingCollectionWriter",
    "MANIFEST_NAME",
    "DEFAULT_SEGMENTS",
    "PointSummary",
    "IntervalSummary",
    "summarize_values",
    "summarize_intervals",
    "paa_lower_bound",
    "interval_lower_bound",
    "as_values",
    "znormalize",
    "znormalize_values",
    "is_znormalized",
    "resample",
    "resample_values",
    "truncate",
    "make_rng",
    "spawn",
    "child_seeds",
    "DEFAULT_SEED",
    "normalize_tau",
    "epsilon_vector",
    "ReproError",
    "InvalidSeriesError",
    "LengthMismatchError",
    "InvalidParameterError",
    "DistributionError",
    "UnsupportedQueryError",
    "DatasetError",
]
