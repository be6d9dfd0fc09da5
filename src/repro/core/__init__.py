"""Core data model: exact series, uncertain series, collections, transforms."""

from __future__ import annotations

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
    paa_upper_bound,
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
    "paa_upper_bound",
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
    "ReproError",
    "InvalidSeriesError",
    "LengthMismatchError",
    "InvalidParameterError",
    "DistributionError",
    "UnsupportedQueryError",
    "DatasetError",
]
