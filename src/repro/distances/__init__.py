"""Distance measures: Lp, DTW, and the moving-average family."""

from __future__ import annotations

from .base import (
    Distance,
    check_aligned,
    get_distance,
    pairwise_matrix,
    register_distance,
    registered_distances,
)
from .dtw import (
    dtw_distance,
    dtw_path,
    keogh_envelope,
    lb_keogh,
    lb_kim,
)
from .dtw_batch import (
    banded_dtw_from_costs,
    dtw_distance_matrix,
    dtw_distance_paired,
    dtw_distance_stack,
    dtw_hits_paired,
    keogh_envelope_stack,
    rolling_dtw_from_cost_fn,
    rolling_dtw_paired,
    rolling_dtw_stack,
)
from .filtered import (
    PAPER_DECAY,
    PAPER_WINDOW,
    FilteredEuclidean,
    uema_distance,
    uma_distance,
)
from .filters import exponential_moving_average, moving_average, uema, uma
from .lp import (
    euclidean,
    euclidean_matrix,
    lp_distance,
    manhattan,
    squared_euclidean,
)

# Built-in registry entries (idempotent on re-import thanks to module cache).
register_distance("euclidean", euclidean, overwrite=True)
register_distance("manhattan", manhattan, overwrite=True)
register_distance("dtw", dtw_distance, overwrite=True)

__all__ = [
    "Distance",
    "register_distance",
    "get_distance",
    "registered_distances",
    "check_aligned",
    "pairwise_matrix",
    "lp_distance",
    "euclidean",
    "squared_euclidean",
    "manhattan",
    "euclidean_matrix",
    "dtw_distance",
    "dtw_path",
    "dtw_distance_stack",
    "dtw_distance_matrix",
    "dtw_distance_paired",
    "dtw_hits_paired",
    "banded_dtw_from_costs",
    "rolling_dtw_from_cost_fn",
    "rolling_dtw_paired",
    "rolling_dtw_stack",
    "lb_kim",
    "lb_keogh",
    "keogh_envelope",
    "keogh_envelope_stack",
    "moving_average",
    "exponential_moving_average",
    "uma",
    "uema",
    "FilteredEuclidean",
    "uma_distance",
    "uema_distance",
    "PAPER_WINDOW",
    "PAPER_DECAY",
]
