"""Batch query engine: per-collection materializations for vectorized queries.

Architecture note
-----------------

Every similarity workload in the repo — the harness scoring loops, the
ε-calibration protocol, kNN, and range queries — asks one question many
times: *"score one query against every series of a collection"*.  Answering
it pair-by-pair pays a Python-interpreter round-trip per candidate.
:class:`CollectionMaterialization` removes that overhead: it turns one
collection into the dense NumPy arrays the vectorized kernels consume —
the ``(N, n)`` observation matrix, per-filter filtered matrices
(UMA/UEMA), the error-model *code* matrix that groups DUST's
lookup-table applications, per-timestamp error variances (PROUD), and
sample/bounding-interval stacks (MUNICH).  Every array is built lazily,
at most once.

Nothing caches materializations by collection identity.  A
:class:`~repro.queries.session.SimilaritySession` holds its collection's
one materialization and hands it to every plan it runs;
:meth:`repro.queries.planner.QueryPlan.execute` builds any side it is
not given — the query rows, and for a session-less
``technique.distance_matrix(q, c)`` the collection too — and drops it
with the plan, so a plan keeps no collection alive after it returns.
Both sides reach the ``(M, N)`` kernels of
:class:`repro.queries.techniques.Technique`.  Every concrete technique
overrides the kernels with vectorized ones; the default implementations
loop over the per-pair methods, so third-party techniques keep working
unchanged.
"""

from __future__ import annotations

import operator
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.errors import LengthMismatchError
from ..core.series import TimeSeries
from ..core.uncertain import (
    MultisampleUncertainTimeSeries,
    UncertainTimeSeries,
)
from ..distances.filtered import FilteredEuclidean
from ..distributions.base import ErrorDistribution


def _stack(rows: List[np.ndarray]) -> np.ndarray:
    """``np.vstack`` with the repo's error type for ragged collections."""
    lengths = {row.shape[-1] for row in rows}
    if len(lengths) > 1:
        raise LengthMismatchError(
            max(lengths), min(lengths),
            "collection materialization (all series must share one length)",
        )
    return np.vstack(rows)


def _point_estimate(item) -> np.ndarray:
    """One value per timestamp, mirroring ``Collection.values_matrix``."""
    if isinstance(item, UncertainTimeSeries):
        return item.observations
    if isinstance(item, TimeSeries):
        return item.values
    if isinstance(item, MultisampleUncertainTimeSeries):
        return item.means()
    return np.asarray(item, dtype=np.float64)


class CollectionMaterialization:
    """Lazily-built dense views of one collection of series.

    The materialization keeps a strong reference to the collection it was
    built from (``self.collection``) and to each member it snapshotted,
    which is what makes its identity checks sound: no member's ``id`` can
    be recycled while the materialization is alive.

    The lazy fills take no lock.  Each one is a pure function of the
    snapshotted items (and of its key, for the per-filter, per-window and
    per-geometry dicts), so two threads that miss one fill concurrently
    build equal arrays; whichever is stored last serves later calls, and
    the double fill only wastes work.
    """

    __slots__ = (
        "collection",
        "_frozen",
        "_items",
        "_values",
        "_variances",
        "_filtered",
        "_model_codes",
        "_sample_columns",
        "_bounds",
        "_samples_tensor",
        "_envelopes",
        "_summaries",
        "_positions",
    )

    def __init__(self, collection: Sequence) -> None:
        self.collection = collection
        # Snapshot of the members at materialization time.  The strong
        # references pin each item, so is_current() can compare by identity
        # without id-recycling false positives; a caller that mutates the
        # collection in place (append / replace / remove) is detected and
        # its session rebuilds instead of serving stale arrays.
        self._items = list(collection)
        self._frozen = bool(getattr(collection, "immutable_items", False))
        self._values: np.ndarray = None
        self._variances: np.ndarray = None
        self._filtered: Dict[Hashable, np.ndarray] = {}
        self._model_codes: Tuple[np.ndarray, Tuple[ErrorDistribution, ...]] = None
        self._sample_columns: Dict[int, np.ndarray] = {}
        self._bounds: Tuple[np.ndarray, np.ndarray] = None
        self._samples_tensor: np.ndarray = None
        self._envelopes: Dict[Optional[int], Tuple[np.ndarray, np.ndarray]] = {}
        self._summaries: Dict[Hashable, object] = {}
        self._positions: Dict[int, int] = None

    def __len__(self) -> int:
        return len(self.collection)

    def is_current(self) -> bool:
        """Whether the collection still holds exactly the snapshotted items.

        O(N) identity comparisons, run at C speed by ``map``.
        (In-place mutation of a *series'* internal arrays is not detected;
        series are treated as immutable value holders, as everywhere else
        in the library.)
        """
        if len(self.collection) != len(self._items):
            return False
        if self._frozen:
            # Mapped collections declare their item list immutable
            # (``immutable_items``): the maps are read-only views, so the
            # O(N) identity scan — measurable at 10^6 series — is skipped.
            return True
        return all(map(operator.is_, self.collection, self._items))

    def member_positions(self, items: Sequence) -> np.ndarray:
        """Each item's collection position by identity (``-1`` for a
        non-member).  The ``id → position`` map is built once per
        materialization, so a lookup costs O(M); the snapshot keeps every
        member alive, so no live item can share a member's id."""
        if self._positions is None:
            self._positions = {
                id(item): index for index, item in enumerate(self._items)
            }
        lookup = self._positions.get
        return np.fromiter(
            (lookup(id(item), -1) for item in items),
            dtype=np.intp,
            count=len(items),
        )

    def _mapped(self, attribute: str) -> np.ndarray:
        """A memory-mapped matrix provided by the collection, if any.

        :class:`~repro.core.mmapio.MappedCollection` exposes its on-disk
        matrices as ``mapped_values`` / ``mapped_variances`` /
        ``mapped_samples``; adopting them warms this cache zero-copy —
        the kernels then stream pages straight off the map instead of
        re-stacking per-series rows into fresh RAM.
        """
        return getattr(self.collection, attribute, None)

    def values_matrix(self) -> np.ndarray:
        """``(N, n)`` matrix of point estimates (observations / values /
        per-timestamp sample means, by series kind)."""
        if self._values is None:
            mapped = self._mapped("mapped_values")
            if mapped is not None:
                self._values = mapped
            else:
                self._values = _stack([
                    _point_estimate(item) for item in self._items
                ])
        return self._values

    def variances_matrix(self) -> np.ndarray:
        """``(N, n)`` matrix of reported per-timestamp error variances."""
        if self._variances is None:
            mapped = self._mapped("mapped_variances")
            if mapped is not None:
                self._variances = mapped
            else:
                self._variances = _stack([
                    item.error_model.variances() for item in self._items
                ])
        return self._variances

    def filtered_matrix(self, filtered: FilteredEuclidean) -> np.ndarray:
        """``(N, n)`` matrix of the collection filtered by ``filtered``.

        One row per series; every series is filtered exactly once per
        filter configuration (the :class:`FilteredEuclidean` value object
        is the key).
        """
        matrix = self._filtered.get(filtered)
        if matrix is None:
            matrix = _stack([
                filtered.filter_uncertain(item) for item in self._items
            ])
            self._filtered[filtered] = matrix
        return matrix

    def model_codes(
        self,
    ) -> Tuple[np.ndarray, Tuple[ErrorDistribution, ...]]:
        """Integer codes of every series' per-timestamp error distribution.

        Returns ``(codes, distincts)`` where ``codes`` is an ``(N, n)``
        integer matrix and ``distincts[codes[j, i]]`` is series ``j``'s
        error distribution at timestamp ``i``.  DUST's batch kernel groups
        table applications by these codes, so a homogeneous collection
        costs a single vectorized lookup.
        """
        if self._model_codes is None:
            mapping: Dict[ErrorDistribution, int] = {}
            n_series = len(self._items)
            length = len(self._items[0]) if n_series else 0
            codes = np.empty((n_series, length), dtype=np.intp)
            for row, item in enumerate(self._items):
                model = item.error_model
                if model.is_homogeneous:
                    distribution = model[0]
                    code = mapping.setdefault(distribution, len(mapping))
                    codes[row, :] = code
                else:
                    codes[row, :] = [
                        mapping.setdefault(d, len(mapping)) for d in model
                    ]
            self._model_codes = (codes, tuple(mapping))
        return self._model_codes

    def sample_column_matrix(self, column: int = 0) -> np.ndarray:
        """``(N, n)`` matrix of multisample series' ``column``-th draws.

        Column 0 is the paper's "single observation" view of a repeated-
        observation series (MUNICH's ε_eucl calibration).
        """
        matrix = self._sample_columns.get(column)
        if matrix is None:
            mapped = self._mapped("mapped_samples")
            if mapped is not None:
                matrix = mapped[:, :, column]
            else:
                matrix = _stack([
                    item.samples[:, column] for item in self._items
                ])
            self._sample_columns[column] = matrix
        return matrix

    def samples_tensor(self) -> Optional[np.ndarray]:
        """``(N, n, s)`` stacked multisample draws, or ``None`` when the
        collection's per-timestamp sample counts are ragged.

        The batched MUNICH convolution slices undecided candidates out of
        this tensor in one shot; ragged collections fall back to the
        per-pair evaluator.
        """
        if self._samples_tensor is None:
            mapped = self._mapped("mapped_samples")
            if mapped is not None:
                self._samples_tensor = mapped
            else:
                shapes = {item.samples.shape for item in self._items}
                if len(shapes) != 1:
                    self._samples_tensor = False
                else:
                    self._samples_tensor = np.stack(
                        [item.samples for item in self._items]
                    )
        return None if self._samples_tensor is False else self._samples_tensor

    def dtw_envelopes(
        self, window: Optional[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Band-inflated LB_Keogh envelopes of the bounding intervals.

        ``(lower, upper)``, each ``(N, n)``: the rolling min of the
        per-timestamp interval lows / rolling max of the highs over the
        Sakoe–Chiba half-width (``None`` = full length).  Every
        materialization of series ``j`` lies inside its envelope row, so
        one cached stack bounds the banded DTW of *every* sample draw —
        MUNICH-DTW's collection-level pruning stage.
        """
        cached = self._envelopes.get(window)
        if cached is None:
            from ..distances.dtw_batch import keogh_envelope_stack

            low, high = self.bounding_matrices()
            effective = low.shape[1] if window is None else window
            lower, _ = keogh_envelope_stack(low, effective)
            _, upper = keogh_envelope_stack(high, effective)
            cached = (lower, upper)
            self._envelopes[window] = cached
        return cached

    def bounding_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """Stacked minimal bounding intervals: ``(low, high)``, each
        ``(N, n)`` (MUNICH's summarization structures, Section 2.1)."""
        if self._bounds is None:
            mapped = self._mapped("mapped_samples")
            if mapped is not None:
                self._bounds = (mapped.min(axis=2), mapped.max(axis=2))
            else:
                lows: List[np.ndarray] = []
                highs: List[np.ndarray] = []
                for item in self._items:
                    low, high = item.bounding_intervals()
                    lows.append(low)
                    highs.append(high)
                self._bounds = (_stack(lows), _stack(highs))
        return self._bounds

    def _mapped_index(self, n_segments: int) -> Optional[Dict]:
        """The collection's persisted index tables, when geometry matches.

        :func:`~repro.core.mmapio.build_index` stores segment-mean and
        weighted-norm arrays next to the mmap manifest;
        :class:`~repro.core.mmapio.MappedCollection` exposes them as
        ``mapped_index``.  Adopting them here makes index pruning at
        scale zero-copy — the summary tables are never recomputed.
        """
        mapped = self._mapped("mapped_index")
        if mapped is not None and mapped.get("segments") == n_segments:
            return mapped
        return None

    def paa_summary(self, n_segments: int):
        """Cached :class:`~repro.core.summaries.PointSummary` of the
        point-estimate matrix (Euclidean-family index geometry)."""
        from ..core.summaries import (
            PointSummary,
            effective_segments,
            segment_widths,
            summarize_values,
        )

        values = self.values_matrix()
        n_segments = effective_segments(n_segments, values.shape[1])
        key = ("values", n_segments)
        cached = self._summaries.get(key)
        if cached is None:
            mapped = self._mapped_index(n_segments)
            if mapped is not None and "means" in mapped:
                cached = PointSummary(
                    means=mapped["means"],
                    widths=segment_widths(values.shape[1], n_segments),
                    length=values.shape[1],
                )
                if "norms" in mapped:
                    object.__setattr__(
                        cached, "_norms_cache", mapped["norms"]
                    )
            else:
                cached = summarize_values(values, n_segments)
            self._summaries[key] = cached
        return cached

    def filtered_paa_summary(
        self, filtered: FilteredEuclidean, n_segments: int
    ):
        """Cached :class:`~repro.core.summaries.PointSummary` of one
        filtered matrix (UMA/UEMA operate on filtered values, so their
        index must summarize the same)."""
        from ..core.summaries import effective_segments, summarize_values

        matrix = self.filtered_matrix(filtered)
        n_segments = effective_segments(n_segments, matrix.shape[1])
        key = ("filtered", filtered, n_segments)
        cached = self._summaries.get(key)
        if cached is None:
            cached = summarize_values(matrix, n_segments)
            self._summaries[key] = cached
        return cached

    def interval_paa_summary(self, n_segments: int):
        """Cached :class:`~repro.core.summaries.IntervalSummary` of the
        bounding-interval stacks (MUNICH's index geometry)."""
        from ..core.summaries import (
            IntervalSummary,
            effective_segments,
            segment_widths,
            summarize_intervals,
        )

        length = len(self._items[0]) if self._items else 0
        n_segments = effective_segments(n_segments, length)
        key = ("intervals", n_segments)
        cached = self._summaries.get(key)
        if cached is None:
            mapped = self._mapped_index(n_segments)
            if mapped is not None and "low_means" in mapped:
                # Adopt the persisted tables without forcing the O(N·n·s)
                # min/max scan bounding_matrices() would run on the samples.
                cached = IntervalSummary(
                    low_means=mapped["low_means"],
                    high_means=mapped["high_means"],
                    widths=segment_widths(length, n_segments),
                    length=length,
                )
            else:
                low, high = self.bounding_matrices()
                cached = summarize_intervals(low, high, n_segments)
            self._summaries[key] = cached
        return cached

    def envelope_paa_summary(self, window: Optional[int], n_segments: int):
        """Cached :class:`~repro.core.summaries.IntervalSummary` of the
        band-inflated DTW envelopes (MUNICH-DTW's index geometry)."""
        from ..core.summaries import effective_segments, summarize_intervals

        lower, upper = self.dtw_envelopes(window)
        n_segments = effective_segments(n_segments, lower.shape[1])
        key = ("envelopes", window, n_segments)
        cached = self._summaries.get(key)
        if cached is None:
            cached = summarize_intervals(lower, upper, n_segments)
            self._summaries[key] = cached
        return cached
