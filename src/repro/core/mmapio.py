"""Memory-mapped collection storage: out-of-core similarity workloads.

A collection larger than RAM cannot be held as series objects, and
shipping one to another process by pickling every series copies the
whole dataset.  This module stores a collection as flat ``.npy``
matrices plus a small JSON manifest, so any process — a shard daemon, a
later session, a different machine sharing a filesystem — re-opens the
values **zero-copy** through ``numpy``'s memory mapping and lets the OS
page data in on demand.

On-disk layout (``save_collection(collection, directory)``)::

    directory/
        collection.json     # the manifest (see below)
        values.npy          # (N, n) float64 point estimates
        variances.npy       # (N, n) float64 error variances (pdf kind)
        samples.npy         # (N, n, s) float64 draws (multisample kind)

Manifest format (``collection.json``, version 1)::

    {
      "format": "repro-collection",
      "version": 1,
      "kind": "exact" | "pdf" | "multisample",
      "n_series": N, "length": n, "samples_per_timestamp": s,   # s: ms only
      "name": "...", "labels": [...], "series_names": [...],
      "arrays": {"values": "values.npy", ...},                  # per kind
      "distributions": [ {"family": "normal", "std": 0.4},      # pdf only:
                         {"family": "mixture",                  # dedup table
                          "weights": [...], "components": [...]} ],
      "error_models": [ {"code": 0} |                           # homogeneous
                        {"codes": [0, 1, ...]} ]                # per series
    }

:func:`load_collection` rebuilds a :class:`MappedCollection` whose series
objects hold **row views** of the mapped matrices (no copies; each array
is opened read-only as a plain ``ndarray`` view of its ``np.memmap``, and
validated once, not once per row) and whose materialization hooks
(:attr:`MappedCollection.mapped_values` and friends) let a
:class:`~repro.queries.engine.CollectionMaterialization` warm its dense
matrices straight from the map instead of re-stacking rows.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..distributions.base import ErrorDistribution
from .collection import Collection
from .errors import InvalidParameterError, InvalidSeriesError
from .series import TimeSeries
from .uncertain import (
    ErrorModel,
    MultisampleUncertainTimeSeries,
    UncertainTimeSeries,
)

#: File name of the JSON manifest inside a saved-collection directory.
MANIFEST_NAME = "collection.json"
#: Manifest schema marker / version (bump on incompatible changes).
MANIFEST_FORMAT = "repro-collection"
MANIFEST_VERSION = 1


class MappedCollectionError(InvalidSeriesError):
    """A saved collection directory or manifest is malformed."""


# ---------------------------------------------------------------------------
# Error-distribution (de)serialization
# ---------------------------------------------------------------------------


def _distribution_spec(distribution: ErrorDistribution) -> Dict:
    """JSON-serializable spec of one error distribution."""
    # Imported here: ``repro.distributions`` imports ``repro.core``, so a
    # module-level import would cycle when it is imported first.
    from ..distributions import FAMILIES, MixtureError

    if isinstance(distribution, MixtureError):
        return {
            "family": "mixture",
            "weights": [float(w) for w in distribution.weights],
            "components": [
                _distribution_spec(c) for c in distribution.components
            ],
        }
    if distribution.family in FAMILIES:
        return {"family": distribution.family, "std": float(distribution.std)}
    raise MappedCollectionError(
        f"cannot serialize error distribution family "
        f"{distribution.family!r}; known families: "
        f"{sorted(FAMILIES)} + mixture"
    )


def _distribution_from_spec(spec: Dict) -> ErrorDistribution:
    """Rebuild an error distribution from its manifest spec."""
    from ..distributions import FAMILIES, MixtureError, make_distribution

    family = spec.get("family")
    if family == "mixture":
        components = [
            _distribution_from_spec(c) for c in spec["components"]
        ]
        return MixtureError(components, spec["weights"])
    if family in FAMILIES:
        return make_distribution(family, spec["std"])
    raise MappedCollectionError(
        f"unknown error distribution family {family!r} in manifest"
    )


def _encode_error_models(
    items: Sequence[UncertainTimeSeries],
) -> Tuple[List[Dict], List[Dict]]:
    """Dedup every distinct distribution into a table + per-series codes."""
    table: Dict[ErrorDistribution, int] = {}
    models: List[Dict] = []
    for item in items:
        model = item.error_model
        if model.is_homogeneous:
            code = table.setdefault(model[0], len(table))
            models.append({"code": code})
        else:
            models.append({
                "codes": [
                    table.setdefault(d, len(table)) for d in model
                ]
            })
    specs = [_distribution_spec(d) for d in table]
    return specs, models


def _decode_error_model(
    entry: Dict, table: Sequence[ErrorDistribution], length: int
) -> ErrorModel:
    """Rebuild one series' error model from its manifest entry."""
    if "code" in entry:
        return ErrorModel.constant(table[entry["code"]], length)
    codes = entry["codes"]
    if len(codes) != length:
        raise MappedCollectionError(
            f"error-model codes length {len(codes)} != series length {length}"
        )
    return ErrorModel([table[code] for code in codes])


# ---------------------------------------------------------------------------
# Saving
# ---------------------------------------------------------------------------


def _collection_kind(items: Sequence) -> str:
    """The uniform series kind of a collection, or raise."""
    kinds = set()
    for item in items:
        if isinstance(item, UncertainTimeSeries):
            kinds.add("pdf")
        elif isinstance(item, MultisampleUncertainTimeSeries):
            kinds.add("multisample")
        elif isinstance(item, TimeSeries):
            kinds.add("exact")
        else:
            raise MappedCollectionError(
                f"cannot save series of type {type(item).__name__}"
            )
    if len(kinds) != 1:
        raise MappedCollectionError(
            f"a saved collection must hold one series kind, got "
            f"{sorted(kinds)}"
        )
    return kinds.pop()


def save_collection(collection: Sequence, directory: str) -> str:
    """Save ``collection`` under ``directory``; returns the manifest path.

    The collection must be non-empty and hold one series kind (exact /
    pdf / multisample).  Existing files in ``directory`` are overwritten.
    """
    items = list(collection)
    if not items:
        raise InvalidParameterError("cannot save an empty collection")
    kind = _collection_kind(items)
    os.makedirs(directory, exist_ok=True)

    manifest: Dict = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "kind": kind,
        "n_series": len(items),
        "length": len(items[0]),
        "name": getattr(collection, "name", None),
        "labels": [getattr(item, "label", None) for item in items],
        "series_names": [getattr(item, "name", None) for item in items],
        "arrays": {},
    }

    def _write(array_name: str, matrix: np.ndarray) -> None:
        file_name = f"{array_name}.npy"
        np.save(
            os.path.join(directory, file_name),
            np.ascontiguousarray(matrix, dtype=np.float64),
        )
        manifest["arrays"][array_name] = file_name

    if kind == "multisample":
        _write("samples", np.stack([item.samples for item in items]))
        manifest["samples_per_timestamp"] = items[0].samples_per_timestamp
    else:
        _write("values", np.vstack([item.values for item in items]))
    if kind == "pdf":
        _write(
            "variances",
            np.vstack([item.error_model.variances() for item in items]),
        )
        specs, models = _encode_error_models(items)
        manifest["distributions"] = specs
        manifest["error_models"] = models

    manifest_path = os.path.join(directory, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return manifest_path


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


class MappedCollection(Collection):
    """A collection whose dense matrices are memory-mapped from disk.

    Behaves exactly like :class:`~repro.core.collection.Collection` — the
    items are real series objects — but every series holds a **view** into
    the mapped value/variance/sample matrices, and the ``mapped_*``
    attributes let :class:`~repro.queries.engine.CollectionMaterialization`
    adopt the maps directly (zero copies, OS-paged).

    Pickling a mapped collection transfers only the manifest path and the
    shard range: the receiving process re-opens the maps itself, so
    handing one to another process copies no series data.
    """

    #: The item list is fixed at load time and the maps are read-only:
    #: a materialization's ``is_current`` skips its per-item identity scan.
    immutable_items = True

    __slots__ = (
        "manifest_path",
        "mmap_mode",
        "kind",
        "mapped_values",
        "mapped_variances",
        "mapped_samples",
        "mapped_index",
        "_shard_range",
    )

    def __init__(
        self,
        items: Sequence,
        *,
        manifest_path: str,
        mmap_mode: Optional[str],
        kind: str,
        mapped_values: Optional[np.ndarray],
        mapped_variances: Optional[np.ndarray],
        mapped_samples: Optional[np.ndarray],
        shard_range: Tuple[int, int],
        name: Optional[str] = None,
        mapped_index: Optional[Dict] = None,
        _validated: bool = False,
    ) -> None:
        super().__init__(items, name=name, _validated=_validated)
        self.manifest_path = manifest_path
        self.mmap_mode = mmap_mode
        self.kind = kind
        self.mapped_values = mapped_values
        self.mapped_variances = mapped_variances
        self.mapped_samples = mapped_samples
        self.mapped_index = mapped_index
        self._shard_range = shard_range

    @property
    def shard_range(self) -> Tuple[int, int]:
        """``(start, stop)`` rows of the saved collection this view holds."""
        return self._shard_range

    def values_matrix(self) -> np.ndarray:
        """The mapped ``(N, n)`` point-estimate matrix (no re-stacking)."""
        if self.mapped_values is not None:
            return self.mapped_values
        return super().values_matrix()

    def shard(self, start: int, stop: int) -> "MappedCollection":
        """A zero-copy row-range view ``[start, stop)`` of this collection.

        Items are shared (not rebuilt) and every mapped matrix is sliced,
        so a shard costs O(1) memory regardless of its width.
        """
        n_series = len(self)
        if not 0 <= start < stop <= n_series:
            raise InvalidParameterError(
                f"shard range [{start}, {stop}) invalid for "
                f"{n_series} series"
            )
        offset = self._shard_range[0]

        def _sliced(matrix: Optional[np.ndarray]) -> Optional[np.ndarray]:
            return None if matrix is None else matrix[start:stop]

        index = None
        if self.mapped_index is not None:
            index = {
                key: (table if key == "segments" else table[start:stop])
                for key, table in self.mapped_index.items()
            }

        return MappedCollection(
            self._items[start:stop],
            manifest_path=self.manifest_path,
            mmap_mode=self.mmap_mode,
            kind=self.kind,
            mapped_values=_sliced(self.mapped_values),
            mapped_variances=_sliced(self.mapped_variances),
            mapped_samples=_sliced(self.mapped_samples),
            shard_range=(offset + start, offset + stop),
            name=self.name,
            mapped_index=index,
            _validated=True,
        )

    def __reduce__(self):
        start, stop = self._shard_range
        return (
            _load_shard,
            (self.manifest_path, self.mmap_mode, start, stop),
        )

    def __repr__(self) -> str:
        start, stop = self._shard_range
        return (
            f"MappedCollection(kind={self.kind!r}, rows=[{start}, {stop}), "
            f"length={self.series_length}, "
            f"manifest={self.manifest_path!r})"
        )


def _resolve_manifest(path: str) -> str:
    """Accept either a directory or the manifest file itself."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise MappedCollectionError(f"no collection manifest at {path!r}")
    return path


def load_collection(
    path: str, mmap_mode: Optional[str] = "r"
) -> MappedCollection:
    """Open a saved collection; ``path`` is the directory or manifest file.

    ``mmap_mode="r"`` (the default) memory-maps every matrix read-only —
    series values are views and pages load on demand.  Pass
    ``mmap_mode=None`` to read the arrays eagerly into RAM (same API,
    no mapping).
    """
    manifest_path = _resolve_manifest(path)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise MappedCollectionError(
            f"{manifest_path!r} is not a {MANIFEST_FORMAT} manifest"
        )
    if manifest.get("version") != MANIFEST_VERSION:
        raise MappedCollectionError(
            f"unsupported manifest version {manifest.get('version')!r} "
            f"(expected {MANIFEST_VERSION})"
        )

    directory = os.path.dirname(manifest_path)

    def _open_file(file_name: str) -> np.ndarray:
        array_path = os.path.join(directory, file_name)
        if not os.path.isfile(array_path):
            # A bare numpy FileNotFoundError would name only the .npy
            # file; the manifest is what the user registered, so the
            # error must point back at it.
            raise MappedCollectionError(
                f"collection payload {array_path!r} referenced by manifest "
                f"{manifest_path!r} is missing; the saved collection is "
                f"incomplete (payload or index tables deleted?) — re-save "
                f"it with save_collection()/build_index()"
            )
        try:
            array = np.load(array_path, mmap_mode=mmap_mode)
        except (ValueError, EOFError) as error:
            # A truncated payload fails here with numpy's bare "mmap
            # length is greater than file size" / "Failed to read all
            # data"; reject it at load, naming both files.
            raise MappedCollectionError(
                f"collection payload {array_path!r} referenced by manifest "
                f"{manifest_path!r} is truncated or corrupt ({error}); "
                f"re-save it with save_collection()/build_index()"
            ) from error
        if mmap_mode is not None:
            # A plain ndarray view of the map: zero-copy, and slicing,
            # gathering or a ufunc on it (or on a row) skips memmap's
            # Python-level hooks.  Its base keeps the map open.
            array = array.view(np.ndarray)
        elif array.base is not None:
            # np.load returns a view over a writeable buffer; re-own it
            # so no writeable array can change the rows viewing it.
            array = array.copy()
        array.setflags(write=False)
        return array

    def _check_payload(payload: np.ndarray, array_name: str) -> None:
        """Check, once, a payload whose rows the series adopt as
        already-validated views, instead of each series constructor
        checking its row: native ``float64``, one row per series (of
        timestamps, or of timestamps x samples), no empty row, and every
        value finite.  A bad payload raises naming its file; a
        non-finite one raises the :class:`InvalidSeriesError` a
        constructor would, naming the first bad row.
        """
        # Defined by the package after this module is imported.
        from . import MATRIX_BLOCK_ELEMENTS

        array_path = os.path.join(directory, manifest["arrays"][array_name])
        ndim = 3 if array_name == "samples" else 2
        if (
            payload.dtype != np.float64
            or payload.ndim != ndim
            or 0 in payload.shape[1:]
        ):
            raise MappedCollectionError(
                f"collection payload {array_path!r} referenced by manifest "
                f"{manifest_path!r} must be a {ndim}-D float64 array with "
                f"non-empty rows, got {payload.dtype} of shape "
                f"{payload.shape}; re-save it with save_collection()"
            )
        row_size = math.prod(payload.shape[1:])
        block = max(1, MATRIX_BLOCK_ELEMENTS // row_size)
        for start in range(0, len(payload), block):
            finite = np.isfinite(payload[start:start + block])
            if not finite.all():
                rows = finite.reshape(len(finite), -1).all(axis=1)
                raise InvalidSeriesError(
                    f"collection payload {array_path!r} referenced by "
                    f"manifest {manifest_path!r} holds non-finite values "
                    f"in row {start + int(np.argmin(rows))}"
                )

    def _open(array_name: str) -> Optional[np.ndarray]:
        file_name = manifest["arrays"].get(array_name)
        if file_name is None:
            return None
        return _open_file(file_name)

    kind = manifest.get("kind")
    n_series = manifest["n_series"]
    length = manifest["length"]
    labels = manifest.get("labels") or [None] * n_series
    names = manifest.get("series_names") or [None] * n_series

    values = _open("values")
    variances = _open("variances")
    samples = _open("samples")

    items: List = []
    if kind == "multisample":
        if samples is None or samples.shape[:2] != (n_series, length):
            raise MappedCollectionError(
                f"samples matrix missing or mis-shaped in {manifest_path!r}"
            )
        _check_payload(samples, "samples")
        for row in range(n_series):
            items.append(
                MultisampleUncertainTimeSeries(
                    samples[row],
                    label=labels[row],
                    name=names[row],
                    _validated=True,
                )
            )
    elif kind in ("pdf", "exact"):
        if values is None or values.shape != (n_series, length):
            raise MappedCollectionError(
                f"values matrix missing or mis-shaped in {manifest_path!r}"
            )
        _check_payload(values, "values")
        if kind == "pdf":
            table = [
                _distribution_from_spec(spec)
                for spec in manifest.get("distributions", [])
            ]
            models = manifest.get("error_models", [])
            if len(models) != n_series:
                raise MappedCollectionError(
                    f"expected {n_series} error models, got {len(models)}"
                )
            for row in range(n_series):
                items.append(
                    UncertainTimeSeries(
                        values[row],
                        _decode_error_model(models[row], table, length),
                        label=labels[row],
                        name=names[row],
                        _validated=True,
                    )
                )
        else:
            for row in range(n_series):
                items.append(
                    TimeSeries(
                        values[row],
                        label=labels[row],
                        name=names[row],
                        _validated=True,
                    )
                )
    else:
        raise MappedCollectionError(
            f"unknown collection kind {kind!r} in {manifest_path!r}"
        )

    mapped_index: Optional[Dict] = None
    index_spec = manifest.get("index")
    if index_spec:
        mapped_index = {"segments": int(index_spec["segments"])}
        for key, file_name in index_spec["arrays"].items():
            table = _open_file(file_name)
            if table.shape[0] != n_series:
                raise MappedCollectionError(
                    f"index table {file_name!r} has {table.shape[0]} rows "
                    f"for {n_series} series"
                )
            mapped_index[key] = table

    return MappedCollection(
        items,
        manifest_path=manifest_path,
        mmap_mode=mmap_mode,
        kind=kind,
        mapped_values=values,
        mapped_variances=variances,
        mapped_samples=samples,
        shard_range=(0, n_series),
        name=manifest.get("name"),
        mapped_index=mapped_index,
        _validated=True,
    )


def _load_shard(
    manifest_path: str, mmap_mode: Optional[str], start: int, stop: int
) -> MappedCollection:
    """Unpickle helper: re-open the maps, then slice to the shard range."""
    collection = load_collection(manifest_path, mmap_mode=mmap_mode)
    if (start, stop) == collection.shard_range:
        return collection
    return collection.shard(start, stop)


# ---------------------------------------------------------------------------
# Streaming writes and index construction
# ---------------------------------------------------------------------------


class StreamingCollectionWriter:
    """Write an exact-kind collection chunk by chunk, straight to the map.

    ``save_collection`` stacks every series in RAM before writing — fine
    for the paper-scale datasets, impossible for the 10⁶-series
    scalability collections.  The streaming writer pre-allocates
    ``values.npy`` as a writeable memory map and lets a generator
    :meth:`append` row chunks into it; no more than one chunk is ever
    resident.  :meth:`finalize` (or a clean ``with`` exit) validates the
    row count and writes the manifest — until then the directory holds
    no manifest and cannot be opened by :func:`load_collection`.

    Only the ``exact`` kind streams: pdf/multisample collections carry
    per-series error metadata that the paper-scale experiments build in
    memory anyway (:func:`save_collection`).
    """

    def __init__(
        self,
        directory: str,
        n_series: int,
        length: int,
        name: Optional[str] = None,
    ) -> None:
        if n_series < 1:
            raise InvalidParameterError(
                f"n_series must be >= 1, got {n_series}"
            )
        if length < 1:
            raise InvalidParameterError(f"length must be >= 1, got {length}")
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.n_series = int(n_series)
        self.length = int(length)
        self.name = name
        self._values: Optional[np.ndarray] = np.lib.format.open_memmap(
            os.path.join(directory, "values.npy"),
            mode="w+",
            dtype=np.float64,
            shape=(self.n_series, self.length),
        )
        self._row = 0
        self.manifest_path: Optional[str] = None

    @property
    def rows_written(self) -> int:
        """Rows appended so far."""
        return self._row

    def append(self, chunk: np.ndarray) -> None:
        """Write the next ``(rows, length)`` value chunk into the map."""
        if self._values is None:
            raise InvalidParameterError(
                "writer is finalized; no further chunks accepted"
            )
        chunk = np.atleast_2d(np.asarray(chunk, dtype=np.float64))
        if chunk.ndim != 2 or chunk.shape[1] != self.length:
            raise InvalidParameterError(
                f"chunk must be (rows, {self.length}), got shape "
                f"{chunk.shape}"
            )
        if not np.all(np.isfinite(chunk)):
            raise InvalidSeriesError("chunk values must be finite")
        stop = self._row + chunk.shape[0]
        if stop > self.n_series:
            raise InvalidParameterError(
                f"chunk overflows the declared {self.n_series} series "
                f"(rows {self._row}:{stop})"
            )
        self._values[self._row:stop] = chunk
        self._row = stop

    def finalize(self) -> str:
        """Flush the map, write the manifest; returns the manifest path."""
        if self._values is None:
            return self.manifest_path
        if self._row != self.n_series:
            raise InvalidParameterError(
                f"wrote {self._row} of the declared {self.n_series} series"
            )
        self._values.flush()
        self._values = None
        manifest = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "kind": "exact",
            "n_series": self.n_series,
            "length": self.length,
            "name": self.name,
            "labels": None,
            "series_names": None,
            "arrays": {"values": "values.npy"},
        }
        self.manifest_path = os.path.join(self.directory, MANIFEST_NAME)
        with open(self.manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.write("\n")
        return self.manifest_path

    def __enter__(self) -> "StreamingCollectionWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()
        else:
            self._values = None  # drop the map; leave no manifest behind


def build_index(
    path: str,
    n_segments: Optional[int] = None,
    chunk_rows: int = 65536,
) -> str:
    """Build the PAA summarization-index tables of a saved collection.

    Streams the mapped matrices chunk by chunk (never more than
    ``chunk_rows`` rows resident), writes the per-kind index tables next
    to the manifest, and records them under the manifest's ``"index"``
    key so :func:`load_collection` re-opens them zero-copy:

    * exact / pdf — ``index_means.npy`` (``(N, S)`` segment means of the
      point estimates) + ``index_norms.npy`` (``(N,)`` width-weighted
      squared norms of those means, the query-independent half of the
      lower bound's GEMM): the Euclidean-family geometry;
    * multisample — ``index_low_means.npy`` / ``index_high_means.npy``
      (``(N, S)`` segment means of the per-timestamp sample min/max
      envelopes): MUNICH's interval geometry.

    Returns the manifest path.  Rebuilding with a different segment
    count overwrites the previous tables.  A manifest written before the
    index dropped its residual norms still lists
    ``index_residuals.npy``; it opens as before, and nothing reads the
    table.
    """
    from .summaries import (
        DEFAULT_SEGMENTS,
        effective_segments,
        segment_means,
        segment_widths,
    )

    if chunk_rows < 1:
        raise InvalidParameterError(
            f"chunk_rows must be >= 1, got {chunk_rows}"
        )
    if n_segments is None:
        n_segments = DEFAULT_SEGMENTS
    manifest_path = _resolve_manifest(path)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise MappedCollectionError(
            f"{manifest_path!r} is not a {MANIFEST_FORMAT} manifest"
        )
    directory = os.path.dirname(manifest_path)
    kind = manifest.get("kind")
    n_series = manifest["n_series"]
    length = manifest["length"]
    n_segments = effective_segments(n_segments, length)

    def _table(file_name: str, shape: Tuple[int, ...]) -> np.ndarray:
        return np.lib.format.open_memmap(
            os.path.join(directory, file_name),
            mode="w+",
            dtype=np.float64,
            shape=shape,
        )

    arrays: Dict[str, str] = {}
    if kind == "multisample":
        samples = np.load(
            os.path.join(directory, manifest["arrays"]["samples"]),
            mmap_mode="r",
        )
        low_means = _table("index_low_means.npy", (n_series, n_segments))
        high_means = _table("index_high_means.npy", (n_series, n_segments))
        for start in range(0, n_series, chunk_rows):
            stop = min(start + chunk_rows, n_series)
            block = np.asarray(samples[start:stop])
            low_means[start:stop] = segment_means(
                block.min(axis=2), n_segments
            )
            high_means[start:stop] = segment_means(
                block.max(axis=2), n_segments
            )
        low_means.flush()
        high_means.flush()
        arrays = {
            "low_means": "index_low_means.npy",
            "high_means": "index_high_means.npy",
        }
    elif kind in ("exact", "pdf"):
        values = np.load(
            os.path.join(directory, manifest["arrays"]["values"]),
            mmap_mode="r",
        )
        means = _table("index_means.npy", (n_series, n_segments))
        norms = _table("index_norms.npy", (n_series,))
        widths = segment_widths(length, n_segments)
        for start in range(0, n_series, chunk_rows):
            stop = min(start + chunk_rows, n_series)
            block = np.asarray(values[start:stop])
            chunk_means = segment_means(block, n_segments)
            means[start:stop] = chunk_means
            norms[start:stop] = np.einsum(
                "js,s,js->j", chunk_means, widths, chunk_means
            )
        means.flush()
        norms.flush()
        arrays = {
            "means": "index_means.npy",
            "norms": "index_norms.npy",
        }
    else:
        raise MappedCollectionError(
            f"unknown collection kind {kind!r} in {manifest_path!r}"
        )

    manifest["index"] = {"segments": int(n_segments), "arrays": arrays}
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
        handle.write("\n")
    return manifest_path
