"""Tests for memory-mapped collection storage (repro.core.mmapio)."""

from __future__ import annotations

import json
import os
import pickle

import numpy as np
import pytest

from repro.core import (
    Collection,
    InvalidParameterError,
    InvalidSeriesError,
    MappedCollection,
    MappedCollectionError,
    TimeSeries,
    load_collection,
    save_collection,
    spawn,
)
from repro.core.mmapio import MANIFEST_NAME
from repro.datasets import generate_dataset
from repro.distributions import UniformError, with_tails
from repro.perturbation import ConstantScenario, MixedFamilyScenario
from repro.queries import (
    DustTechnique,
    EuclideanTechnique,
    MunichTechnique,
    QueryEngine,
)
from repro.munich import Munich


@pytest.fixture(scope="module")
def exact():
    return generate_dataset("GunPoint", seed=17, n_series=10, length=14)


@pytest.fixture(scope="module")
def pdf(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(17, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def multisample(exact):
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply_multisample(series, 3, spawn(17, "ms", index))
        for index, series in enumerate(exact)
    ]


class TestPdfRoundtrip:
    def test_values_and_metadata(self, pdf, tmp_path):
        manifest = save_collection(pdf, str(tmp_path))
        assert os.path.basename(manifest) == MANIFEST_NAME
        loaded = load_collection(str(tmp_path))
        assert isinstance(loaded, MappedCollection)
        assert loaded.kind == "pdf"
        assert len(loaded) == len(pdf)
        assert np.array_equal(
            loaded.values_matrix(),
            np.vstack([series.observations for series in pdf]),
        )
        for original, reloaded in zip(pdf, loaded):
            assert reloaded.label == original.label
            assert reloaded.name == original.name
            assert reloaded.error_model == original.error_model

    def test_rows_are_zero_copy_views(self, pdf, tmp_path):
        """The payload is a read-only plain ndarray over its map (its
        base keeps the map open), and every row a plain view of it."""
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        payload = loaded.mapped_values
        assert type(payload) is np.ndarray
        assert not payload.flags.writeable
        assert isinstance(payload.base, np.memmap)
        for row, series in enumerate(loaded):
            assert type(series.observations) is np.ndarray
            assert np.shares_memory(series.observations, payload)
            assert not series.observations.flags.writeable

    def test_distance_parity(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        for technique in (EuclideanTechnique(), DustTechnique()):
            direct = technique.distance_matrix(pdf, pdf)
            mapped = technique.distance_matrix(loaded, loaded)
            assert np.max(np.abs(direct - mapped)) <= 1e-9

    def test_engine_warms_from_map(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        engine = QueryEngine()
        materialized = engine.materialize(loaded)
        # The materialization adopts the mapped matrices: zero re-stacking.
        assert materialized.values_matrix() is loaded.mapped_values
        assert materialized.variances_matrix() is loaded.mapped_variances

    def test_eager_mode(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path), mmap_mode=None)
        assert not isinstance(loaded.mapped_values, np.memmap)
        assert np.array_equal(
            loaded.values_matrix(),
            np.vstack([series.observations for series in pdf]),
        )


class TestHeterogeneousErrorModels:
    def test_mixed_family_roundtrip(self, exact, tmp_path):
        scenario = MixedFamilyScenario()
        mixed = [
            scenario.apply(series, spawn(17, "mixed", index))
            for index, series in enumerate(exact)
        ]
        save_collection(mixed, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        for original, reloaded in zip(mixed, loaded):
            assert reloaded.error_model == original.error_model
        technique = DustTechnique()
        direct = technique.distance_matrix(mixed, mixed)
        mapped = technique.distance_matrix(loaded, loaded)
        assert np.max(np.abs(direct - mapped)) <= 1e-9

    def test_mixture_distribution_spec(self, exact, tmp_path):
        from repro.core import ErrorModel, UncertainTimeSeries

        mixture = with_tails(UniformError(0.5))
        series = [
            UncertainTimeSeries(
                item.values, ErrorModel.constant(mixture, len(item))
            )
            for item in exact
        ]
        save_collection(series, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        for original, reloaded in zip(series, loaded):
            assert reloaded.error_model == original.error_model


class TestMultisampleRoundtrip:
    def test_samples_and_bounds(self, multisample, tmp_path):
        save_collection(multisample, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        assert loaded.kind == "multisample"
        for original, reloaded in zip(multisample, loaded):
            assert np.array_equal(reloaded.samples, original.samples)
            assert np.shares_memory(
                reloaded.samples, loaded.mapped_samples
            )
            low_a, high_a = original.bounding_intervals()
            low_b, high_b = reloaded.bounding_intervals()
            assert np.array_equal(low_a, low_b)
            assert np.array_equal(high_a, high_b)

    def test_munich_parity(self, multisample, tmp_path):
        save_collection(multisample, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        technique = MunichTechnique(Munich(tau=0.5, n_bins=64))
        direct = technique.probability_matrix(
            multisample, multisample, 2.5
        )
        mapped = technique.probability_matrix(loaded, loaded, 2.5)
        assert np.max(np.abs(direct - mapped)) <= 1e-9

    def test_engine_bounds_from_map(self, multisample, tmp_path):
        save_collection(multisample, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        engine = QueryEngine()
        materialized = engine.materialize(loaded)
        low, high = materialized.bounding_matrices()
        assert np.array_equal(low, loaded.mapped_samples.min(axis=2))
        column = materialized.sample_column_matrix(0)
        assert np.shares_memory(column, loaded.mapped_samples)


class TestExactRoundtrip:
    def test_timeseries_collection(self, exact, tmp_path):
        save_collection(exact, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        assert loaded.kind == "exact"
        for original, reloaded in zip(exact, loaded):
            assert isinstance(reloaded, TimeSeries)
            assert np.array_equal(reloaded.values, original.values)
            assert reloaded.label == original.label
        assert loaded.name == exact.name


class TestSharding:
    def test_shard_views(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        shard = loaded.shard(3, 8)
        assert len(shard) == 5
        assert shard.shard_range == (3, 8)
        assert np.shares_memory(shard.mapped_values, loaded.mapped_values)
        assert shard[0] is loaded[3]  # items shared, not rebuilt
        nested = shard.shard(1, 3)
        assert nested.shard_range == (4, 6)

    def test_shard_bad_range(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        with pytest.raises(InvalidParameterError):
            loaded.shard(5, 5)
        with pytest.raises(InvalidParameterError):
            loaded.shard(-1, 3)
        with pytest.raises(InvalidParameterError):
            loaded.shard(0, len(loaded) + 1)

    def test_pickle_travels_as_manifest_path(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        shard = loaded.shard(2, 9)
        payload = pickle.dumps(shard)
        # The payload carries the manifest path, not the data: far
        # smaller than the series it references.
        assert len(payload) < loaded.mapped_values.nbytes
        reloaded = pickle.loads(payload)
        assert reloaded.shard_range == (2, 9)
        assert np.array_equal(
            reloaded.values_matrix(), shard.values_matrix()
        )


class TestErrors:
    def test_empty_collection(self, tmp_path):
        with pytest.raises(InvalidParameterError):
            save_collection([], str(tmp_path))

    def test_mixed_kinds(self, exact, pdf, tmp_path):
        with pytest.raises(MappedCollectionError):
            save_collection([exact[0], pdf[0]], str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(MappedCollectionError):
            load_collection(str(tmp_path / "nowhere"))

    def test_deleted_payload_names_manifest_and_file(self, pdf, tmp_path):
        """An out-of-band rm of a payload must not surface as a bare
        numpy FileNotFoundError — the message names the manifest so an
        operator can tell a stale registration from a bug."""
        manifest_path = save_collection(pdf, str(tmp_path))
        os.remove(tmp_path / "variances.npy")
        with pytest.raises(MappedCollectionError) as excinfo:
            load_collection(str(tmp_path))
        message = str(excinfo.value)
        assert "variances.npy" in message
        assert manifest_path in message
        assert "re-save" in message

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    def test_truncated_payload_rejected_at_load(
        self, pdf, tmp_path, mmap_mode
    ):
        """A short ``.npy`` fails in ``load_collection`` itself (not at
        first query), naming the manifest and the payload file."""
        manifest_path = save_collection(pdf, str(tmp_path))
        payload = tmp_path / "values.npy"
        with open(payload, "r+b") as handle:
            handle.truncate(payload.stat().st_size - 5)
        with pytest.raises(MappedCollectionError) as excinfo:
            load_collection(str(tmp_path), mmap_mode=mmap_mode)
        message = str(excinfo.value)
        assert "values.npy" in message
        assert manifest_path in message
        assert "truncated" in message

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    @pytest.mark.parametrize("kind", ["exact", "pdf", "multisample"])
    def test_non_finite_payload_rejected_at_load(
        self, exact, pdf, multisample, tmp_path, kind, mmap_mode
    ):
        """A payload is checked once at load, not row by row, and a NaN
        written into a saved one still fails the load, naming the
        payload, the manifest and the first bad row."""
        items = {"exact": exact, "pdf": pdf, "multisample": multisample}
        manifest_path = save_collection(items[kind], str(tmp_path))
        name = "samples.npy" if kind == "multisample" else "values.npy"
        payload = np.load(tmp_path / name, mmap_mode="r+")
        payload[8, 0] = np.inf
        payload[7, 3] = np.nan
        payload.flush()
        del payload
        with pytest.raises(InvalidSeriesError) as excinfo:
            load_collection(str(tmp_path), mmap_mode=mmap_mode)
        message = str(excinfo.value)
        assert name in message
        assert manifest_path in message
        assert message.endswith("in row 7")

    @pytest.mark.parametrize("mmap_mode", ["r", None])
    @pytest.mark.parametrize(
        "kind, malform",
        [
            ("multisample", lambda samples: samples[:, :, 0]),
            ("multisample", lambda samples: samples[:, :, :0]),
            ("multisample", lambda samples: samples[..., None]),
            ("exact", lambda values: values[:, :0]),
            ("exact", lambda values: values.astype(np.float32)),
            ("pdf", lambda values: values.astype(">f8")),
        ],
        ids=[
            "2d-samples",
            "no-samples",
            "4d-samples",
            "zero-length",
            "float32",
            "big-endian",
        ],
    )
    def test_malformed_payload_rejected_at_load(
        self, exact, pdf, multisample, tmp_path, kind, malform, mmap_mode
    ):
        """The rows a payload's series adopt unchecked are checked whole
        at load: a payload of the wrong rank or dtype, or with empty
        rows, fails the load naming the payload and the manifest."""
        items = {"exact": exact, "pdf": pdf, "multisample": multisample}
        manifest_path = save_collection(items[kind], str(tmp_path))
        name = "samples.npy" if kind == "multisample" else "values.npy"
        malformed = malform(np.load(tmp_path / name))
        np.save(tmp_path / name, malformed)
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["length"] = malformed.shape[1]
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(MappedCollectionError) as excinfo:
            load_collection(str(tmp_path), mmap_mode=mmap_mode)
        message = str(excinfo.value)
        assert name in message
        assert manifest_path in message

    def test_deleted_index_table_names_manifest_and_file(
        self, pdf, tmp_path
    ):
        from repro.core import build_index

        save_collection(pdf, str(tmp_path))
        build_index(str(tmp_path), n_segments=4)
        os.remove(tmp_path / "index_means.npy")
        with pytest.raises(MappedCollectionError) as excinfo:
            load_collection(str(tmp_path))
        message = str(excinfo.value)
        assert "index_means.npy" in message

    def test_bad_version(self, pdf, tmp_path):
        manifest_path = save_collection(pdf, str(tmp_path))
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["version"] = 999
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(MappedCollectionError):
            load_collection(str(tmp_path))

    def test_unknown_family(self, pdf, tmp_path):
        manifest_path = save_collection(pdf, str(tmp_path))
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["distributions"] = [{"family": "cauchy", "std": 1.0}]
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        with pytest.raises(MappedCollectionError):
            load_collection(str(tmp_path))

    def test_manifest_file_path_accepted(self, pdf, tmp_path):
        manifest_path = save_collection(pdf, str(tmp_path))
        loaded = load_collection(manifest_path)
        assert len(loaded) == len(pdf)

    def test_legacy_warm_block_is_ignored(self, pdf, tmp_path):
        """Manifests written with a float32 ``warm`` block still load;
        the block's tables are never opened."""
        manifest_path = save_collection(pdf, str(tmp_path))
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["warm"] = {
            "arrays": {"values32": "warm_values32.npy"},
            "scales": {"values_scale": 1.0},
        }
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        loaded = load_collection(str(tmp_path))
        assert np.array_equal(
            loaded.values_matrix(),
            np.vstack([series.observations for series in pdf]),
        )

    def test_collection_wrapper_roundtrip(self, pdf, tmp_path):
        collection = Collection(pdf, name="wrapped")
        save_collection(collection, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        assert loaded.name == "wrapped"


class TestStreamingWriter:
    def test_chunked_roundtrip(self, tmp_path):
        from repro.core import StreamingCollectionWriter, make_rng

        rng = make_rng(5)
        rows = rng.normal(size=(11, 6))
        with StreamingCollectionWriter(
            str(tmp_path), 11, 6, name="streamed"
        ) as writer:
            writer.append(rows[:4])
            writer.append(rows[4:10])
            assert writer.rows_written == 10
            writer.append(rows[10])  # 1-D chunk promotes to one row
        loaded = load_collection(str(tmp_path))
        assert loaded.kind == "exact"
        assert loaded.name == "streamed"
        assert np.array_equal(loaded.values_matrix(), rows)
        assert all(series.label is None for series in loaded)

    def test_overflow_and_short_write_rejected(self, tmp_path):
        from repro.core import StreamingCollectionWriter

        writer = StreamingCollectionWriter(str(tmp_path), 3, 4)
        writer.append(np.zeros((2, 4)))
        with pytest.raises(InvalidParameterError):
            writer.append(np.zeros((2, 4)))  # would write 4 of 3 rows
        with pytest.raises(InvalidParameterError):
            writer.finalize()  # only 2 of 3 rows written
        with pytest.raises(InvalidParameterError):
            StreamingCollectionWriter(str(tmp_path), 3, 4).append(
                np.zeros((1, 5))
            )

    def test_abort_leaves_no_manifest(self, tmp_path):
        from repro.core import StreamingCollectionWriter
        from repro.core.mmapio import MANIFEST_NAME

        with pytest.raises(RuntimeError):
            with StreamingCollectionWriter(str(tmp_path), 4, 3) as writer:
                writer.append(np.zeros((2, 3)))
                raise RuntimeError("generator died")
        assert not os.path.exists(os.path.join(str(tmp_path), MANIFEST_NAME))
        with pytest.raises(MappedCollectionError):
            load_collection(str(tmp_path))

    def test_finalized_writer_rejects_appends(self, tmp_path):
        from repro.core import StreamingCollectionWriter

        writer = StreamingCollectionWriter(str(tmp_path), 1, 2)
        writer.append(np.zeros((1, 2)))
        manifest = writer.finalize()
        assert writer.finalize() == manifest  # idempotent
        with pytest.raises(InvalidParameterError):
            writer.append(np.zeros((1, 2)))

    def test_stream_fourier_collection(self, tmp_path):
        from repro.datasets import stream_fourier_collection

        manifest = stream_fourier_collection(
            str(tmp_path), n_series=10, length=16, seed=9, chunk_size=4
        )
        loaded = load_collection(manifest)
        assert len(loaded) == 10
        values = loaded.values_matrix()
        assert values.shape == (10, 16)
        assert np.all(np.isfinite(values))
        # Same seed and chunk size reproduce the stream exactly.
        other = tmp_path / "again"
        reloaded = load_collection(
            stream_fourier_collection(
                str(other), n_series=10, length=16, seed=9, chunk_size=4
            )
        )
        assert np.array_equal(values, reloaded.values_matrix())


class TestPersistedIndex:
    def test_exact_kind_tables(self, tmp_path):
        from repro.core import StreamingCollectionWriter, build_index, make_rng
        from repro.core.summaries import segment_means, summarize_values

        rng = make_rng(7)
        rows = rng.normal(size=(9, 12)).cumsum(axis=1)
        with StreamingCollectionWriter(str(tmp_path), 9, 12) as writer:
            writer.append(rows)
        build_index(str(tmp_path), n_segments=4, chunk_rows=4)
        loaded = load_collection(str(tmp_path))
        index = loaded.mapped_index
        assert index is not None and index["segments"] == 4
        assert sorted(index) == ["means", "norms", "segments"]
        assert np.allclose(index["means"], segment_means(rows, 4))
        assert np.allclose(
            index["norms"], summarize_values(rows, 4).weighted_norms()
        )

    def test_manifest_listing_residuals_still_opens(self, pdf, tmp_path):
        """Indexes built before the residual norms were dropped list an
        ``index_residuals.npy`` table: the collection opens and answers
        exactly as a fresh index does."""
        from repro.core import build_index
        from repro.queries import SimilaritySession

        save_collection(pdf, str(tmp_path))
        manifest_path = build_index(str(tmp_path))
        np.save(tmp_path / "index_residuals.npy", np.ones(len(pdf)))
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        manifest["index"]["arrays"]["residuals"] = "index_residuals.npy"
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle)
        loaded = load_collection(str(tmp_path))
        assert "residuals" in loaded.mapped_index
        technique = EuclideanTechnique()
        mapped = (
            SimilaritySession(loaded, engine=QueryEngine())
            .queries()
            .using(technique)
            .knn(3)
        )
        direct = (
            SimilaritySession(pdf, engine=QueryEngine())
            .queries()
            .using(technique)
            .knn(3)
        )
        np.testing.assert_array_equal(mapped.indices, direct.indices)
        np.testing.assert_allclose(
            mapped.scores, direct.scores, rtol=0, atol=1e-9
        )

    def test_pdf_kind_tables(self, pdf, tmp_path):
        from repro.core import build_index
        from repro.core.summaries import segment_means

        save_collection(pdf, str(tmp_path))
        build_index(str(tmp_path), n_segments=3)
        loaded = load_collection(str(tmp_path))
        values = np.vstack([series.observations for series in pdf])
        assert np.allclose(
            loaded.mapped_index["means"], segment_means(values, 3)
        )

    def test_multisample_tables_match_bounding_summaries(
        self, multisample, tmp_path
    ):
        from repro.core import build_index
        from repro.core.summaries import segment_means

        save_collection(multisample, str(tmp_path))
        build_index(str(tmp_path), n_segments=5, chunk_rows=3)
        loaded = load_collection(str(tmp_path))
        index = loaded.mapped_index
        samples = loaded.mapped_samples
        assert np.allclose(
            index["low_means"], segment_means(samples.min(axis=2), 5)
        )
        assert np.allclose(
            index["high_means"], segment_means(samples.max(axis=2), 5)
        )

    def test_engine_adopts_tables_zero_copy(self, pdf, tmp_path):
        from repro.core import build_index
        from repro.core.summaries import DEFAULT_SEGMENTS

        save_collection(pdf, str(tmp_path))
        build_index(str(tmp_path))
        loaded = load_collection(str(tmp_path))
        engine = QueryEngine()
        materialized = engine.materialize(loaded)
        summary = materialized.paa_summary(DEFAULT_SEGMENTS)
        assert np.shares_memory(summary.means, loaded.mapped_index["means"])
        # A non-matching segment count falls back to computing fresh.
        other = materialized.paa_summary(DEFAULT_SEGMENTS + 1)
        assert not np.shares_memory(
            other.means, loaded.mapped_index["means"]
        )

    def test_interval_adoption_skips_bounding_scan(
        self, multisample, tmp_path
    ):
        from repro.core import build_index
        from repro.core.summaries import DEFAULT_SEGMENTS

        save_collection(multisample, str(tmp_path))
        build_index(str(tmp_path))
        loaded = load_collection(str(tmp_path))
        engine = QueryEngine()
        materialized = engine.materialize(loaded)
        summary = materialized.interval_paa_summary(DEFAULT_SEGMENTS)
        assert np.shares_memory(
            summary.low_means, loaded.mapped_index["low_means"]
        )
        # Adoption must not have forced the O(N·n·s) bounding scan.
        assert materialized._bounds is None

    def test_shard_slices_index(self, pdf, tmp_path):
        from repro.core import build_index

        save_collection(pdf, str(tmp_path))
        build_index(str(tmp_path), n_segments=4)
        loaded = load_collection(str(tmp_path))
        shard = loaded.shard(2, 7)
        assert shard.mapped_index["segments"] == 4
        assert np.array_equal(
            shard.mapped_index["means"], loaded.mapped_index["means"][2:7]
        )
        assert np.shares_memory(
            shard.mapped_index["means"], loaded.mapped_index["means"]
        )

    def test_rebuild_overwrites_segment_count(self, pdf, tmp_path):
        from repro.core import build_index

        save_collection(pdf, str(tmp_path))
        build_index(str(tmp_path), n_segments=4)
        build_index(str(tmp_path), n_segments=6)
        loaded = load_collection(str(tmp_path))
        assert loaded.mapped_index["segments"] == 6
        assert loaded.mapped_index["means"].shape[1] == 6

    def test_collections_without_index_load_as_before(self, pdf, tmp_path):
        save_collection(pdf, str(tmp_path))
        loaded = load_collection(str(tmp_path))
        assert loaded.mapped_index is None
        assert loaded.shard(1, 4).mapped_index is None

    def test_indexed_knn_matches_in_memory(self, multisample, tmp_path):
        from repro.core import build_index
        from repro.queries import SimilaritySession

        save_collection(multisample, str(tmp_path))
        build_index(str(tmp_path))
        loaded = load_collection(str(tmp_path))
        technique = EuclideanTechnique()
        mapped = (
            SimilaritySession(loaded, engine=QueryEngine())
            .queries()
            .using(technique)
            .knn(3)
        )
        direct = (
            SimilaritySession(multisample, engine=QueryEngine())
            .queries()
            .using(technique)
            .knn(3)
        )
        assert np.array_equal(mapped.indices, direct.indices)
        assert np.allclose(mapped.scores, direct.scores, atol=1e-9)
