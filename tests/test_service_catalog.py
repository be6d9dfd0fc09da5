"""Catalog lifecycle: persistence, concurrent readers, schema migration.

The contracts under test:

* register → reopen (same process or a *fresh* process) → the entry is
  immediately there and the collection memory-maps without re-ingestion;
* WAL mode lets several concurrent reader processes open the catalog
  while entries exist, each seeing a consistent snapshot — even while
  another connection holds the write lock;
* a catalog written by a **newer** release (higher schema version) is
  rejected with a clear :class:`CatalogError` instead of being misread;
* a v1 catalog migrates in place to the current schema on open,
  backfilling the ``indexed`` / ``artifacts`` columns from manifests;
* deleting a registered collection's payloads out-of-band produces a
  :class:`CatalogError` naming the entry and the manifest.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import build_index, save_collection, spawn
from repro.core.mmapio import MANIFEST_NAME
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.service import CatalogError, ServiceCatalog
from repro.service.catalog import SCHEMA_VERSION

SEED = 902


@pytest.fixture(scope="module")
def pdf():
    exact = generate_dataset("GunPoint", seed=SEED, n_series=10, length=16)
    scenario = ConstantScenario("normal", 0.4)
    return [
        scenario.apply(series, spawn(SEED, "pdf", index))
        for index, series in enumerate(exact)
    ]


@pytest.fixture(scope="module")
def saved(pdf, tmp_path_factory):
    """One saved pdf collection directory (manifest path returned)."""
    directory = tmp_path_factory.mktemp("saved-collection")
    return save_collection(pdf, str(directory))


def _subprocess_env():
    """Make ``repro`` importable from a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    return env


class TestRegistration:
    def test_register_and_get(self, saved, tmp_path):
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            entry = catalog.register("gp", saved)
            assert entry.name == "gp"
            assert entry.manifest_path == os.path.abspath(saved)
            assert entry.kind == "pdf"
            assert entry.n_series == 10
            assert entry.length == 16
            assert not entry.indexed
            assert "values" in entry.artifacts
            assert catalog.get("gp") == entry
            assert "gp" in catalog
            assert catalog.names() == ["gp"]
            assert len(catalog) == 1

    def test_duplicate_requires_replace(self, saved, tmp_path):
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            catalog.register("gp", saved)
            with pytest.raises(CatalogError, match="already registered"):
                catalog.register("gp", saved)
            catalog.register("gp", saved, replace=True)  # refreshes

    def test_register_records_index_artifacts(self, saved, tmp_path):
        directory = os.path.dirname(saved)
        build_index(directory, n_segments=4)
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            entry = catalog.register("gp", saved)
            assert entry.indexed
            assert any(key.startswith("index:") for key in entry.artifacts)

    def test_register_bad_paths(self, tmp_path):
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            with pytest.raises(CatalogError, match="cannot register"):
                catalog.register("ghost", str(tmp_path / "missing"))
            bad = tmp_path / "bad"
            bad.mkdir()
            (bad / MANIFEST_NAME).write_text("{not json", encoding="utf-8")
            with pytest.raises(CatalogError, match="not valid JSON"):
                catalog.register("bad", str(bad))
            (bad / MANIFEST_NAME).write_text(
                json.dumps({"format": "something-else"}), encoding="utf-8"
            )
            with pytest.raises(CatalogError, match="manifest"):
                catalog.register("bad", str(bad))
            with pytest.raises(CatalogError, match="non-empty string"):
                catalog.register("", str(bad))

    def test_unregister(self, saved, tmp_path):
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            catalog.register("gp", saved)
            catalog.unregister("gp")
            assert "gp" not in catalog
            with pytest.raises(CatalogError, match="no collection"):
                catalog.unregister("gp")

    def test_unknown_lookup_names_catalog_and_known(self, saved, tmp_path):
        path = str(tmp_path / "catalog.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("gp", saved)
            with pytest.raises(CatalogError) as excinfo:
                catalog.get("nope")
            message = str(excinfo.value)
            assert "nope" in message
            assert path in message
            assert "gp" in message


class TestOpenCollection:
    def test_open_matches_direct_load(self, pdf, saved, tmp_path):
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            catalog.register("gp", saved)
            collection = catalog.open_collection("gp")
        assert len(collection) == len(pdf)
        np.testing.assert_allclose(
            collection[3].values, pdf[3].values, atol=1e-12
        )

    def test_deleted_payload_names_entry_and_manifest(
        self, pdf, tmp_path
    ):
        directory = tmp_path / "doomed"
        manifest = save_collection(pdf, str(directory))
        with ServiceCatalog(str(tmp_path / "catalog.db")) as catalog:
            catalog.register("doomed", manifest)
            os.remove(directory / "values.npy")
            with pytest.raises(CatalogError) as excinfo:
                catalog.open_collection("doomed")
        message = str(excinfo.value)
        assert "doomed" in message
        assert manifest in message
        assert "values.npy" in message


class TestPersistence:
    def test_reopen_same_process(self, saved, tmp_path):
        path = str(tmp_path / "catalog.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("gp", saved)
        with ServiceCatalog(path) as catalog:
            assert catalog.names() == ["gp"]
            assert catalog.schema_version() == SCHEMA_VERSION
            assert len(catalog.open_collection("gp")) == 10

    def test_reopen_fresh_process(self, saved, tmp_path):
        """Register here; a brand-new interpreter sees and serves it."""
        path = str(tmp_path / "catalog.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("gp", saved)
        script = (
            "import sys\n"
            "from repro.service import ServiceCatalog\n"
            "with ServiceCatalog(sys.argv[1], readonly=True) as catalog:\n"
            "    entry = catalog.get('gp')\n"
            "    collection = catalog.open_collection('gp')\n"
            "    print(entry.kind, len(collection), entry.length)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script, path],
            capture_output=True,
            text=True,
            timeout=120,
            env=_subprocess_env(),
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split() == ["pdf", "10", "16"]

    def test_concurrent_reader_processes(self, saved, tmp_path):
        """Several readers share the WAL catalog at once, all consistent."""
        path = str(tmp_path / "catalog.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("gp", saved)
        script = (
            "import sys\n"
            "from repro.service import ServiceCatalog\n"
            "with ServiceCatalog(sys.argv[1], readonly=True) as catalog:\n"
            "    names = catalog.names()\n"
            "    n = len(catalog.open_collection('gp'))\n"
            "print(','.join(names), n)\n"
        )
        env = _subprocess_env()
        readers = [
            subprocess.Popen(
                [sys.executable, "-c", script, path],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=env,
            )
            for _ in range(4)
        ]
        for reader in readers:
            stdout, stderr = reader.communicate(timeout=120)
            assert reader.returncode == 0, stderr
            assert stdout.split() == ["gp", "10"]

    def test_readonly_cannot_write(self, saved, tmp_path):
        path = str(tmp_path / "catalog.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("gp", saved)
        with ServiceCatalog(path, readonly=True) as catalog:
            with pytest.raises(CatalogError, match="read-only"):
                catalog.register("other", saved)
            with pytest.raises(CatalogError, match="read-only"):
                catalog.unregister("gp")

    def test_held_write_lock_does_not_fail_readers(self, saved, tmp_path):
        path = str(tmp_path / "catalog.db")
        with ServiceCatalog(path) as catalog:
            catalog.register("gp", saved)
        writer = sqlite3.connect(path, isolation_level=None)
        try:
            writer.execute("BEGIN IMMEDIATE")
            writer.execute("DELETE FROM collections WHERE name = 'gp'")
            # The writer holds the lock with its change uncommitted:
            # a read-only catalog still opens, lists and reads the last
            # committed snapshot without a "database is locked" error.
            with ServiceCatalog(path, readonly=True) as reader:
                assert reader.names() == ["gp"]
                assert [entry.name for entry in reader.entries()] == ["gp"]
                assert reader.get("gp").n_series == 10
                assert len(reader.open_collection("gp")) == 10
            writer.execute("ROLLBACK")
        finally:
            writer.close()

    def test_readonly_requires_existing_catalog(self, tmp_path):
        with pytest.raises(CatalogError, match="no catalog database"):
            ServiceCatalog(str(tmp_path / "missing.db"), readonly=True)

    def test_not_a_catalog_rejected(self, tmp_path):
        stray = tmp_path / "stray.db"
        connection = sqlite3.connect(str(stray))
        connection.execute("CREATE TABLE unrelated (x INTEGER)")
        connection.commit()
        connection.close()
        with pytest.raises(CatalogError, match="not a repro service"):
            ServiceCatalog(str(stray), readonly=True)

    def test_close_is_idempotent(self, tmp_path):
        catalog = ServiceCatalog(str(tmp_path / "catalog.db"))
        catalog.close()
        catalog.close()


def _craft_catalog(path: str, version: int, rows=()) -> None:
    """Hand-write a catalog database at an arbitrary schema version."""
    connection = sqlite3.connect(path)
    connection.executescript(
        """
        CREATE TABLE catalog_meta (
            key TEXT PRIMARY KEY, value TEXT NOT NULL
        );
        CREATE TABLE collections (
            name          TEXT PRIMARY KEY,
            manifest_path TEXT NOT NULL,
            kind          TEXT NOT NULL,
            n_series      INTEGER NOT NULL,
            length        INTEGER NOT NULL,
            registered_at TEXT NOT NULL
        );
        """
    )
    connection.execute(
        "INSERT INTO catalog_meta (key, value) VALUES ('schema_version', ?)",
        (str(version),),
    )
    connection.executemany(
        "INSERT INTO collections (name, manifest_path, kind, n_series, "
        "length, registered_at) VALUES (?, ?, ?, ?, ?, ?)",
        rows,
    )
    connection.commit()
    connection.close()


class TestSchemaVersioning:
    def test_newer_catalog_rejected(self, tmp_path):
        path = str(tmp_path / "future.db")
        _craft_catalog(path, SCHEMA_VERSION + 5)
        with pytest.raises(CatalogError, match="newer than this build"):
            ServiceCatalog(path)
        # A newer catalog must survive the rejection unmodified.
        connection = sqlite3.connect(path)
        row = connection.execute(
            "SELECT value FROM catalog_meta WHERE key='schema_version'"
        ).fetchone()
        connection.close()
        assert int(row[0]) == SCHEMA_VERSION + 5

    def test_v1_catalog_migrates_on_open(self, pdf, tmp_path):
        directory = tmp_path / "indexed"
        manifest = save_collection(pdf, str(directory))
        build_index(str(directory), n_segments=4)
        path = str(tmp_path / "v1.db")
        _craft_catalog(
            path,
            1,
            rows=[
                ("gp", os.path.abspath(manifest), "pdf", 10, 16, "2024"),
                ("gone", str(tmp_path / "gone" / MANIFEST_NAME), "pdf",
                 3, 8, "2024"),
            ],
        )
        with ServiceCatalog(path) as catalog:
            assert catalog.schema_version() == SCHEMA_VERSION
            entry = catalog.get("gp")
            # Backfilled from the (re-read) manifest.
            assert entry.indexed
            assert any(k.startswith("index:") for k in entry.artifacts)
            # An unreadable manifest backfills to "no artifacts" but the
            # registration row itself survives the migration.
            gone = catalog.get("gone")
            assert not gone.indexed
            assert gone.artifacts == {}
        # The upgrade is persisted, not re-run per open.
        with ServiceCatalog(path, readonly=True) as catalog:
            assert catalog.schema_version() == SCHEMA_VERSION

    def test_old_catalog_readonly_refuses_migration(self, tmp_path):
        path = str(tmp_path / "v1.db")
        _craft_catalog(path, 1)
        with pytest.raises(CatalogError, match="needs migration"):
            ServiceCatalog(path, readonly=True)
        # Still v1 on disk: readonly opens must never write.
        connection = sqlite3.connect(path)
        row = connection.execute(
            "SELECT value FROM catalog_meta WHERE key='schema_version'"
        ).fetchone()
        connection.close()
        assert int(row[0]) == 1
