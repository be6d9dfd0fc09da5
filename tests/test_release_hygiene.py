"""Release hygiene: the public surface is importable, documented, and the
docs reference artifacts that actually exist."""

from __future__ import annotations

import importlib
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import repro

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


SUBPACKAGES = sorted(
    info.name
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
)


def _walk_modules():
    """Import every repro submodule; yields (name, module)."""
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield info.name, importlib.import_module(info.name)


class TestPublicSurface:
    def test_api_all_names_resolve(self):
        from repro import api

        for name in api.__all__:
            assert hasattr(api, name), name

    def test_subpackage_all_names_resolve(self):
        for module_name, module in _walk_modules():
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module_name}.{name}"

    def test_every_module_has_docstring(self):
        for module_name, module in _walk_modules():
            assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_public_classes_and_functions_documented(self):
        undocumented = []
        for module_name, module in _walk_modules():
            for name in getattr(module, "__all__", ()):
                obj = getattr(module, name)
                if callable(obj) and not getattr(obj, "__doc__", None):
                    undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented

    @pytest.mark.parametrize("subpackage", SUBPACKAGES)
    def test_subpackage_imports_first(self, subpackage, subprocess_env):
        """Every subpackage imports on its own in a fresh interpreter,
        with no other ``repro`` module loaded before it."""
        result = subprocess.run(
            [sys.executable, "-c", f"import repro.{subpackage}"],
            env=subprocess_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_version_consistent_with_pyproject(self):
        with open(os.path.join(REPO_ROOT, "pyproject.toml")) as handle:
            text = handle.read()
        match = re.search(r'^version = "([^"]+)"', text, re.M)
        assert match and match.group(1) == repro.__version__


#: A failing property test and a test that raises a DeprecationWarning.
HYPOTHESIS_PROBE = """
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, database=None, deadline=None)
@given(st.integers())
def test_fails(value):
    assert value != value


def test_warns():
    warnings.warn("project code is deprecated", DeprecationWarning)
"""


class TestPytestConfig:
    def test_failing_property_prints_its_example(self, tmp_path):
        """Under the repo's pytest config a failing ``@given`` test
        reports its falsifying example (no INTERNALERROR), and a
        DeprecationWarning still fails its test."""
        pytest.importorskip("hypothesis")
        probe = tmp_path / "test_probe.py"
        probe.write_text(HYPOTHESIS_PROBE)
        result = subprocess.run(
            [
                sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                "-c", os.path.join(REPO_ROOT, "pyproject.toml"),
                "--rootdir", str(tmp_path), str(probe),
            ],
            cwd=str(tmp_path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        output = result.stdout + result.stderr
        assert "Falsifying example" in output, output
        assert "INTERNALERROR" not in output, output
        assert "2 failed" in output, output


class TestDocsConsistency:
    @pytest.fixture(scope="class")
    def design_text(self):
        with open(os.path.join(REPO_ROOT, "DESIGN.md")) as handle:
            return handle.read()

    def test_design_bench_references_exist(self, design_text):
        for bench_name in set(re.findall(r"bench_\w+\.py", design_text)):
            if "N" in bench_name:
                continue  # prose placeholder like bench_figNN.py
            path = os.path.join(REPO_ROOT, "benchmarks", bench_name)
            assert os.path.isfile(path), bench_name

    def test_design_module_references_exist(self, design_text):
        for module_name in set(re.findall(r"`repro\.([\w.]+)`", design_text)):
            if "N" in module_name:
                continue  # prose placeholder like experiments.figN
            importlib.import_module(f"repro.{module_name}")

    def test_readme_examples_exist(self):
        with open(os.path.join(REPO_ROOT, "README.md")) as handle:
            readme = handle.read()
        for example in set(re.findall(r"`(\w+\.py)`", readme)):
            if example in ("setup.py",):
                continue
            path = os.path.join(REPO_ROOT, "examples", example)
            assert os.path.isfile(path), example

    def test_every_figure_module_has_bench(self):
        """DESIGN.md's contract: one bench per paper figure."""
        for figure in range(4, 18):
            path = os.path.join(
                REPO_ROOT, "benchmarks", f"bench_fig{figure:02d}.py"
            )
            assert os.path.isfile(path), f"missing bench for figure {figure}"

    def test_experiments_md_covers_every_figure(self):
        with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as handle:
            text = handle.read()
        for figure in (4, 5, 8, 9, 10, 11, 12, 13, 14):
            assert f"Figure {figure}" in text, figure
        assert "Figures 6–7" in text
        assert "Figures 15–17" in text
