"""Release hygiene: the public surface is importable, documented, and the
docs reference artifacts that actually exist."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
import json
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


#: Each top-level package's layer.  A module may import from its own
#: layer and the layers below it, never from a higher one.
LAYER_RANKS = {
    "core": 0,
    "distributions": 1,
    "stats": 1,
    "datasets": 1,
    "distances": 2,
    "perturbation": 2,
    "dust": 3,
    "proud": 3,
    "munich": 3,
    "queries": 4,
    "evaluation": 5,
    "service": 5,
    "experiments": 6,
    "cli": 7,
    "api": 7,
}

#: The sanctioned upward imports (DESIGN.md, "Layering"): the error
#: model holds distribution values, and the mmap manifest codec
#: (de)serializes them.
UPWARD_IMPORTS = {
    ("repro.core.mmapio", "distributions"),
    ("repro.core.uncertain", "distributions"),
}

#: ``benchmarks/e2e/tracing.py`` targets that name code the library has
#: deleted or renamed.  The tracer skips a target that does not resolve,
#: so its per-layer metric silently reads 0; ROADMAP item 6 drops these
#: eight.  Any other target that stops resolving is a refactor dropping
#: a name the benchmark's per-layer metrics hang on.
STALE_TRACER_TARGETS = {
    ("repro.service.cluster", None, "encode_message"),
    ("repro.service.cluster", None, "decode_message"),
    ("repro.service.daemon", None, "execute_batch"),
    ("repro.service.daemon", None, "execute_shard_batch"),
    ("repro.queries.session", None, "sparse_knn_table"),
    ("repro.service.batching", None, "local_topk_rows"),
    ("repro.queries.techniques", None, "plan_for_workload"),
    ("repro.queries.techniques", None, "banded_dtw_from_costs"),
}


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


def _repro_imports():
    """``(module, imported package)`` for every import of a ``repro``
    module by a module below the root package, deferred imports
    included."""
    source_root = os.path.dirname(repro.__file__)
    for directory, _, files in os.walk(source_root):
        for file_name in files:
            if not file_name.endswith(".py"):
                continue
            path = os.path.join(directory, file_name)
            module_path = os.path.relpath(path, source_root)[:-3]
            dotted = ["repro"] + module_path.split(os.sep)
            is_package = dotted[-1] == "__init__"
            parts = dotted[:-1] if is_package else dotted
            if len(parts) < 2:
                continue
            package = parts if is_package else parts[:-1]
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    targets = [alias.name.split(".") for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    level = node.level
                    base = package[: len(package) + 1 - level] if level else []
                    if node.module:
                        base = base + node.module.split(".")
                    # ``from repro import x`` imports the package x.
                    targets = [base + [alias.name] for alias in node.names]
                else:
                    continue
                for target in targets:
                    if target[0] == "repro" and len(target) > 1:
                        yield ".".join(parts), target[1]


class TestLayering:
    def test_every_package_has_a_layer(self):
        assert set(SUBPACKAGES) | {"cli", "api"} == set(LAYER_RANKS)

    def test_no_module_imports_a_higher_layer(self):
        upward = sorted(
            f"{module} -> repro.{package}"
            for module, package in _repro_imports()
            if LAYER_RANKS[package] > LAYER_RANKS[module.split(".")[1]]
            and (module, package) not in UPWARD_IMPORTS
        )
        assert upward == []


class TestTracerTargets:
    def test_unresolved_targets_are_the_known_stale_ones(self):
        """Loads the e2e tracer as it is and resolves its targets the
        way its ``install`` does."""
        path = os.path.join(REPO_ROOT, "benchmarks", "e2e", "tracing.py")
        spec = importlib.util.spec_from_file_location("e2e_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        resolved, unresolved = 0, set()
        for module_name, class_name, attribute, *_ in tracing._targets():
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            if owner is not None and class_name is not None:
                owner = getattr(owner, class_name, None)
            if inspect.getattr_static(owner, attribute, None) is None:
                unresolved.add((module_name, class_name, attribute))
            else:
                resolved += 1
        assert unresolved == STALE_TRACER_TARGETS
        assert resolved == 31


#: Modules whose technique hooks and stages read the two materialized
#: sides a plan hands them, and look no collection up themselves.
PLAN_SIDE_MODULES = ("techniques", "index")

#: Runs one indexed Euclidean kNN and one MUNICH prob-range in-process
#: under the e2e tracer (path in ``argv[1]``) and prints its counters.
TRACED_PLANS_PROBE = """
import importlib.util
import json
import sys

spec = importlib.util.spec_from_file_location("e2e_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.install(tracing.Tracer())
tracer.enable()

from repro.core import spawn
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario
from repro.queries import EuclideanTechnique, MunichTechnique, SimilaritySession

exact = generate_dataset("GunPoint", seed=7, n_series=24, length=32)
scenario = ConstantScenario("normal", 0.4)
pdf = [scenario.apply(s, spawn(7, "pdf", i)) for i, s in enumerate(exact)]
samples = [
    scenario.apply_multisample(s, 3, spawn(7, "ms", i))
    for i, s in enumerate(exact)
]
SimilaritySession(pdf).queries([0]).using(EuclideanTechnique()).knn(3)
SimilaritySession(samples).queries([0]).using(MunichTechnique()).prob_range(
    4.0, 0.5
)
print(json.dumps({name: sum(values) for name, values in tracer.counters.items()}))
"""


class TestPlanResolvesMaterializations:
    @pytest.mark.parametrize("module", PLAN_SIDE_MODULES)
    def test_hooks_make_no_engine_lookup(self, module):
        """Only ``QueryPlan.execute`` resolves materializations: these
        modules call no ``.materialize(`` and name no engine."""
        path = os.path.join(REPO_ROOT, "src", "repro", "queries", f"{module}.py")
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        engine_names = {"QueryEngine", "SHARED_ENGINE"}
        found = []
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "materialize"
            ):
                found.append(f"line {node.lineno}: .materialize(")
            elif isinstance(node, ast.Name) and node.id in engine_names:
                found.append(f"line {node.lineno}: {node.id}")
            elif isinstance(node, ast.Attribute) and node.attr in engine_names:
                found.append(f"line {node.lineno}: .{node.attr}")
            elif isinstance(node, ast.alias) and node.name in engine_names:
                found.append(f"import of {node.name}")
        assert found == []

    def test_tracer_reads_the_plans_it_wraps(self, subprocess_env):
        """The e2e tracer's ``QueryPlan.execute`` callback reads the
        call's positional arguments; a signature change that breaks it
        is counted in ``trace.callback_errors``, not raised."""
        path = os.path.join(REPO_ROOT, "benchmarks", "e2e", "tracing.py")
        result = subprocess.run(
            [sys.executable, "-c", TRACED_PLANS_PROBE, path],
            env=subprocess_env,
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        counters = json.loads(result.stdout.strip().splitlines()[-1])
        assert "trace.callback_errors" not in counters
        for stage in ("index", "bounds", "refine"):
            assert counters.get(f"plan.{stage}.seconds", 0.0) > 0.0, stage


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
