"""Self-test of the end-to-end benchmark.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Runs ``run.py --quick`` (tiny inputs, all four workloads) untraced and
traced, then checks what the benchmark promises: every metric named in
``BENCHMARK.json`` is emitted with its unit, no op fails, the span tree is
well formed, op streams follow the seed, and the command refuses to run
without the library sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import deploy  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(deploy.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)
NAMES = [entry["name"] for entry in BENCHMARK["workloads"]]


def _run(*args, cwd=deploy.ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "benchmarks", "e2e", "run.py"), *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=300,
    )


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    for trace in ("0", "1"):
        completed = _run("--quick", "--trace", trace, "--out", str(out))
        assert completed.returncode == 0, completed.stdout[-4000:]
    results = {}
    for name in NAMES:
        for suffix in ("", "-trace"):
            with open(out / f"{name}{suffix}.json", encoding="utf-8") as handle:
                results[name + suffix] = json.load(handle)
    return results


@pytest.mark.parametrize("name", NAMES)
def test_every_end_to_end_metric_is_emitted_with_its_unit(quick, name):
    metrics = quick[name]["metrics"]
    for entry in BENCHMARK["end_to_end"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]
        assert metrics[entry["name"]]["value"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_every_layer_metric_is_emitted_with_its_unit(quick, name):
    metrics = quick[name + "-trace"]["metrics"]
    assert [m for m in metrics] == [e["name"] for e in BENCHMARK["per_layer"]]
    for entry in BENCHMARK["per_layer"]:
        assert metrics[entry["name"]]["unit"] == entry["unit"]


@pytest.mark.parametrize("name", NAMES)
def test_no_op_fails_and_every_check_passes(quick, name):
    for result in (quick[name], quick[name + "-trace"]):
        assert result["correct"]
        assert result["failed"] == 0
        assert result["diagnostics"]["fail_frac"] == 0.0
        assert result["diagnostics"]["checks"]["checked"] > 0


@pytest.mark.parametrize("name", NAMES)
def test_span_invariants_hold(quick, name):
    traced = quick[name + "-trace"]
    assert traced["span_problem_count"] == 0, traced["span_problems"]


def test_span_checker_reports_violations():
    spans = [
        (0, "op", 0.0, 10.0, -1, 0),
        (1, "inside", 1.0, 4.0, 0, 0),
        (2, "outside", 9.0, 12.0, 0, 0),
        (3, "orphan", 1.0, 2.0, 7, 0),
    ]
    problems = tracing.check_spans(spans)
    assert any("outside" in problem for problem in problems)
    assert any("orphan" in problem for problem in problems)
    assert tracing.check_spans(spans[:2]) == []


def test_op_streams_follow_the_seed():
    sizes = workloads.sizes_of("serve-daemon", quick=True)
    first = [workloads.serve_stream(2012, sizes)(i) for i in range(200)]
    again = [workloads.serve_stream(2012, sizes)(i) for i in range(200)]
    other = [workloads.serve_stream(7, sizes)(i) for i in range(200)]
    assert first == again
    assert first != other

    sizes = workloads.sizes_of("prob-inproc", quick=True)
    ranked = {
        "pdf": np.sort(np.random.default_rng(0).random((sizes["pdf_series"],) * 2)),
        "ms": np.sort(np.random.default_rng(1).random((sizes["ms_series"],) * 2)),
    }
    stream = workloads.prob_stream(2012, sizes, ranked)
    ops = [stream(i) for i in range(100)]
    assert ops == [workloads.prob_stream(2012, sizes, ranked)(i) for i in range(100)]
    assert ops != [workloads.prob_stream(7, sizes, ranked)(i) for i in range(100)]


def test_op_mix_is_exact_per_block():
    sizes = workloads.sizes_of("serve-daemon", quick=True)
    stream = workloads.serve_stream(2012, sizes)
    mix = workloads.SPEC["workloads"]["serve-daemon"]["op_mix"]
    kinds = [stream(i).kind for i in range(stream.block * 3)]
    for kind, spec in mix.items():
        assert kinds.count(kind) == round(spec["share"] * stream.block * 3)


def test_spec_and_benchmark_agree():
    spec = workloads.SPEC
    assert list(spec["workloads"]) == NAMES
    assert [(n, m["unit"], m["better"]) for n, m in spec["layer_metrics"].items()] == [
        (e["name"], e["unit"], e["better"]) for e in BENCHMARK["per_layer"]
    ]
    bounds = {e["name"]: e["bound"] for e in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) <= 0.25
    assert bounds["setup_s"] == max(bounds.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(deploy.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=str(tmp_path))
    assert completed.returncode != 0
    assert not any(line.startswith("{") for line in completed.stdout.splitlines())
