"""The benchmark perf gate: correctness flags, the pass path, missing files."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_gate():
    path = os.path.join(REPO_ROOT, "benchmarks", "check_regression.py")
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gate = _load_gate()

ROWS = [
    {"technique": "dust", "kind": "knn", "knn_seconds_per_query": 0.01},
    {"technique": "munich", "kind": "prob", "prob_seconds_per_query": 0.02},
]


def _all_ok_payload():
    payload = {"results": [dict(row) for row in ROWS]}
    for key, field in gate.CORRECTNESS_FLAGS:
        payload[key] = {field: True}
    return payload


def _write(directory, name, payload):
    path = os.path.join(str(directory), name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


def test_all_ok_passes(tmp_path):
    fresh = _write(tmp_path, "fresh.json", _all_ok_payload())
    baseline = _write(tmp_path, "base.json", _all_ok_payload())
    assert gate.main([fresh, baseline]) == 0


@pytest.mark.parametrize("key, field", gate.CORRECTNESS_FLAGS)
def test_each_false_flag_fails(tmp_path, capsys, key, field):
    payload = _all_ok_payload()
    payload[key][field] = False
    fresh = _write(tmp_path, "fresh.json", payload)
    baseline = _write(tmp_path, "base.json", _all_ok_payload())
    assert gate.main([fresh, baseline]) == 1
    assert f"{key}.{field} is false" in capsys.readouterr().out


@pytest.mark.parametrize("missing", ["fresh", "baseline"])
def test_missing_file_exits_2(tmp_path, missing):
    present = _write(tmp_path, "present.json", _all_ok_payload())
    absent = os.path.join(str(tmp_path), "absent.json")
    args = [absent, present] if missing == "fresh" else [present, absent]
    assert gate.main(args) == 2
