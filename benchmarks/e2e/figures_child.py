"""One pass of the paper's figure runners in a fresh process.

    python benchmarks/e2e/figures_child.py

Prints ``ready`` once ``repro.experiments`` is imported, then reads one
JSON job line from stdin::

    {"seed": 2012, "figures": [4, 5], "scale": {...}, "recheck": 8,
     "spans_out": null}

runs ``run_figureN(scale, seed=seed)`` for each figure in order, re-runs
figure ``recheck`` untimed (a determinism check) and prints one JSON
result line: per-call seconds, the canonical result tables, CPU seconds
and peak RSS.  With ``spans_out`` set, every call is traced and the spans
are written there.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import deploy  # noqa: E402
import tracing  # noqa: E402


def canonical(table) -> str:
    """A figure's result table as canonical JSON (keys and floats as text)."""

    def normalize(value):
        if isinstance(value, dict):
            return {str(key): normalize(item) for key, item in value.items()}
        return float(value)

    return json.dumps(normalize(table), sort_keys=True)


def main() -> int:
    from repro import experiments
    from repro.experiments.config import Scale

    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line:
        return 0
    job = json.loads(line)
    settings = job["scale"]
    scale = Scale(
        name="bench",
        n_series=settings["n_series"],
        series_length=settings["series_length"],
        n_queries=settings["n_queries"],
        sigmas=tuple(settings["sigmas"]),
        dataset_names=tuple(settings["datasets"]),
    )
    tracer = None
    if job.get("spans_out"):
        tracer = tracing.install(tracing.Tracer())
        tracer.enable()

    def figure(number: int) -> str:
        runner = getattr(experiments, f"run_figure{number}")
        return canonical(runner(scale, seed=job["seed"]))

    calls, tables, errors = [], {}, {}
    cpu_before = deploy.cpu_seconds()
    for index, number in enumerate(job["figures"]):
        started = time.perf_counter()
        try:
            if tracer is not None:
                tables[str(number)] = tracer.op(index, figure, number)
            else:
                tables[str(number)] = figure(number)
        except Exception as error:  # noqa: BLE001 — reported as a failed op
            errors[str(number)] = f"{type(error).__name__}: {error}"
        calls.append([number, time.perf_counter() - started])
    cpu = deploy.cpu_seconds() - cpu_before
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(job["spans_out"])
    recheck = job.get("recheck")
    rechecked = figure(recheck) if recheck is not None else None
    print(
        json.dumps(
            {
                "calls": calls,
                "tables": tables,
                "errors": errors,
                "recheck": [recheck, rechecked],
                "cpu_s": cpu,
                "peak_rss_mb": deploy.peak_rss_mb(),
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
