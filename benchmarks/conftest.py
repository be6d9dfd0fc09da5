r"""Shared fixtures for the figure benchmarks.

Each bench regenerates one figure of the paper at the scale selected by
``REPRO_SCALE`` (default ``reduced``), prints the same rows/series the
paper plots, asserts the paper's shape, and archives the rendered table
under ``benchmarks/results/``.  Figures 4–10 and 13–17 run once per
seed in :data:`FIGURE_SEEDS`.  Without pytest-benchmark, or with it
disabled, :class:`OneRoundBenchmark` runs each bench once::

    REPRO_SCALE=reduced PYTHONPATH=src python -m pytest -p no:benchmark \
        -o python_functions='bench_*' -q \
        benchmarks/bench_fig0[4-9].py benchmarks/bench_fig1[03-7].py
"""

from __future__ import annotations

import os
import sys

import pytest

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def record():
    """Print a rendered figure table and archive it to benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        # stderr so the tables survive pytest's stdout capture.
        print(f"\n{text}\n[saved to {path}]", file=sys.stderr)

    return _record


#: Experiment seeds the seeded figure benches check the paper's shapes
#: at: the seeds of the e2e benchmark's exact references.
FIGURE_SEEDS = (2012, 7)


@pytest.fixture(params=FIGURE_SEEDS)
def seed(request):
    """The experiment seed of one figure-bench run."""
    return request.param


class OneRoundBenchmark:
    """The one call of pytest-benchmark's ``pedantic`` the benches use.

    Registered as a plugin only when pytest-benchmark is absent or
    disabled (``-p no:benchmark``), so an installed plugin keeps its own
    fixture and timing report.
    """

    @pytest.fixture
    def benchmark(self):
        """Run a bench's target once (no timing statistics)."""
        return self

    def pedantic(self, target, args=(), kwargs=None, rounds=1, iterations=1):
        """Call ``target`` once and return its result."""
        return target(*args, **(kwargs or {}))


def pytest_configure(config):
    """Stand in for pytest-benchmark's fixture when the plugin is off."""
    if not config.pluginmanager.hasplugin("benchmark"):
        config.pluginmanager.register(OneRoundBenchmark(), "one-round-benchmark")
