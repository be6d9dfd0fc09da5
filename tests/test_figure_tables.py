"""The paper's F1 and precision/recall numbers, gated exactly.

Every figure runner that reports accuracy (figures 4-10 and 13-17) runs at
``TINY`` scale with seed 2012, and its table must equal the committed one
in ``tests/data/figure_tables_tiny_seed2012.json`` cell for cell.  A
refactor that moves any F1 or precision/recall value fails here.

A change that moves the numbers on purpose re-records the file with::

    PYTHONPATH=src python tests/test_figure_tables.py --record

and lists every moved cell with its reason.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

from repro import experiments
from repro.experiments import TINY, clear_sweep_cache

FIGURES = (4, 5, 6, 7, 8, 9, 10, 13, 14, 15, 16, 17)
SEED = 2012
TABLES_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    f"figure_tables_tiny_seed{SEED}.json",
)


def canonical(table):
    """A result table with string keys and float values, as JSON stores it."""
    if isinstance(table, dict):
        return {str(key): canonical(value) for key, value in table.items()}
    return float(table)


def run_figure(number: int):
    return canonical(getattr(experiments, f"run_figure{number}")(TINY, seed=SEED))


@pytest.fixture(scope="module")
def recorded():
    with open(TABLES_PATH, "r", encoding="utf-8") as handle:
        tables = json.load(handle)
    # σ sweeps are memoized per scale name and seed; start from an empty
    # memo so the tables come from this run, not from an earlier test.
    clear_sweep_cache()
    yield tables
    clear_sweep_cache()


@pytest.mark.parametrize("number", FIGURES)
def test_figure_table_matches_recorded(recorded, number):
    assert run_figure(number) == recorded[str(number)]


def test_recorded_tables_cover_every_figure(recorded):
    assert sorted(recorded, key=int) == [str(number) for number in FIGURES]


def record() -> None:
    clear_sweep_cache()
    tables = {str(number): run_figure(number) for number in FIGURES}
    os.makedirs(os.path.dirname(TABLES_PATH), exist_ok=True)
    with open(TABLES_PATH, "w", encoding="utf-8") as handle:
        json.dump(tables, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(f"usage: {sys.argv[0]} --record")
    record()
