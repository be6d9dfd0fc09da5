"""Tests for the repro.cli command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import _COMMANDS, build_parser, main, run_command
from repro.core import InvalidParameterError
from repro.evaluation import get_default_workers, set_default_workers
from repro.queries.planner import (
    effective_index_enabled,
    get_default_policy,
    set_default_policy,
)


@pytest.fixture
def restore_harness_defaults():
    """Snapshot and restore the process-wide workers default."""
    workers = get_default_workers()
    yield
    set_default_workers(workers)


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["fig05"])
        assert args.figure == "fig05"
        assert args.scale is None
        assert args.out is None

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig05", "--scale", "huge"])

    def test_all_figures_have_commands(self):
        expected = {f"fig{n:02d}" for n in range(4, 18)} | {"uniformity"}
        assert set(_COMMANDS) == expected

    def test_workers_and_scoring_default_to_none(self):
        args = build_parser().parse_args(["fig05"])
        assert args.workers is None
        assert not hasattr(args, "scoring")  # one scoring path, no switch

    def test_workers_parses_int(self):
        args = build_parser().parse_args(["fig05", "--workers", "4"])
        assert args.workers == 4


class TestExecution:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig04" in out and "uniformity" in out

    def test_unknown_figure_errors(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_run_uniformity_tiny(self, capsys):
        assert main(["uniformity", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "chi-square" in out
        assert "scale=tiny" in out

    def test_run_fig13_tiny_with_out(self, tmp_path, capsys):
        out_file = tmp_path / "fig13.txt"
        assert main(
            ["fig13", "--scale", "tiny", "--out", str(out_file), "--seed", "3"]
        ) == 0
        assert os.path.isfile(out_file)
        content = out_file.read_text()
        assert "Figure 13" in content

    def test_run_command_returns_table(self):
        text = run_command("uniformity", "tiny", seed=3)
        assert "uniformity" in text
        assert "seed=3" in text

    def test_workers_passthrough_sets_harness_default(
        self, restore_harness_defaults, capsys
    ):
        assert main(["uniformity", "--scale", "tiny", "--workers", "2"]) == 0
        assert get_default_workers() == 2

    def test_invalid_workers_rejected(self, restore_harness_defaults):
        with pytest.raises(InvalidParameterError):
            main(["uniformity", "--scale", "tiny", "--workers", "0"])

    def test_seed_changes_nothing_for_fixed_seed(self):
        a = run_command("uniformity", "tiny", seed=5)
        b = run_command("uniformity", "tiny", seed=5)
        # Strip the timing suffix, which varies run to run.
        strip = lambda s: s.rsplit("[", 1)[0]  # noqa: E731
        assert strip(a) == strip(b)


class TestStatsFlag:
    @pytest.fixture()
    def reset_stats_log(self):
        from repro.evaluation import harness

        yield
        harness._stats_log = None

    def test_stats_prints_pruning_summaries(self, reset_stats_log, capsys):
        assert main(["fig11", "--scale", "tiny", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "pruning statistics" in out
        assert "refine" in out
        assert "decided" in out

    def test_no_stats_block_without_flag(self, reset_stats_log, capsys):
        assert main(["fig11", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "pruning statistics" not in out


class TestNoIndexFlag:
    @pytest.fixture(autouse=True)
    def restore_index_default(self):
        policy = get_default_policy()
        yield
        set_default_policy(policy)

    def test_parser_accepts_flag(self):
        args = build_parser().parse_args(["fig05", "--no-index"])
        assert args.no_index is True
        assert build_parser().parse_args(["fig05"]).no_index is False

    def test_no_index_disables_index_stage(self, capsys):
        assert main(["uniformity", "--scale", "tiny", "--no-index"]) == 0
        assert get_default_policy().use_index is False
        assert not effective_index_enabled(None)

    def test_default_keeps_index_enabled(self, capsys):
        assert main(["uniformity", "--scale", "tiny"]) == 0
        assert effective_index_enabled(None)
