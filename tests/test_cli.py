"""Tests for the repro.cli command-line interface."""

from __future__ import annotations

import os

import pytest

from repro.cli import _COMMANDS, build_parser, main, run_command
from repro.core import save_collection, spawn
from repro.datasets import generate_dataset
from repro.perturbation import ConstantScenario


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

    def test_no_scoring_switch(self):
        args = build_parser().parse_args(["fig05"])
        assert not hasattr(args, "scoring")  # one scoring path, no switch

    def test_no_index_switch(self):
        # The plan policy is set on a session only (explain --mode).
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig05", "--no-index"])


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


class TestExplain:
    """``python -m repro.cli explain`` on a saved collection: the
    session's ``--mode`` decides whether a plan gets an index stage."""

    @pytest.fixture(scope="class")
    def manifest(self, tmp_path_factory):
        exact = generate_dataset("GunPoint", seed=17, n_series=12, length=14)
        scenario = ConstantScenario("normal", 0.4)
        pdf = [
            scenario.apply(series, spawn(17, "pdf", index))
            for index, series in enumerate(exact)
        ]
        return save_collection(pdf, str(tmp_path_factory.mktemp("pdf")))

    @staticmethod
    def _stages(capsys, manifest, *args):
        """The first word of each summary line below the header."""
        assert main(["explain", manifest, *args]) == 0
        lines = capsys.readouterr().out.splitlines()
        return [line.split()[0] for line in lines[1:]]

    def test_mode_decides_the_index_stage(self, manifest, capsys):
        assert "index" in self._stages(capsys, manifest, "--knn", "3")
        assert "index" not in self._stages(
            capsys, manifest, "--knn", "3", "--mode", "fixed"
        )
        assert "refine" in self._stages(
            capsys, manifest, "--technique", "dust", "--knn", "3"
        )
