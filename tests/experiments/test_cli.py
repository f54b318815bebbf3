"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("table2", "table3", "fig6", "fig8c"):
            assert experiment_id in output

    def test_run_single(self, capsys):
        code = main(["run", "fig6", "--scale", "small", "--seed", "11"])
        output = capsys.readouterr().out
        assert code == 0
        assert "Fig. 6" in output
        assert "PASS" in output

    @pytest.mark.parametrize("parallel", ["0", "1"])
    def test_serve_rounds_through_the_router(self, capsys, parallel):
        code = main(
            ["serve", "--n-subjects", "20", "--rounds", "2", "--parallel", parallel]
        )
        output = capsys.readouterr().out
        assert code == 0
        assert "round 1:" in output
        assert "20 served from cache" in output
        assert f"-- serving stats ({parallel} shard(s)) --" in output

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
