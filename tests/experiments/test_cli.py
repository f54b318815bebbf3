"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.trace import Tracer, set_tracer


@pytest.fixture()
def fresh_obs():
    """Fresh global tracer and registry, so an --obs-out run leaves no
    spans or metrics behind for later tests."""
    previous_tracer = set_tracer(Tracer())
    previous_registry = set_registry(MetricsRegistry())
    yield
    set_tracer(previous_tracer)
    set_registry(previous_registry)


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

    def test_serve_obs_dump_holds_the_shards_spans(
        self, capsys, tmp_path, fresh_obs
    ):
        """With shards, --obs-out scrapes their spans into the one dump."""
        dump = tmp_path / "serve.jsonl"
        code = main(
            [
                "serve", "--n-subjects", "50", "--rounds", "2",
                "--parallel", "2", "--obs-out", str(dump),
            ]
        )
        assert code == 0
        names = {
            record["name"]
            for record in map(json.loads, dump.read_text().splitlines())
            if record["kind"] == "span"
        }
        assert {"cluster.solve_batch", "serving.solve_batch", "core.design"} <= names
        capsys.readouterr()
        assert main(["obs", "validate", str(dump)]) == 0

    @pytest.mark.parametrize(
        "command", [["run", "fig6"], ["report"], ["solve"]]
    )
    def test_parallel_only_sizes_serve_shards(self, command):
        """Only ``serve`` takes --parallel (its shard count)."""
        with pytest.raises(SystemExit) as error:
            main([*command, "--parallel", "2"])
        assert error.value.code == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])
