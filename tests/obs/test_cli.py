"""Tests for the ``repro obs`` CLI and the ``--obs-out`` session."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.obs.cli import add_obs_arguments, add_obs_out_argument, obs_session, run_obs
from repro.obs.export import SPAN_SCHEMA, write_jsonl


def _parse(argv):
    parser = argparse.ArgumentParser(prog="obs")
    add_obs_arguments(parser)
    return parser.parse_args(argv)


@pytest.fixture()
def dump(tmp_path, tracer, registry):
    """A valid obs dump with two spans and one counter."""
    with tracer.span("core.design", K=3):
        with tracer.span("core.candidate_build"):
            pass
    registry.counter("serving.requests").inc(4)
    path = tmp_path / "spans.jsonl"
    write_jsonl(path, tracer=tracer, registry=registry)
    return path


class TestReport:
    def test_renders_tree(self, dump, capsys):
        assert run_obs(_parse(["report", str(dump)])) == 0
        out = capsys.readouterr().out
        assert "-- span tree --" in out
        assert "core.design" in out
        assert "  core.candidate_build" in out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run_obs(_parse(["report", str(tmp_path / "nope.jsonl")]))
        assert code == 2
        assert "error:" in capsys.readouterr().out


class TestValidate:
    def test_valid_dump_exits_0(self, dump, capsys):
        assert run_obs(_parse(["validate", str(dump)])) == 0
        assert "2 span record(s) valid" in capsys.readouterr().out

    def test_min_spans_gate(self, dump, capsys):
        assert run_obs(_parse(["validate", str(dump), "--min-spans", "3"])) == 1
        assert "expected >= 3" in capsys.readouterr().out

    def test_schema_problems_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "span", "name": "x"}\n')
        assert run_obs(_parse(["validate", str(bad)])) == 1
        assert "schema problem(s)" in capsys.readouterr().out

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert run_obs(_parse(["validate", str(bad)])) == 2


class TestSchema:
    def test_prints_span_schema(self, capsys):
        assert run_obs(_parse(["schema"])) == 0
        assert json.loads(capsys.readouterr().out) == SPAN_SCHEMA


class TestMetrics:
    def test_renders_prometheus_text(self, dump, capsys):
        assert run_obs(_parse(["metrics", str(dump)])) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serving_requests counter" in out
        assert "repro_serving_requests 4.0" in out


class TestObsOutFlag:
    def test_adds_flag_with_none_default(self):
        parser = argparse.ArgumentParser()
        add_obs_out_argument(parser)
        assert parser.parse_args([]).obs_out is None
        assert parser.parse_args(["--obs-out", "x.jsonl"]).obs_out == "x.jsonl"


class TestObsSession:
    def test_none_path_is_noop(self, tracer):
        tracer.enabled = False
        with obs_session(None):
            assert not tracer.enabled
        assert not tracer.enabled

    def test_enables_tracing_and_dumps(self, tmp_path, tracer, registry, capsys):
        tracer.enabled = False
        path = tmp_path / "out.jsonl"
        with obs_session(str(path)):
            assert tracer.enabled
            with tracer.span("traced"):
                pass
        assert not tracer.enabled
        assert "wrote 1 obs record(s)" in capsys.readouterr().out
        (record,) = [json.loads(line) for line in path.read_text().splitlines()]
        assert record["name"] == "traced"

    def test_sessions_do_not_leak_spans(self, tmp_path, tracer, registry):
        """Each dump holds only its own session's spans, and the global
        tracer keeps none of them (only what it held before)."""
        with tracer.span("before"):
            pass
        first, second = tmp_path / "s1.jsonl", tmp_path / "s2.jsonl"
        with obs_session(str(first)):
            with tracer.span("first"):
                pass
        with obs_session(str(second)):
            with tracer.span("second"):
                pass

        def names(path):
            return [json.loads(line)["name"] for line in path.read_text().splitlines()]

        assert names(first) == ["first"]
        assert names(second) == ["second"]
        assert [span.name for span in tracer.spans()] == ["before"]

    def test_dumps_even_when_body_raises(self, tmp_path, tracer, registry):
        path = tmp_path / "out.jsonl"
        with pytest.raises(RuntimeError):
            with obs_session(str(path)):
                with tracer.span("partial"):
                    pass
                raise RuntimeError("boom")
        assert path.exists()


class TestReportMultiPath:
    def test_multiple_files_merge_into_one_tree(self, tmp_path, tracer, capsys):
        """Router-side and shard-side dumps merge via shared span ids."""
        with tracer.span("cluster.solve_group") as group:
            pass
        router_dump = tmp_path / "router.jsonl"
        write_jsonl(router_dump, tracer=tracer)
        shard_dump = tmp_path / "shard.jsonl"
        shard_dump.write_text(
            json.dumps(
                {
                    "kind": "span",
                    "name": "serving.solve_batch",
                    "span_id": "shard-01",
                    "parent_id": group.span_id,
                    "trace_id": group.trace_id,
                    "start_s": 0.1,
                    "end_s": 0.2,
                    "duration_ms": 100.0,
                }
            )
            + "\n"
        )
        assert run_obs(_parse(["report", str(router_dump), str(shard_dump)])) == 0
        out = capsys.readouterr().out
        assert "cluster.solve_group" in out
        assert "  serving.solve_batch" in out
        assert "<detached>" not in out


class TestTop:
    def test_unreachable_endpoint_exits_2(self, capsys):
        code = run_obs(
            _parse(
                [
                    "top",
                    "http://127.0.0.1:1",  # nothing listens on port 1
                    "--iterations",
                    "1",
                    "--interval",
                    "0.01",
                ]
            )
        )
        assert code == 2


class TestRemovedBench:
    def test_bench_subcommand_is_a_usage_error(self, tmp_path, capsys):
        """``repro obs bench`` is gone; argparse rejects it with exit 2."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["obs", "bench", str(tmp_path / "history.jsonl")])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestObsSessionExtraRecords:
    def test_extra_records_merge_into_the_dump(
        self, tmp_path, tracer, registry, capsys
    ):
        path = tmp_path / "merged.jsonl"
        extra = [
            {
                "kind": "span",
                "name": "serving.solve_batch",
                "span_id": "shard-x",
                "parent_id": None,
                "start_s": 0.0,
                "end_s": 1.0,
                "duration_ms": 1000.0,
                "source": "shard-0",
            }
        ]
        with obs_session(str(path), extra_records=lambda: extra):
            with tracer.span("router.side"):
                pass
        names = {
            json.loads(line)["name"] for line in path.read_text().splitlines()
        }
        assert names == {"router.side", "serving.solve_batch"}
        assert "wrote 2 obs record(s)" in capsys.readouterr().out
