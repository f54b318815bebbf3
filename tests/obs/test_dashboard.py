"""Tests for the live cluster dashboard (repro.obs.dashboard)."""

from __future__ import annotations

import io

import pytest

from repro.errors import ObservabilityError
from repro.obs.dashboard import ClusterTop, render_frame, snapshot_frame


def _stats(requests_by_shard, totals_hit_rate=0.5, routed=10.0):
    return {
        "router": {
            "cluster.routed": {"value": routed},
            "cluster.local_fallbacks": {"value": 0.0},
            "cluster.restarts": {"value": 2.0},
        },
        "shards": {
            shard_id: {
                "requests": float(requests),
                "request_latency_p50_s": 0.002,
                "request_latency_p99_s": 0.009,
                "restarts": 0.0,
                "pid": 1000 + index,
            }
            for index, (shard_id, requests) in enumerate(
                sorted(requests_by_shard.items())
            )
        },
        "totals": {"cache_hit_rate": totals_hit_rate, "cache_entries": 40.0},
    }


class TestSnapshotFrame:
    def test_first_frame_has_zero_qps(self):
        frame = snapshot_frame(_stats({"shard-0": 100}))
        assert frame.total_requests == 100.0
        assert frame.total_qps == 0.0
        (row,) = frame.rows
        assert row.qps == 0.0
        assert row.pid == 1000
        assert row.p50_ms == pytest.approx(2.0)
        assert row.p99_ms == pytest.approx(9.0)

    def test_qps_from_request_deltas(self):
        previous = _stats({"shard-0": 100, "shard-1": 50})
        current = _stats({"shard-0": 120, "shard-1": 80})
        frame = snapshot_frame(current, previous=previous, elapsed_s=2.0)
        rows = {row.shard_id: row for row in frame.rows}
        assert rows["shard-0"].qps == pytest.approx(10.0)
        assert rows["shard-1"].qps == pytest.approx(15.0)
        assert frame.total_qps == pytest.approx(25.0)

    def test_counter_reset_clamps_to_zero(self):
        previous = _stats({"shard-0": 100})
        current = _stats({"shard-0": 5})  # restarted shard's counters reset
        frame = snapshot_frame(current, previous=previous, elapsed_s=1.0)
        assert frame.rows[0].qps == 0.0

    def test_new_shard_between_polls_has_zero_qps(self):
        previous = _stats({"shard-0": 100})
        current = _stats({"shard-0": 110, "shard-1": 40})
        frame = snapshot_frame(current, previous=previous, elapsed_s=1.0)
        rows = {row.shard_id: row for row in frame.rows}
        assert rows["shard-1"].qps == 0.0

    def test_router_counters_and_totals(self):
        frame = snapshot_frame(_stats({"shard-0": 1}, totals_hit_rate=0.75))
        assert frame.routed == 10.0
        assert frame.restarts == 2.0
        # The hit rate and entries are the router cache's: shards have none.
        assert frame.cache_hit_rate == 0.75
        assert frame.cache_entries == 40.0

    def test_missing_latency_fields_render_as_none(self):
        stats = _stats({"shard-0": 1})
        del stats["shards"]["shard-0"]["request_latency_p50_s"]
        del stats["shards"]["shard-0"]["request_latency_p99_s"]
        frame = snapshot_frame(stats)
        assert frame.rows[0].p50_ms is None
        assert frame.rows[0].p99_ms is None


class TestRenderFrame:
    def test_header_and_one_row_per_shard(self):
        frame = snapshot_frame(_stats({"shard-0": 100, "shard-1": 50}))
        text = render_frame(frame)
        lines = text.splitlines()
        assert lines[0].startswith("repro cluster top")
        assert "shards 2" in lines[0]
        assert "cache hit-rate 50.0%" in lines[0]
        assert "cached 40" in lines[0]
        assert "routed 10" in lines[1]
        assert "failovers" not in text
        # Shards keep no cache, so their rows carry no cache columns.
        assert "hit%" not in text and "cached" not in lines[3]
        assert any(line.startswith("shard-0") for line in lines)
        assert any(line.startswith("shard-1") for line in lines)

    def test_missing_latency_renders_dash(self):
        stats = _stats({"shard-0": 1})
        del stats["shards"]["shard-0"]["request_latency_p50_s"]
        del stats["shards"]["shard-0"]["request_latency_p99_s"]
        text = render_frame(snapshot_frame(stats))
        row = next(line for line in text.splitlines() if line.startswith("shard-0"))
        assert " - " in row

    def test_empty_cluster(self):
        text = render_frame(snapshot_frame({"router": {}, "shards": {}}))
        assert "(no live shards)" in text


class TestClusterTop:
    def _top(self, polls, **kwargs):
        """A ClusterTop fed from a list (StopIteration-free stub)."""
        feed = iter(polls)
        out = io.StringIO()
        top = ClusterTop(
            poll=lambda: next(feed),
            out=out,
            interval_s=0.001,
            clock=iter(range(100)).__next__,
            use_ansi=kwargs.pop("use_ansi", False),
        )
        top._sleep = lambda _s: None
        return top, out

    def test_renders_requested_iterations(self):
        top, out = self._top([_stats({"shard-0": 10}), _stats({"shard-0": 30})])
        successes = top.run(iterations=2)
        assert successes == 2
        frames = out.getvalue().count("repro cluster top")
        assert frames == 2
        # Second frame shows the delta-derived qps (20 req over 1 tick).
        assert "20.0" in out.getvalue()

    def test_poll_failures_counted_and_rendered(self):
        def boom():
            raise OSError("down")

        out = io.StringIO()
        top = ClusterTop(
            poll=boom, out=out, interval_s=0.001, clock=lambda: 0.0, use_ansi=False
        )
        top._sleep = lambda _s: None
        assert top.run(iterations=2) == 0
        assert "poll failed" in out.getvalue()

    def test_ansi_clear_only_when_enabled(self):
        top, out = self._top([_stats({"shard-0": 1})], use_ansi=True)
        top.run(iterations=1)
        assert out.getvalue().startswith("\x1b[2J\x1b[H")

    def test_keyboard_interrupt_in_sleep_exits_cleanly(self):
        def interrupt(_seconds):
            raise KeyboardInterrupt

        top, out = self._top([_stats({"shard-0": 1})] * 5)
        top._sleep = interrupt
        assert top.run(iterations=0) == 1

    def test_rejects_bad_interval(self):
        with pytest.raises(ObservabilityError, match="interval"):
            ClusterTop(poll=dict, out=io.StringIO(), interval_s=0.0)
