"""The harness itself: percentile rule, unit_ms, failure accounting, self time,
overhead and the fixed memory layout."""

import json
import os
import statistics
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from perfbench import harness, layout, run, spans
from perfbench.harness import UnitLog
from perfbench.workload import TracedPhase

ROOT = Path(__file__).resolve().parents[2]


def test_tail_needs_ten_samples_beyond_it():
    assert harness.tail([float(i) for i in range(99)], 0.9) is None
    value, beyond = harness.tail([float(i) for i in range(1, 101)], 0.9)
    assert (value, beyond) == (90.0, 10)
    assert harness.tail([float(i) for i in range(1, 1001)], 0.99) == (990.0, 10)
    assert harness.tail([], 0.5) is None


def test_tails_are_printed_with_their_sample_counts():
    log = UnitLog()
    for index in range(200):
        log.record(index, (index + 1) / 1e3)
    log.elapsed_s = 1.0
    gated, extra = run.end_to_end("serve-http", 1.0, log, 10.0)
    assert gated["unit_ms"].value == pytest.approx(95.5)
    assert gated["unit_ms"].note == "mean of the fastest 190 of 200 units"
    assert extra["unit_median_ms"].value == pytest.approx(100.5)
    assert extra["unit_median_ms"].note == "median of 200 units"
    assert extra["unit_p90_ms"].value == 180.0
    assert extra["unit_p90_ms"].note == "20 of 200 samples beyond it"
    assert "unit_p99_ms" not in extra
    assert extra["units_per_s"].value == 200.0

    short = UnitLog()
    for index in range(50):
        short.record(index, 0.1)
    _, extra = run.end_to_end("churn-200k", 1.0, short, 10.0)
    assert "unit_p90_ms" not in extra and "units_per_s" not in extra


class _Handler(BaseHTTPRequestHandler):
    """Answers /solve_batch from ``server.answers``; scripted faults by request key."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        frame = json.loads(body)["columnar"]
        key = tuple(frame["fingerprints"])
        fault = self.server.faults.get(key)
        if fault == "transport":
            self.close_connection = True
            self.connection.shutdown(2)
            return
        if fault == "500":
            self._send(500, {"error": "boom"})
            return
        designs = [{"compensations": [float.fromhex(v) for v in self.server.answers[subject]]}
                   for subject in frame["subject_ids"]]
        if fault == "wrong":
            designs[0]["compensations"][-1] += 1e-9
        self._send(200, {"columnar": True, "designs": designs, "codes": frame["codes"]})

    def _send(self, status, payload):
        raw = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


def test_a_500_a_transport_error_and_a_wrong_contract_each_count_once():
    from perfbench import serve

    inputs = serve.generate_inputs(seed=5, n_requests=12)
    used = sorted({s for request in inputs.requests for s in request.rows})
    answers = serve.serial_contracts([inputs.subproblems[s] for s in used])
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.answers = answers
    server.faults = {inputs.requests[2].key: "500", inputs.requests[5].key: "transport",
                     inputs.requests[9].key: "wrong"}
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    readings = []
    client_view = SimpleNamespace(port=server.server_address[1],
                                  rss_mb=lambda: readings.append(len(state.outcomes)) or 42.0)
    try:
        state = serve.ServeState(inputs, server=None)
        log = serve.run_clients(state, client_view, 30.0, 0, rss_after=7)
        report = serve.ServeHTTP(seconds=1.0, phases=1).finish(state, [log])
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    assert log.attempted == 12
    assert sorted(log.failures) == [2, 5, 9]
    assert log.failures[2] == "HTTP 500"
    assert log.failures[5].startswith("transport error")
    assert log.failures[9].startswith("wrong contract")
    assert log.failed_share == pytest.approx(3 / 12)
    assert not report.checks[0].passed
    # Peak RSS is read once, after the 7th completed unit, failed ones included.
    assert len(readings) == 1 and readings[0] >= 7 and state.rss_mb == 42.0


def test_self_time_is_duration_minus_the_intervals_children_cover():
    spans_list = [
        ["unit", 0.0, 10.0, -1, 0, 1, None],
        ["design", 1.0, 3.0, 0, 0, 1, None],
        ["best_response", 2.0, 5.0, 0, 0, 1, None],  # overlaps its sibling
        ["payment", 8.0, 12.0, 0, 0, 1, None],  # runs past the parent: clipped
        ["sweep", 1.5, 2.5, 1, 0, 1, None],
    ]
    selfs = spans.self_times(spans_list)
    assert selfs[0] == pytest.approx(10.0 - (4.0 + 2.0))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4), (4, 3)]) == pytest.approx(3.0)


def test_layer_self_times_and_remainder_add_up_to_each_unit():
    spans_list = [
        ["unit", 0.0, 0.010, -1, 0, 1, None],
        ["design_epoch", 0.001, 0.004, 0, 0, 1, None],
        ["design", 0.002, 0.003, 1, 0, 1, None],
        ["columnar_kernel", 0.005, 0.009, 0, 0, 1, None],
        ["payment", 0.006, 0.007, 3, 0, 1, None],
        ["unit", 0.020, 0.025, -1, 1, 1, None],
    ]
    units = spans.breakdown(spans_list, {0: 0, 1: 5})
    first = units[0]
    assert first.total_ms == pytest.approx(10.0)
    assert first.layer_self_ms["simulation.policies"] == pytest.approx(2.0)
    assert first.layer_self_ms["core"] == pytest.approx(1.0)
    assert first.layer_self_ms["simulation.engine"] == pytest.approx(4.0)
    assert first.remainder_ms == pytest.approx(3.0)
    assert sum(first.layer_self_ms.values()) + first.remainder_ms == pytest.approx(first.total_ms)
    assert units[1].remainder_ms == pytest.approx(5.0)


def test_trace_overhead_and_every_per_layer_metric_are_reported():
    spans_list = [["unit", 0.0, 0.012, -1, 0, 1, None], ["design", 0.001, 0.002, 0, 0, 1, None]]
    log = UnitLog()
    log.record(0, 0.012)
    phase = TracedPhase(log=log, spans=spans_list, roots={0: 0},
                        absent={"object_round": "repro.simulation.engine.fast_step not found"},
                        counters={}, absent_counters={})
    metrics, lines = run.traced_metrics(phase, untraced_ms=10.0)
    assert metrics["obs.trace_overhead"].value == pytest.approx(1.2)
    assert metrics["core.design_calls"].value == 1
    assert metrics["simulation.object_rounds"].note.startswith("absent")
    assert metrics["serving.router_ms"].note == "not exercised by this workload"
    assert lines[-1].startswith("largest |layer self times + unaccounted - unit time| = 0.00e+00")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == [
        (m.name, m.unit) for m in spans.LAYER_METRICS
    ]
    assert set(metrics) == {m["name"] for m in declared}


def test_wrappers_restore_the_program_and_missing_functions_are_absent():
    import repro.simulation.engine as engine
    import repro.workers.columnar as columnar
    from repro.core.piecewise import PiecewiseLinear

    original_unique_rows = columnar.unique_rows
    original_kernel = engine.fast_columnar_step
    original_batch = vars(PiecewiseLinear)["batch"]
    recorder = spans.SpanRecorder()
    targets = spans.TARGETS + (spans.Target("gone", "core", "repro.core.designer", "NoSuchThing"),)
    installation = spans.Installation(recorder).install(targets)
    try:
        assert columnar.unique_rows is not original_unique_rows
        assert engine.fast_columnar_step is not original_kernel
        assert "gone" in installation.absent
        columnar.unique_rows(np.zeros((3, 2)))
        assert [span[spans.NAME] for span in recorder.spans] == ["unique_rows"]
    finally:
        installation.uninstall()
    assert columnar.unique_rows is original_unique_rows
    assert engine.fast_columnar_step is original_kernel
    assert vars(PiecewiseLinear)["batch"] is original_batch


def test_unit_ms_leaves_out_the_slowest_five_percent():
    assert harness.trimmed_mean([7.0]) == (7.0, 1)
    assert harness.trimmed_mean([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.5, 4)
    assert harness.trimmed_mean([1.0] * 20)[1] == 19
    assert harness.trimmed_mean([1.0] * 21)[1] == 19
    # A stalled unit does not move it.
    assert harness.trimmed_mean([1.0] * 19 + [50.0]) == (1.0, 19)


def test_unit_ms_moves_with_the_share_of_slow_units_where_the_median_jumps():
    def run_of(slow_share):
        n_slow = round(100 * slow_share)
        return [0.4] * (100 - n_slow) + [0.6] * n_slow

    means = [harness.trimmed_mean(run_of(share))[0] for share in (0.45, 0.55)]
    medians = [statistics.median(run_of(share)) for share in (0.45, 0.55)]
    assert medians == [0.4, 0.6]
    assert means[1] / means[0] < 1.05


def test_runs_re_execute_with_a_fixed_layout(tmp_path):
    child = (
        "import ctypes, os, sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from perfbench import layout\n"
        "libc = ctypes.CDLL(None)\n"
        "libc.personality.argtypes = [ctypes.c_ulong]\n"
        "persona = libc.personality(0xFFFFFFFF)\n"
        "print(bool(persona & layout.ADDR_NO_RANDOMIZE), os.environ.get('PYTHONHASHSEED'))\n"
        "print(layout.exec_with_fixed_layout([sys.executable, '-c', 'raise SystemExit(3)']))\n"
    )
    parent = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT)!r})\n"
        "from perfbench import layout\n"
        f"print(layout.exec_with_fixed_layout([sys.executable, '-c', {child!r}]))\n"
    )
    environ = {k: v for k, v in os.environ.items() if k not in ("PYTHONHASHSEED", layout.MARKER)}
    done = subprocess.run([sys.executable, "-c", parent], env=environ, cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=60, check=True)
    if done.stdout.startswith("random: the kernel refused"):
        pytest.skip("this kernel does not let a process turn address-space randomization off")
    # The parent was replaced by the child, which runs with the layout
    # fixed and does not re-execute again.
    assert done.stdout.splitlines() == [
        "True 0", "fixed: address-space randomization off, PYTHONHASHSEED=0"
    ]


def test_switches_are_unset_and_reported():
    environ = {"REPRO_OBS": "1", "REPRO_FASTPATH": "0", "OTHER": "x"}
    assert harness.pin_switches(environ) == {"REPRO_OBS": "1", "REPRO_FASTPATH": "0"}
    assert environ == {"OTHER": "x"}
    host = harness.host_stamp()
    assert set(host) == {"nproc", "cpu_model", "python", "numpy"}
