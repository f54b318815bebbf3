"""Tests for the cluster HTTP/JSON front end (stdlib client, real sockets)."""

from __future__ import annotations

import http.client
import json
import pickle
import socket

import pytest

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.serving import HTTPServerThread, ShardRouter
from repro.serving.cluster.codec import (
    columnar_frame,
    design_to_json,
    frame_from_json,
    frame_to_json,
    subproblems_from_frame,
)
from repro.serving.cluster.http import MAX_BODY_BYTES
from repro.serving.fingerprint import subproblem_fingerprint
from repro.serving.workload import synthetic_subproblems


@pytest.fixture(scope="module")
def workload():
    return synthetic_subproblems(n_subjects=12, n_archetypes=4, seed=31)


@pytest.fixture(scope="module")
def endpoint(workload):
    with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
        with HTTPServerThread(router) as thread:
            yield thread.address


def _frame_body(subproblems, fingerprints=None):
    """A ``/solve_batch`` body: the subproblems as one columnar frame."""
    if fingerprints is None:
        fingerprints = [subproblem_fingerprint(s) for s in subproblems]
    return {"columnar": frame_to_json(columnar_frame(subproblems, fingerprints))}


def _fanned_out(payload):
    """A columnar reply's designs, one per request, in request order."""
    return [payload["designs"][code] for code in payload["codes"]]


def _serial_bytes(subproblems):
    serial = solve_subproblems(subproblems, mu=1.0)
    return {
        subject_id: pickle.dumps(list(solution.result.contract.compensations))
        for subject_id, solution in serial.items()
    }


def _call(endpoint, method, path, payload=None):
    host, port = endpoint
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        body = None if payload is None else json.dumps(payload)
        conn.request(method, path, body=body)
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _call_text(endpoint, method, path):
    """Raw-text variant of _call for the Prometheus exposition."""
    host, port = endpoint
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return (
            response.status,
            response.getheader("Content-Type", ""),
            response.read().decode("utf-8"),
        )
    finally:
        conn.close()


def _prometheus_samples(text):
    """``{sample_name_with_labels: value}`` from exposition text."""
    samples = {}
    for line in text.splitlines():
        if line.startswith("#") or not line.strip():
            continue
        name, value = line.rsplit(" ", 1)
        samples[name] = float(value)
    return samples


def _rebuilt(subproblems):
    """The frame's representatives after a JSON round trip."""
    body = json.loads(json.dumps(_frame_body(subproblems)))
    representatives, _ = subproblems_from_frame(frame_from_json(body["columnar"]))
    return representatives


class TestCodec:
    def test_round_trip_preserves_fingerprint(self, workload):
        # The front end recomputes each row's fingerprint from the
        # decoded row, so a decoded row must fingerprint as it did.
        for subproblem in workload:
            (rebuilt,) = _rebuilt([subproblem])
            assert subproblem_fingerprint(rebuilt) == subproblem_fingerprint(
                subproblem
            )

    def test_json_round_trip_preserves_float_bytes(self, workload):
        (rebuilt,) = _rebuilt(workload[:1])
        assert rebuilt.params.beta == workload[0].params.beta
        assert rebuilt.effort_function.coefficients() == (
            workload[0].effort_function.coefficients()
        )

    def test_malformed_payload_raises_serving_error(self, workload):
        body = _frame_body(workload[:1])["columnar"]
        with pytest.raises(ServingError):
            frame_from_json({"table": body["table"]})  # no other fields
        bad_type = dict(body, worker_types=[99])
        with pytest.raises(ServingError):
            subproblems_from_frame(frame_from_json(bad_type))

    def test_design_encoding_fields(self, workload):
        solution = solve_subproblems(workload[:1], mu=1.0)
        result = next(iter(solution.values())).result
        payload = design_to_json("w0", result, fingerprint="fp", cache_hit=True)
        assert payload["subject_id"] == "w0"
        assert payload["fingerprint"] == "fp"
        assert payload["cache_hit"] is True
        assert isinstance(payload["compensations"], list)


class TestEndpoints:
    def test_healthz(self, endpoint):
        status, payload = _call(endpoint, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["n_healthy"] == 2

    def test_stats(self, endpoint):
        status, payload = _call(endpoint, "GET", "/stats")
        assert status == 200
        assert "router" in payload and "shards" in payload

    def test_solve_matches_serial_bit_for_bit(self, endpoint, workload):
        # One design is a one-row frame.
        expected = _serial_bytes(workload[:1])[workload[0].subject_id]
        status, payload = _call(
            endpoint, "POST", "/solve_batch", _frame_body(workload[:1])
        )
        assert status == 200
        (design,) = _fanned_out(payload)
        assert design["subject_id"] == workload[0].subject_id
        # JSON repr-floats round-trip doubles exactly: bit-identical.
        assert pickle.dumps(design["compensations"]) == expected

    def test_solve_batch_preserves_order_and_reports_hits(
        self, endpoint, workload
    ):
        body = _frame_body(workload)
        status, payload = _call(endpoint, "POST", "/solve_batch", body)
        assert status == 200
        assert payload["codes"] == body["columnar"]["codes"]
        designs = _fanned_out(payload)
        assert [d["fingerprint"] for d in designs] == [
            subproblem_fingerprint(s) for s in workload
        ]
        expected = _serial_bytes(workload)
        for subproblem, design in zip(workload, designs):
            assert pickle.dumps(design["compensations"]) == (
                expected[subproblem.subject_id]
            )
        status, payload = _call(endpoint, "POST", "/solve_batch", body)
        assert all(d["cache_hit"] for d in payload["designs"])

    def test_solve_route_and_subproblem_bodies_are_gone(self, endpoint, workload):
        status, _ = _call(endpoint, "POST", "/solve", _frame_body(workload[:1]))
        assert status == 404
        status, payload = _call(
            endpoint, "POST", "/solve_batch", {"subproblems": [{"subject_id": "w0"}]}
        )
        assert status == 400
        assert "columnar" in payload["error"]

    def test_bad_json_is_400(self, endpoint):
        host, port = endpoint
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("POST", "/solve_batch", body="{not json")
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]
        # Nesting too deep to parse was a RecursionError and a 500.
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            conn.request("POST", "/solve_batch", body="[" * 100_000)
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_missing_fields_is_400(self, endpoint, workload):
        frame = _frame_body(workload[:1])["columnar"]
        del frame["fingerprints"]
        status, payload = _call(endpoint, "POST", "/solve_batch", {"columnar": frame})
        assert status == 400
        assert "error" in payload

    def test_unknown_path_is_404(self, endpoint):
        status, _ = _call(endpoint, "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, endpoint):
        status, _ = _call(endpoint, "POST", "/healthz", {})
        assert status == 405
        status, _ = _call(endpoint, "GET", "/solve_batch")
        assert status == 405

    def test_keep_alive_serves_multiple_requests(self, endpoint, workload):
        host, port = endpoint
        conn = http.client.HTTPConnection(host, port, timeout=30.0)
        try:
            for _ in range(3):
                conn.request(
                    "POST", "/solve_batch", body=json.dumps(_frame_body(workload[:1]))
                )
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()

    def test_stats_reports_shard_pids_hit_rate_and_totals(
        self, endpoint, workload
    ):
        _call(endpoint, "POST", "/solve_batch", _frame_body(workload))
        status, payload = _call(endpoint, "GET", "/stats")
        assert status == 200
        assert payload["shards"]
        for snapshot in payload["shards"].values():
            assert snapshot["pid"] > 0
            assert snapshot["restarts"] == 0.0
            # Shards keep no cache: the hit rate is the router's.
            assert "cache_hit_rate" not in snapshot
        totals = payload["totals"]
        assert 0.0 <= totals["cache_hit_rate"] <= 1.0
        assert totals["cache_entries"] == len(
            {subproblem_fingerprint(s) for s in workload}
        )
        # The shards solved the router cache's misses, nothing else.
        assert totals["cache_misses"] == sum(
            s["requests"] for s in payload["shards"].values()
        )

    def test_healthz_reports_restart_counts(self, endpoint):
        status, payload = _call(endpoint, "GET", "/healthz")
        assert status == 200
        for shard in payload["shards"].values():
            assert shard["restarts"] == 0

    def test_degraded_healthz_is_503(self, workload):
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as thread:
                router.kill_shard(router.shard_ids[0])
                status, payload = _call(thread.address, "GET", "/healthz")
                assert status == 503
                assert payload["status"] == "degraded"


class TestFingerprintCheck:
    """The router caches under the frame's fingerprints, so the front end
    recomputes them before routing: a wrong one would poison the cache
    for every later request that carries it honestly."""

    def test_poisoned_frame_is_400_and_cache_stays_clean(self, workload):
        fingerprints = [subproblem_fingerprint(s) for s in workload]
        a = workload[0]
        b = next(s for s, fp in zip(workload, fingerprints) if fp != fingerprints[0])
        with ShardRouter(n_shards=1, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as thread:
                poisoned = _frame_body([b], [fingerprints[0]])
                status, payload = _call(thread.address, "POST", "/solve_batch", poisoned)
                assert status == 400
                assert "row 0" in payload["error"]
                status, payload = _call(
                    thread.address, "POST", "/solve_batch", _frame_body([a])
                )
        assert status == 200
        (design,) = _fanned_out(payload)
        assert design["cache_hit"] is False
        assert pickle.dumps(design["compensations"]) == (
            _serial_bytes([a])[a.subject_id]
        )


def _raw_request(address, head):
    """Send raw request bytes; the status line and JSON body sent back."""
    with socket.create_connection(address, timeout=30.0) as sock:
        sock.sendall(head)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    head_bytes, _, body = reply.partition(b"\r\n\r\n")
    status_line, *header_lines = head_bytes.decode("latin-1").split("\r\n")
    assert "Connection: close" in header_lines
    return int(status_line.split()[1]), json.loads(body)


class TestUnreadableRequests:
    """A request the server will not read is answered, then the
    connection closes (the unread rest cannot be skipped reliably)."""

    def test_oversized_body_is_413(self, endpoint):
        status, payload = _raw_request(
            endpoint,
            b"POST /solve_batch HTTP/1.1\r\nHost: x\r\n"
            + f"Content-Length: {MAX_BODY_BYTES + 1}\r\n\r\n".encode(),
        )
        assert status == 413
        assert "exceeds" in payload["error"]

    def test_non_integer_length_is_400(self, endpoint):
        status, payload = _raw_request(
            endpoint,
            b"POST /solve_batch HTTP/1.1\r\nHost: x\r\nContent-Length: abc\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    def test_negative_length_is_400(self, endpoint):
        status, payload = _raw_request(
            endpoint,
            b"POST /solve_batch HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n",
        )
        assert status == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize("line", [b"HELLO", b"GET"])
    def test_request_line_without_a_target_is_400(self, endpoint, line):
        status, payload = _raw_request(endpoint, line + b"\r\n\r\n")
        assert status == 400
        assert "request line" in payload["error"]

    def test_header_line_over_the_stream_limit_is_400(self, endpoint):
        # asyncio streams refuse lines over 64 KiB by default.
        status, payload = _raw_request(
            endpoint,
            b"POST /solve_batch HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
        )
        assert status == 400
        assert "too long" in payload["error"]


class TestRowCounting:
    """One batch moves `cluster.requests` and the router pool's
    `requests` by its distinct design rows, whether it arrives as a
    frame over HTTP or as subproblems from an in-process caller."""

    def test_http_frame_and_in_process_batch_count_the_same(self, workload):
        n_rows = len({subproblem_fingerprint(s) for s in workload})
        assert n_rows < len(workload)
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:

            def counts():
                snapshot = router.stats_snapshot()
                return (
                    snapshot["router"]["cluster.requests"]["value"],
                    snapshot["totals"]["requests"],
                )

            with HTTPServerThread(router) as thread:
                before = counts()
                status, _ = _call(
                    thread.address, "POST", "/solve_batch", _frame_body(workload)
                )
                assert status == 200
                over_http = counts()
                router.solve_designs(workload)
                in_process = counts()
        for field in range(2):
            assert over_http[field] - before[field] == n_rows
            assert in_process[field] - over_http[field] == n_rows


class TestMetricsEndpoint:
    """/metrics during a 4-shard load is valid Prometheus text whose
    per-shard counters sum to the router cache's misses."""

    @pytest.fixture(scope="class")
    def loaded_endpoint(self, workload):
        with ShardRouter(n_shards=4, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as thread:
                body = _frame_body(workload)
                for _ in range(3):
                    status, _ = _call(thread.address, "POST", "/solve_batch", body)
                    assert status == 200
                # The router serves a frame's K rows (the client fans
                # them out to the codes); the shards solve the first
                # frame's K misses.
                yield thread.address, len(body["columnar"]["fingerprints"])

    def test_metrics_is_valid_prometheus_text(self, loaded_endpoint):
        from repro.obs.aggregate import validate_prometheus_text

        address, _ = loaded_endpoint
        status, content_type, text = _call_text(address, "GET", "/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert validate_prometheus_text(text) == []

    def test_per_shard_counters_sum_to_router_totals(self, loaded_endpoint):
        address, n_rows = loaded_endpoint
        _, _, text = _call_text(address, "GET", "/metrics")
        samples = _prometheus_samples(text)

        shard_requests = {
            name: value
            for name, value in samples.items()
            if name.startswith('repro_serving_requests{shard="shard-')
        }
        assert len(shard_requests) == 4
        # No fallbacks in this run: every miss landed on a shard and the
        # labeled per-shard counters sum to the router cache's misses.
        assert samples["repro_cluster_local_fallbacks"] == 0.0
        assert samples["repro_cluster_requests"] == 3.0 * n_rows
        assert samples["repro_cluster_local_cache_hits"] == 2.0 * n_rows
        assert samples["repro_cluster_local_cache_misses"] == float(n_rows)
        assert sum(shard_requests.values()) == float(n_rows)
        assert samples["repro_serving_requests"] == float(n_rows)

        shard_batches = [
            value
            for name, value in samples.items()
            if name.startswith('repro_serving_batches{shard="shard-')
        ]
        assert sum(shard_batches) == samples["repro_cluster_routed"]

    def test_metrics_scrape_is_repeatable(self, loaded_endpoint):
        address, _ = loaded_endpoint
        _, _, first = _call_text(address, "GET", "/metrics")
        _, _, second = _call_text(address, "GET", "/metrics")
        # Metrics are cumulative (scrapes must not drain them).
        assert _prometheus_samples(first)[
            "repro_cluster_requests"
        ] == _prometheus_samples(second)["repro_cluster_requests"]

    def test_metrics_rejects_post(self, loaded_endpoint):
        address, _ = loaded_endpoint
        status, _ = _call(address, "POST", "/metrics", {})
        assert status == 405
