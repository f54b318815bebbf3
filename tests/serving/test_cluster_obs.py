"""Cross-process observability acceptance tests for the shard cluster.

The tentpole guarantees of the cluster observability layer:

* one ``/solve_batch`` through the HTTP front end yields ONE trace
  tree spanning three processes — the HTTP request span parents the
  router's dispatch span, which parents each shard's
  ``serving.solve_batch`` span — all sharing one ``trace_id`` in the
  merged JSONL dump;
* ``obs_scrape`` federates every shard's metrics into counters whose
  per-shard values sum to the router cache's misses.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.obs.export import read_jsonl, render_report, write_jsonl
from repro.obs.trace import (
    TRACEPARENT_HEADER,
    SpanContext,
    Tracer,
    format_traceparent,
    get_tracer,
    set_tracer,
)
from repro.serving import HTTPServerThread, ShardRouter
from repro.serving.cluster.codec import columnar_frame, frame_to_json
from repro.serving.fingerprint import subproblem_fingerprint
from repro.serving.workload import synthetic_subproblems


@pytest.fixture()
def traced_tracer():
    """Install an enabled global tracer (shards inherit obs on spawn)."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@pytest.fixture()
def workload():
    return synthetic_subproblems(n_subjects=10, n_archetypes=4, seed=91)


def _post_batch(address, workload, headers=None):
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30.0)
    try:
        frame = columnar_frame(
            workload, [subproblem_fingerprint(s) for s in workload]
        )
        body = json.dumps({"columnar": frame_to_json(frame)})
        conn.request("POST", "/solve_batch", body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))
    finally:
        conn.close()


def _by_name(records, name):
    return [r for r in records if r.get("name") == name]


class TestCrossProcessTrace:
    def test_solve_batch_produces_one_merged_trace_tree(
        self, traced_tracer, workload, tmp_path
    ):
        """HTTP span -> router dispatch span -> shard solve span, one trace."""
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as thread:
                status, _ = _post_batch(thread.address, workload)
                assert status == 200
                scrape = router.obs_scrape(include_spans=True)

        dump = tmp_path / "cluster-trace.jsonl"
        write_jsonl(
            dump, tracer=traced_tracer, extra_records=scrape.span_records()
        )
        records = [r for r in read_jsonl(dump) if r.get("kind") == "span"]

        (http_span,) = _by_name(records, "cluster.http_request")
        (batch_span,) = _by_name(records, "cluster.solve_batch")
        group_spans = _by_name(records, "cluster.solve_group")
        shard_spans = [
            r
            for r in _by_name(records, "serving.solve_batch")
            if r.get("source", "").startswith("shard-")
        ]
        assert group_spans
        assert shard_spans

        # Forked shards must reseed their tracer id prefix: ids unique
        # across processes, or the merged tree silently corrupts.
        span_ids = [r["span_id"] for r in records]
        assert len(span_ids) == len(set(span_ids))

        # One trace: every span in the chain shares the HTTP trace id.
        trace_id = http_span["trace_id"]
        assert batch_span["trace_id"] == trace_id
        for span in group_spans + shard_spans:
            assert span["trace_id"] == trace_id

        # Parent/child ids link the processes into one tree.
        assert http_span["parent_id"] is None
        assert batch_span["parent_id"] == http_span["span_id"]
        group_ids = {s["span_id"] for s in group_spans}
        for span in group_spans:
            assert span["parent_id"] == batch_span["span_id"]
        for span in shard_spans:
            assert span["parent_id"] in group_ids

        # The report renderer agrees: one root, shard spans not detached.
        report = render_report(records)
        assert "<detached>" not in report
        assert "cluster.http_request" in report.splitlines()[1]

    def test_client_traceparent_header_is_adopted(
        self, traced_tracer, workload
    ):
        """A caller-supplied traceparent becomes the trace root."""
        remote = SpanContext(trace_id="ab" * 16, span_id="0caffe-000000000001")
        headers = {
            "Content-Type": "application/json",
            TRACEPARENT_HEADER: format_traceparent(remote),
        }
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            with HTTPServerThread(router) as thread:
                status, _ = _post_batch(thread.address, workload, headers)
                assert status == 200
        (http_span,) = [
            s for s in traced_tracer.spans() if s.name == "cluster.http_request"
        ]
        assert http_span.trace_id == remote.trace_id
        assert http_span.parent_id == remote.span_id

    def test_disabled_tracer_ships_no_propagation(self, workload):
        """With obs off the pipe meta stays None and no spans record."""
        assert not get_tracer().enabled
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            designs, _ = router.solve_designs(workload)
            assert len(designs) == len(workload)
            scrape = router.obs_scrape(include_spans=True)
        assert scrape.span_records() == []
        assert get_tracer().spans() == ()


class TestClusterScrapeFederation:
    def test_shard_counters_sum_to_router_totals(self, workload):
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            for _ in range(3):
                router.solve_designs(workload)
            scrape = router.obs_scrape()

            assert scrape.sources() == ("router", "shard-0", "shard-1")
            shard_requests = {
                source: value
                for source, value in scrape.shard_values(
                    "serving.requests"
                ).items()
            }
            # The router serves one row per distinct fingerprint a batch;
            # the shards solve only its cache's misses, the first batch.
            n_rows = len(set(router.fingerprints(workload)))
            assert scrape.value("cluster.requests") == 3 * n_rows
            assert scrape.value("cluster.local.cache_hits") == 2 * n_rows
            assert scrape.value("cluster.local.cache_misses") == n_rows
            assert sum(shard_requests.values()) == n_rows
            assert scrape.value("serving.requests") == n_rows
            # No fallbacks: every miss frame landed on a shard.
            assert scrape.value("cluster.local_fallbacks") == 0.0
            assert scrape.value("serving.batches") == scrape.value(
                "cluster.routed"
            )

    def test_repeated_scrapes_drain_spans_but_keep_metrics(self, traced_tracer):
        workload = synthetic_subproblems(n_subjects=6, n_archetypes=3, seed=5)
        with ShardRouter(n_shards=2, supervise_interval=0.0) as router:
            router.solve_designs(workload)
            first = router.obs_scrape(include_spans=True)
            second = router.obs_scrape(include_spans=True)
        shard_spans = [
            r for r in first.span_records() if r["source"].startswith("shard-")
        ]
        assert shard_spans
        # Drained: the second scrape ships no duplicate shard spans.
        assert [
            r for r in second.span_records() if r["source"].startswith("shard-")
        ] == []
        # Metrics are cumulative, not drained.
        assert second.value("serving.requests") == first.value(
            "serving.requests"
        )
