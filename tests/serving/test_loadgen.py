"""Tests for the closed-loop load generator and its target adapters."""

from __future__ import annotations

import threading

import pytest

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.obs.metrics import MetricsRegistry
from repro.serving import (
    HTTPServerThread,
    LoadGenerator,
    ShardRouter,
    SolverPool,
    http_target,
    pool_target,
    synthetic_request_batches,
)
from repro.serving.workload import synthetic_subproblems


@pytest.fixture(scope="module")
def population():
    return synthetic_subproblems(n_subjects=20, n_archetypes=5, seed=37)


class TestBatches:
    def test_deterministic_replay(self, population):
        first = synthetic_request_batches(population, 30, batch_size=4, seed=3)
        second = synthetic_request_batches(population, 30, batch_size=4, seed=3)
        assert [
            [s.subject_id for s in batch] for batch in first
        ] == [[s.subject_id for s in batch] for batch in second]
        assert sum(len(batch) for batch in first) == 30
        assert all(len(batch) <= 4 for batch in first)

    def test_validation(self, population):
        with pytest.raises(ServingError):
            synthetic_request_batches([], 10)
        with pytest.raises(ServingError):
            synthetic_request_batches(population, 0)
        with pytest.raises(ServingError):
            synthetic_request_batches(population, 10, batch_size=0)


class TestLoadGenerator:
    def test_report_counts_and_quantiles(self, population):
        batches = synthetic_request_batches(population, 24, batch_size=4, seed=1)
        generator = LoadGenerator(pool_target(SolverPool()), concurrency=3)
        report = generator.run(batches)
        assert report.requests == 24
        assert report.batches == len(batches)
        assert report.errors == 0
        assert report.concurrency == 3
        assert report.throughput_rps > 0.0
        assert 0.0 < report.p50_s <= report.p99_s
        snapshot = report.snapshot()
        assert snapshot["requests"] == 24.0

    def test_errors_are_tallied_not_raised(self, population):
        calls = {"n": 0}

        def flaky(batch):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise ServingError("boom")

        batches = synthetic_request_batches(population, 8, batch_size=1, seed=2)
        generator = LoadGenerator(flaky, concurrency=1)
        report = generator.run(batches)
        assert report.errors == 4
        assert report.requests == 4
        assert report.error_samples and "boom" in report.error_samples[0]

    def test_checkpoints_fire_once_at_threshold(self, population):
        fired = []
        batches = synthetic_request_batches(population, 20, batch_size=2, seed=4)
        generator = LoadGenerator(pool_target(SolverPool()), concurrency=2)
        generator.run(
            batches,
            checkpoints={
                6: lambda: fired.append(6),
                12: lambda: fired.append(12),
            },
        )
        assert sorted(fired) == [6, 12]

    def test_metrics_publish_into_injected_registry(self, population):
        registry = MetricsRegistry()
        batches = synthetic_request_batches(population, 6, batch_size=2, seed=5)
        generator = LoadGenerator(
            pool_target(SolverPool()), concurrency=1, registry=registry
        )
        generator.run(batches)
        snapshot = registry.snapshot()
        assert snapshot["loadgen.requests"]["value"] == 6.0
        assert snapshot["loadgen.request_latency_s"]["count"] == 3.0

    def test_closed_loop_bounds_in_flight_requests(self, population):
        in_flight = {"now": 0, "peak": 0}
        gate = threading.Lock()

        def track(batch):
            with gate:
                in_flight["now"] += 1
                in_flight["peak"] = max(in_flight["peak"], in_flight["now"])
            with gate:
                in_flight["now"] -= 1

        batches = synthetic_request_batches(population, 40, batch_size=1, seed=6)
        LoadGenerator(track, concurrency=3).run(batches)
        assert in_flight["peak"] <= 3

    def test_validation(self, population):
        with pytest.raises(ServingError):
            LoadGenerator(lambda batch: None, concurrency=0)
        generator = LoadGenerator(lambda batch: None)
        with pytest.raises(ServingError):
            generator.run([])


class TestHTTPTarget:
    """Closed-loop frames over HTTP against a router without shards."""

    @pytest.fixture()
    def address(self):
        with ShardRouter(n_shards=0) as router:
            with HTTPServerThread(router) as thread:
                yield thread.address

    def test_frames_over_http_serve_without_errors(self, address, population):
        batches = synthetic_request_batches(population, 40, batch_size=4, seed=8)
        send = http_target(*address)
        served = []

        def target(batch):
            served.append((batch, send(batch)))

        report = LoadGenerator(target, concurrency=2).run(batches)
        assert report.errors == 0, report.error_samples
        assert report.requests == 40
        serial = solve_subproblems(population, mu=1.0)
        for batch, designs in served:
            assert len(designs) == len(batch)
            for subproblem, design in zip(batch, designs):
                expected = serial[subproblem.subject_id].result.contract
                assert design["compensations"] == list(expected.compensations)

    def test_fingerprints_under_another_mu_are_refused(self, address, population):
        batches = synthetic_request_batches(population, 8, batch_size=4, seed=9)
        report = LoadGenerator(http_target(*address, mu=2.0), concurrency=1).run(
            batches
        )
        assert report.errors == len(batches)
        assert "HTTP 400" in report.error_samples[0]
