"""Tests for the serving-side counters and latency summaries."""

from __future__ import annotations

import pytest

from repro.errors import ServingError
from repro.serving import ServingStats


class FakeClock:
    def __init__(self) -> None:
        self.time = 0.0

    def __call__(self) -> float:
        return self.time


@pytest.fixture
def clock():
    return FakeClock()


class TestCounters:
    def test_batch_accounting(self, clock):
        stats = ServingStats(clock=clock)
        stats.record_batch(n_requests=10, n_unique=4, n_cache_hits=1, duration=0.5)
        assert stats.requests == 10
        assert stats.batches == 1
        assert stats.cache_hits == 1
        assert stats.cache_misses == 3
        assert stats.hit_rate == pytest.approx(0.25)
        assert stats.dedup_rate == pytest.approx(1.0 - 4 / 10)

    def test_throughput_uses_injected_clock(self, clock):
        stats = ServingStats(clock=clock)
        stats.record_batch(n_requests=20, n_unique=20, n_cache_hits=0, duration=2.0)
        clock.time = 2.0
        assert stats.elapsed == pytest.approx(2.0)
        assert stats.throughput == pytest.approx(10.0)

    def test_idle_rates_are_zero(self, clock):
        stats = ServingStats(clock=clock)
        assert stats.hit_rate == 0.0
        assert stats.dedup_rate == 0.0
        assert stats.throughput == 0.0

    def test_rejects_inconsistent_batches(self, clock):
        stats = ServingStats(clock=clock)
        with pytest.raises(ServingError):
            stats.record_batch(n_requests=2, n_unique=3, n_cache_hits=0, duration=0.0)
        with pytest.raises(ServingError):
            stats.record_batch(n_requests=3, n_unique=2, n_cache_hits=3, duration=0.0)
        with pytest.raises(ServingError):
            stats.record_batch(n_requests=-1, n_unique=0, n_cache_hits=0, duration=0.0)


class TestLatencies:
    def test_bounded_samples(self, clock):
        stats = ServingStats(clock=clock, max_samples=3)
        stats.record_latencies([0.1, 0.2, 0.3, 0.4])
        assert list(stats.request_latencies) == [0.2, 0.3, 0.4]

    def test_negative_latencies_clamped(self, clock):
        stats = ServingStats(clock=clock)
        stats.record_latencies([-0.5])
        assert list(stats.request_latencies) == [0.0]

    def test_rejects_bad_max_samples(self):
        with pytest.raises(ServingError):
            ServingStats(max_samples=0)


class TestSnapshot:
    def test_latency_keys_appear_once_observed(self, clock):
        stats = ServingStats(clock=clock)
        assert "request_latency_mean_s" not in stats.snapshot()
        stats.record_batch(
            n_requests=2,
            n_unique=2,
            n_cache_hits=0,
            duration=0.25,
            request_latencies=[0.1, 0.3],
        )
        snapshot = stats.snapshot()
        assert snapshot["request_latency_mean_s"] == pytest.approx(0.2)
        assert snapshot["batch_latency_mean_s"] == pytest.approx(0.25)

    def test_format_mentions_all_counters(self, clock):
        stats = ServingStats(clock=clock)
        rendered = stats.format()
        for key in ("requests", "batches", "cache_misses", "cache_hit_rate"):
            assert key in rendered


class TestMetricsBacking:
    def test_shared_registry_publishes_serving_metrics(self, clock):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stats = ServingStats(clock=clock, registry=registry)
        stats.record_batch(
            n_requests=4,
            n_unique=2,
            n_cache_hits=1,
            duration=0.5,
            request_latencies=[0.1, 0.2],
        )
        snapshot = registry.snapshot()
        assert snapshot["serving.requests"] == {"value": 4.0}
        assert snapshot["serving.batches"] == {"value": 1.0}
        assert snapshot["serving.cache_hits"] == {"value": 1.0}
        assert snapshot["serving.cache_misses"] == {"value": 1.0}
        assert snapshot["serving.request_latency_s"]["count"] == 2.0
        assert snapshot["serving.batch_latency_s"]["count"] == 1.0

    def test_private_registries_do_not_collide(self, clock):
        first = ServingStats(clock=clock)
        second = ServingStats(clock=clock)
        first.record_batch(n_requests=5, n_unique=5, n_cache_hits=0, duration=0.1)
        assert second.requests == 0

    def test_namespace_prefix(self, clock):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        stats = ServingStats(clock=clock, registry=registry, namespace="pool")
        stats.record_batch(n_requests=1, n_unique=1, n_cache_hits=0, duration=0.1)
        assert registry.snapshot()["pool.requests"] == {"value": 1.0}


class TestReadOnlyCounters:
    """The PR 3 legacy counter-write shim is gone: counters are read-only."""

    def test_direct_assignment_raises(self, clock):
        stats = ServingStats(clock=clock)
        for name in ("requests", "batches", "cache_hits", "cache_misses"):
            with pytest.raises(AttributeError):
                setattr(stats, name, 5)

    def test_augmented_assignment_raises(self, clock):
        stats = ServingStats(clock=clock)
        stats.record_batch(n_requests=2, n_unique=2, n_cache_hits=0, duration=0.1)
        with pytest.raises(AttributeError):
            stats.requests += 1
        assert stats.requests == 2

    def test_counters_read_as_ints(self, clock):
        stats = ServingStats(clock=clock)
        stats.record_batch(n_requests=2, n_unique=1, n_cache_hits=1, duration=0.1)
        for name in ("requests", "batches", "cache_hits", "cache_misses"):
            assert isinstance(getattr(stats, name), int)
