"""Tests for the bounded LRU contract cache and its invariant."""

from __future__ import annotations

import pytest

from repro.analysis.invariants import InvariantViolation
from repro.core import ContractDesigner, QuadraticEffort
from repro.errors import ServingError
from repro.obs.metrics import MetricsRegistry
from repro.serving import ContractCache, LRUCache
from repro.serving.cache import maybe_verify_cached, require_results_agree
from repro.types import WorkerParameters


@pytest.fixture
def psi():
    return QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)


def _design(psi, feedback_weight=1.0):
    return ContractDesigner(mu=1.0).design(
        psi, WorkerParameters.honest(beta=1.0), feedback_weight=feedback_weight
    )


class TestContractCache:
    def test_roundtrip_and_counters(self, psi):
        cache = ContractCache(capacity=4)
        result = _design(psi)
        assert cache.get_design("cd1:aa") is None
        cache.put_design("cd1:aa", result)
        assert cache.get_design("cd1:aa") is result
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert "cd1:aa" in cache
        assert len(cache) == 1

    def test_capacity_bound_evicts_lru(self, psi):
        cache = ContractCache(capacity=2)
        result = _design(psi)
        cache.put_design("f1", result)
        cache.put_design("f2", result)
        # Touch f1 so f2 becomes the least recently used entry.
        assert cache.get_design("f1") is result
        cache.put_design("f3", result)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert "f2" not in cache
        assert cache.keys() == ("f1", "f3")

    def test_put_refreshes_recency(self, psi):
        cache = ContractCache(capacity=2)
        result = _design(psi)
        cache.put_design("f1", result)
        cache.put_design("f2", result)
        cache.put_design("f1", result)
        cache.put_design("f3", result)
        assert "f1" in cache
        assert "f2" not in cache

    def test_clear_keeps_counters(self, psi):
        cache = ContractCache()
        cache.put_design("f1", _design(psi))
        cache.get_design("f1")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1

    def test_rejects_bad_capacity(self):
        with pytest.raises(ServingError):
            ContractCache(capacity=0)

    def test_stats_snapshot_keys(self):
        snapshot = ContractCache().stats.snapshot()
        assert set(snapshot) == {
            "cache_hits",
            "cache_misses",
            "cache_evictions",
            "cache_verifications",
            "cache_hit_rate",
        }


class TestLRUCache:
    """The generic bounded cache underneath ContractCache and the
    designer's candidate-sweep memo."""

    def test_roundtrip_with_tuple_keys(self):
        cache = LRUCache(capacity=4)
        key = ((-0.5, 10.0, 1.0), 1.0, 0.0, 8)
        assert cache.get(key) is None
        cache.put(key, "sweep")
        assert cache.get(key) == "sweep"
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_eviction_order_is_lru(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.keys() == ("a", "c")
        assert cache.stats.evictions == 1

    def test_eviction_counter_feeds_shared_registry(self):
        registry = MetricsRegistry()
        counter = registry.counter("designer.candidate_cache.evictions")
        cache = LRUCache(capacity=1, eviction_counter=counter)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert counter.value == 2
        assert cache.stats.evictions == 2

    def test_rejects_bad_capacity(self):
        with pytest.raises(ServingError):
            LRUCache(capacity=0)


class TestCacheInvariant:
    def test_identical_results_agree(self, psi):
        a = _design(psi)
        b = _design(psi)
        require_results_agree("f", a, b)

    def test_different_results_violate(self, psi):
        a = _design(psi, feedback_weight=1.0)
        b = _design(psi, feedback_weight=5.0)
        with pytest.raises(InvariantViolation):
            require_results_agree("f", a, b)

    def test_maybe_verify_disabled_is_noop(self, psi, monkeypatch):
        monkeypatch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        calls = []

        def fresh_solver():
            calls.append(1)
            return _design(psi, feedback_weight=5.0)

        maybe_verify_cached("f", _design(psi), fresh_solver)
        assert calls == []

    def test_maybe_verify_enabled_resolves_and_checks(self, psi, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        cache = ContractCache()
        maybe_verify_cached(
            "f", _design(psi), lambda: _design(psi), stats=cache.stats
        )
        assert cache.stats.verifications == 1
        with pytest.raises(InvariantViolation):
            maybe_verify_cached(
                "f", _design(psi), lambda: _design(psi, feedback_weight=5.0)
            )
