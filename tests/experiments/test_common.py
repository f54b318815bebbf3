"""Tests for the shared experiment context (caching, objectives)."""

from __future__ import annotations

from repro.experiments import (
    ExperimentConfig,
    build_context,
    clear_context_cache,
)
from repro.types import WorkerType


class TestContextCache:
    def test_same_config_returns_cached_context(self):
        config = ExperimentConfig.small(seed=123)
        first = build_context(config)
        second = build_context(config)
        assert first is second
        clear_context_cache()

    def test_different_seed_builds_fresh_context(self):
        first = build_context(ExperimentConfig.small(seed=124))
        second = build_context(ExperimentConfig.small(seed=125))
        assert first is not second
        assert first.trace.reviews[0].upvotes != second.trace.reviews[
            0
        ].upvotes or first.trace.reviews[1].upvotes != second.trace.reviews[
            1
        ].upvotes
        clear_context_cache()

    def test_clear_cache_forces_rebuild(self):
        config = ExperimentConfig.small(seed=126)
        first = build_context(config)
        clear_context_cache()
        second = build_context(config)
        assert first is not second
        # Deterministic generation: same seed, same content.
        assert first.trace.stats() == second.trace.stats()
        clear_context_cache()


class TestContextHelpers:
    def test_objective_uses_config_mu_by_default(self, small_context):
        objective = small_context.objective()
        assert objective.mu == small_context.config.mu_default
        assert small_context.objective(mu=0.7).mu == 0.7

    def test_population_cache_keyed_by_sample(self, small_context):
        small_context.invalidate_populations()
        full = small_context.population(honest_sample=30)
        again = small_context.population(honest_sample=30)
        assert full is again
        other = small_context.population(honest_sample=20)
        assert other is not full
        assert len(other.subjects_of_type(WorkerType.HONEST)) == 20
        small_context.invalidate_populations()

    def test_population_sample_larger_than_pool_uses_all(self, small_context):
        small_context.invalidate_populations()
        n_honest = len(small_context.trace.worker_ids(WorkerType.HONEST))
        population = small_context.population(honest_sample=n_honest + 1000)
        assert len(population.subjects_of_type(WorkerType.HONEST)) == n_honest
        small_context.invalidate_populations()
