"""Bench: population assembly (fits + weights + subproblems)."""

from __future__ import annotations

from repro.core.utility import RequesterObjective
from repro.types import RequesterParameters, WorkerType
from repro.workers import build_population


def _build(context, **kwargs):
    return build_population(
        trace=context.trace,
        clusters=context.clusters,
        proxy=context.proxy,
        malice_estimates=context.malice,
        objective=RequesterObjective(RequesterParameters(mu=1.0)),
        **kwargs,
    )


def test_bench_population_class_fits(benchmark, context):
    """Time assembly with class-level effort functions (the default)."""
    population = benchmark(_build, context)
    assert len(population.subproblems) > 0


def test_bench_population_per_worker_fits(benchmark, context):
    """Time assembly with Fig. 8a-style per-worker fits enabled."""
    population = benchmark(_build, context, per_worker_fits=True)
    class_fit = population.class_functions.honest.coefficients()
    individual = sum(
        1
        for worker_id in population.subjects_of_type(WorkerType.HONEST)
        if population.subproblem_of(worker_id).effort_function.coefficients()
        != class_fit
    )
    assert individual > 0
