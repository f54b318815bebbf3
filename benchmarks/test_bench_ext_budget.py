"""Bench: budget-feasible selection (MCKP) over a solved population."""

from __future__ import annotations

from repro.core.budget import budgeted_selection
from repro.core.decomposition import solve_subproblems
from repro.experiments import ext_budget


def test_bench_ext_budget_experiment(benchmark, context):
    """Time the full budget-frontier experiment."""
    result = benchmark.pedantic(
        lambda: ext_budget.run(context), rounds=2, iterations=1
    )
    assert result.all_checks_pass, result.format()


def test_bench_mckp_solve(benchmark, context):
    """Time one MCKP solve over the whole population's options."""
    population = context.population()
    solutions = solve_subproblems(population.subproblems, mu=1.0)
    unconstrained_pay = sum(
        s.result.response.compensation for s in solutions.values()
    )

    design = benchmark(budgeted_selection, solutions, 0.5 * unconstrained_pay)
    assert design.total_cost <= 0.5 * unconstrained_pay + 1e-6
    assert design.total_utility > 0.0
