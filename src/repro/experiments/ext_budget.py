"""Extension: contract design under a hard payment budget.

The paper's requester trades pay against benefit through the soft weight
``mu``; the budget-feasibility literature it cites (Singer et al.)
imposes a hard cap instead.  This experiment sweeps the budget over the
assembled population and traces the utility-vs-budget frontier of the
multiple-choice-knapsack selection built on the designer's candidate
sweep, verifying the frontier's expected shape: monotone, concave-ish
(diminishing returns), and saturating at the unconstrained optimum.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..core.budget import budgeted_selection
from ..core.decomposition import solve_subproblems
from ..metrics.comparison import ComparisonTable
from .common import ExperimentContext, ExperimentResult, build_context
from .config import ExperimentConfig

__all__ = ["run"]

_HONEST_SAMPLE = 300
#: Budget sweep as fractions of the unconstrained total pay.
_BUDGET_FRACTIONS = (0.0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5)


def run(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Run the budget-frontier experiment.

    Extension of the Eqs. (8)-(10) requester problem with a hard budget:
    sweeps the cap and traces the utility/pay frontier of the
    multiple-choice-knapsack selection (core.budget).
    """
    context = context if context is not None else build_context(ExperimentConfig())
    config = context.config
    population = context.population(honest_sample=_HONEST_SAMPLE)
    solutions = solve_subproblems(population.subproblems, mu=config.mu_default)

    unconstrained_pay = sum(
        solution.result.response.compensation for solution in solutions.values()
    )
    unconstrained_utility = sum(
        max(solution.result.requester_utility, 0.0)
        for solution in solutions.values()
    )

    budgets: List[float] = [f * unconstrained_pay for f in _BUDGET_FRACTIONS]
    utilities: List[float] = []
    costs: List[float] = []
    hired: List[int] = []
    for budget in budgets:
        design = budgeted_selection(solutions, budget=budget)
        utilities.append(design.total_utility)
        costs.append(design.total_cost)
        hired.append(design.n_hired)

    table = ComparisonTable(
        title=(
            f"EXT budget: utility vs hard pay budget "
            f"({len(solutions)} subjects, unconstrained pay "
            f"{unconstrained_pay:.1f})"
        ),
        rows=[],
    )
    for fraction, budget, utility, cost, n in zip(
        _BUDGET_FRACTIONS, budgets, utilities, costs, hired
    ):
        table.add(
            label=f"B = {fraction:.2f} x pay*",
            measured=utility,
            note=f"spent {cost:.1f}, hired {n}",
        )
    table.add("unconstrained utility", measured=unconstrained_utility)

    gains = np.diff(utilities)
    checks = {
        "budget_always_respected": all(
            cost <= budget + 1e-6 for cost, budget in zip(costs, budgets)
        ),
        "utility_monotone_in_budget": bool(np.all(gains >= -1e-6)),
        "diminishing_returns": bool(
            gains.size < 2 or gains[0] >= gains[-1] - 1e-6
        ),
        "saturates_at_unconstrained": utilities[-1]
        >= 0.999 * unconstrained_utility,
        "half_budget_recovers_most_utility": utilities[
            _BUDGET_FRACTIONS.index(0.5)
        ]
        >= 0.6 * unconstrained_utility,
    }
    data: Dict[str, object] = {
        "budgets": budgets,
        "utilities": utilities,
        "costs": costs,
        "hired": hired,
        "unconstrained_pay": unconstrained_pay,
        "unconstrained_utility": unconstrained_utility,
    }
    return ExperimentResult(
        experiment_id="ext_budget",
        tables=[table.format()],
        data=data,
        checks=checks,
    )
