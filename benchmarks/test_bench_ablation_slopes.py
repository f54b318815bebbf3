"""Ablation: Eq. (39) minimal-slope recursion vs naive mid-window slopes.

The paper builds each Case III slope just above the *constraint floor*
of Eq. (38) — the smallest slope keeping the worker's per-piece optimal
utility increasing toward the target — while the obvious alternative
places each slope mid-window.  Neither choice dominates pointwise (the
Eq. 38 floor depends on the previous slope and can sit above the window
midpoint), so this ablation reports both and asserts what does hold:

* both constructions are valid (monotone, worker lands on target);
* the recursion satisfies Eq. (38) with exactly its designed epsilon
  slack, i.e. it is the *minimal* choice for its own constraint;
* the resulting requester utilities agree to within 2% — the selection
  step, not the slope placement, carries the algorithm's value.
"""

from __future__ import annotations

import pytest

from repro.core import (
    Contract,
    ContractDesigner,
    DesignerConfig,
    build_candidate,
    case_thresholds,
    solve_best_response,
)
from repro.core.utility import per_worker_utility


def _naive_slopes(psi, grid, params, target):
    """Mid-window Case III slopes up to ``target``, flat beyond."""
    slopes = []
    for piece in range(1, grid.n_intervals + 1):
        if piece <= target:
            window = case_thresholds(psi, grid, piece, params.beta, params.omega)
            slopes.append(max(0.5 * (window.lower + window.upper), 0.0))
        else:
            slopes.append(0.0)
    return slopes


def _naive_design(psi, grid, params, mu, feedback_weight):
    """Full naive designer: mid-window candidates + the same selection."""
    best_utility, best = None, None
    for target in range(1, grid.n_intervals + 1):
        contract = Contract.from_feedback_slopes(
            grid, psi, _naive_slopes(psi, grid, params, target)
        )
        response = solve_best_response(contract, params)
        utility = per_worker_utility(
            feedback_weight, response.feedback, response.compensation, mu
        )
        if best_utility is None or utility > best_utility:
            best_utility, best = utility, (contract, response)
    return best_utility, best


def test_bench_ablation_recursion_slopes(benchmark, psi, grid, honest_params):
    """Time the paper's designer; verify the Eq. (38) floor property."""
    config = DesignerConfig(n_intervals=grid.n_intervals, delta=grid.delta)

    def paper_design():
        return ContractDesigner(mu=1.0, config=config).design(
            psi, honest_params, feedback_weight=1.0
        )

    result = benchmark(paper_design)
    assert result.hired
    # Minimality against its own constraint: each slope equals the
    # Eq. (38) floor plus exactly the designed epsilon (Eq. 40).
    target = grid.n_intervals // 2
    candidate = build_candidate(psi, grid, honest_params, target)
    beta, omega = honest_params.beta, honest_params.omega
    previous_gain = beta / psi.derivative(0.0)
    for piece in range(1, target + 1):
        slope_left = psi.derivative((piece - 1) * grid.delta)
        floor = beta * beta / (previous_gain * slope_left * slope_left) - omega
        slope = candidate.slopes[piece - 1]
        epsilon = candidate.epsilons[piece - 1]
        assert slope == pytest.approx(floor + epsilon, rel=1e-9)
        previous_gain = slope + omega
    benchmark.extra_info["requester_utility"] = result.requester_utility
    benchmark.extra_info["compensation"] = result.compensation


def test_bench_ablation_naive_slopes(benchmark, psi, grid, honest_params):
    """Time the naive mid-window designer; utilities nearly tie."""
    naive_utility, (naive_contract, naive_response) = benchmark(
        _naive_design, psi, grid, honest_params, 1.0, 1.0
    )
    paper = ContractDesigner(
        mu=1.0,
        config=DesignerConfig(n_intervals=grid.n_intervals, delta=grid.delta),
    ).design(psi, honest_params, feedback_weight=1.0)
    assert naive_utility > 0.0
    assert naive_contract.as_feedback_function().is_monotone_nondecreasing()
    # Neither heuristic dominates; they land within 2% of each other.
    assert abs(paper.requester_utility - naive_utility) <= 0.02 * abs(naive_utility)
    benchmark.extra_info["requester_utility"] = naive_utility
    benchmark.extra_info["compensation"] = naive_response.compensation
