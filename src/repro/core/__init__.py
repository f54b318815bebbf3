"""The paper's primary contribution: dynamic contract design.

Public surface of the core algorithm:

* :class:`~repro.core.effort.QuadraticEffort` — concave effort functions.
* :class:`~repro.core.piecewise.PiecewiseLinear` — contract geometry.
* :class:`~repro.core.contract.Contract` — posted contracts.
* :func:`~repro.core.best_response.solve_best_response` — follower side.
* :func:`~repro.core.candidate.build_candidate` — candidate contracts.
* :mod:`~repro.core.sweep` — the vectorized shared-prefix candidate
  sweep (the designer hot path).
* :class:`~repro.core.designer.ContractDesigner` — the full algorithm.
* :mod:`~repro.core.bounds` — Lemma 4.2/4.3 and Theorem 4.1 certificates.
* :func:`~repro.core.decomposition.solve_subproblems` — BiP decomposition.
"""

from .best_response import BestResponse, solve_best_response, worker_utility
from .budget import BudgetOption, BudgetedDesign, budget_options, budgeted_selection
from .bounds import (
    UtilityBounds,
    compensation_lower_bound,
    compensation_upper_bound,
    requester_utility_lower_bound,
    requester_utility_upper_bound,
)
from .candidate import CandidateContract, build_candidate, case_windows, slope_epsilon
from .cases import CaseThresholds, PieceCase, case_thresholds, classify_piece
from .contract import Contract
from .decomposition import (
    Subproblem,
    SubproblemSolution,
    decomposition_report,
    solve_subproblems,
)
from .designer import CandidateEvaluation, ContractDesigner, DesignerConfig, DesignResult
from .effort import QuadraticEffort
from .piecewise import PiecewiseLinear
from .sensitivity import (
    MisfitPoint,
    MisfitReport,
    misfit_sweep,
    perturbed_effort_function,
    robust_design,
)
from .sweep import (
    PrefixTables,
    SweepStats,
    legacy_sweep,
    prefix_tables,
    sweep_candidates,
    sweep_candidates_with_stats,
    vectorized_sweep,
)
from .utility import RequesterObjective, per_worker_utility, round_benefit, round_utility

__all__ = [
    "BestResponse",
    "solve_best_response",
    "worker_utility",
    "BudgetOption",
    "BudgetedDesign",
    "budget_options",
    "budgeted_selection",
    "UtilityBounds",
    "compensation_lower_bound",
    "compensation_upper_bound",
    "requester_utility_lower_bound",
    "requester_utility_upper_bound",
    "CandidateContract",
    "build_candidate",
    "case_windows",
    "slope_epsilon",
    "CaseThresholds",
    "PieceCase",
    "case_thresholds",
    "classify_piece",
    "Contract",
    "Subproblem",
    "SubproblemSolution",
    "decomposition_report",
    "solve_subproblems",
    "CandidateEvaluation",
    "ContractDesigner",
    "DesignerConfig",
    "DesignResult",
    "QuadraticEffort",
    "PiecewiseLinear",
    "MisfitPoint",
    "MisfitReport",
    "misfit_sweep",
    "perturbed_effort_function",
    "robust_design",
    "PrefixTables",
    "SweepStats",
    "legacy_sweep",
    "prefix_tables",
    "sweep_candidates",
    "sweep_candidates_with_stats",
    "vectorized_sweep",
    "RequesterObjective",
    "per_worker_utility",
    "round_benefit",
    "round_utility",
]
