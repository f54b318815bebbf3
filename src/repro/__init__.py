"""repro — reproduction of "Dynamic Contract Design for Heterogenous
Workers in Crowdsourcing for Quality Control" (ICDCS 2017).

The package implements the paper's dynamic-contract algorithm together
with every substrate its evaluation depends on: a calibrated synthetic
Amazon review trace, collusive-community clustering, effort-function
fitting, a round-based crowdsourcing marketplace simulator, baselines,
and one experiment driver per table/figure of the paper.

Quickstart::

    from repro import ContractDesigner, QuadraticEffort, WorkerParameters

    psi = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
    designer = ContractDesigner(mu=1.0)
    result = designer.design(psi, WorkerParameters.honest(beta=1.0))
    print(result.k_opt, result.requester_utility, result.bounds.gap)
"""

from .core import (
    BestResponse,
    CandidateContract,
    Contract,
    ContractDesigner,
    DesignerConfig,
    DesignResult,
    PiecewiseLinear,
    QuadraticEffort,
    Subproblem,
    UtilityBounds,
    build_candidate,
    solve_best_response,
    solve_subproblems,
)
from .errors import ReproError
from .serving import (
    ContractCache,
    ServingStats,
    SolverPool,
    design_fingerprint,
    subproblem_fingerprint,
)
from .types import (
    DiscretizationGrid,
    FeedbackWeightParameters,
    RequesterParameters,
    WorkerParameters,
    WorkerType,
)

__version__ = "1.0.0"

__all__ = [
    "BestResponse",
    "CandidateContract",
    "Contract",
    "ContractDesigner",
    "DesignerConfig",
    "DesignResult",
    "PiecewiseLinear",
    "QuadraticEffort",
    "Subproblem",
    "UtilityBounds",
    "build_candidate",
    "solve_best_response",
    "solve_subproblems",
    "ReproError",
    "ContractCache",
    "ServingStats",
    "SolverPool",
    "design_fingerprint",
    "subproblem_fingerprint",
    "DiscretizationGrid",
    "FeedbackWeightParameters",
    "RequesterParameters",
    "WorkerParameters",
    "WorkerType",
    "__version__",
]
