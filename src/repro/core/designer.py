"""The contract designer: the paper's core algorithm (Section IV-C).

For one subproblem (one worker or one collusive community, whose fitted
effort function and ``(beta, omega)`` parameters are known) the designer:

1. builds a candidate contract ``xi^(k)`` for every effort interval
   ``k = 1..m`` (:mod:`repro.core.candidate`),
2. computes the worker's *exact* best response to each candidate
   (:mod:`repro.core.best_response`),
3. keeps the candidate maximizing the requester's decomposed utility
   ``w * psi(y*) - mu * xi^(k)(y*)`` (Eq. 43, per the paper's prose), and
4. attaches the Theorem 4.1 certificate bracketing the optimum.

The designer also exposes the per-candidate evaluations so experiments
can inspect the whole frontier (used by Fig. 6 and the ablations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import DesignError
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..types import DiscretizationGrid, WorkerParameters
from .best_response import BestResponse, solve_best_response
from .bounds import (
    UtilityBounds,
    requester_utility_lower_bound,
    requester_utility_upper_bound,
)
from .candidate import CandidateContract
from .contract import Contract
from .effort import QuadraticEffort
from .sweep import SweepStats, sweep_candidates_with_stats
from .utility import per_worker_utility

__all__ = ["DesignerConfig", "CandidateEvaluation", "DesignResult", "ContractDesigner"]

#: Fraction of the effort function's increasing range covered by an
#: auto-built grid.  Staying strictly inside the range keeps psi' > 0 at
#: the last edge, which Lemma 4.1 requires.
_DEFAULT_COVERAGE = 0.95

#: Bound on each designer's candidate-sweep LRU: one entry per unique
#: ``(psi, params, grid, base_pay)`` combination.
CANDIDATE_CACHE_SIZE = 256


@dataclass(frozen=True)
class DesignerConfig:
    """Configuration of the contract designer.

    Attributes:
        n_intervals: number of effort intervals ``m`` (Section III-A).
        coverage: fraction of ``psi``'s increasing range the auto grid
            spans; ignored when ``delta`` is given explicitly.
        delta: optional explicit interval width; overrides ``coverage``.
        max_effort: optional absolute cap on the grid span.  The paper
            partitions "the effort region of workers" — the *observed*
            region; without a cap, a nearly linear fitted ``psi`` (vertex
            far beyond any plausible effort) would let the designer
            demand absurd effort levels.
        base_pay: compensation at zero effort (``x_0``).
        min_utility: candidates whose requester utility falls below this
            are discarded; if all do, the designer returns the null
            (flat zero) contract, i.e. the worker is not hired.
    """

    n_intervals: int = 20
    coverage: float = _DEFAULT_COVERAGE
    delta: Optional[float] = None
    max_effort: Optional[float] = None
    base_pay: float = 0.0
    min_utility: float = 0.0

    def __post_init__(self) -> None:
        if self.n_intervals < 1:
            raise DesignError(f"n_intervals must be >= 1, got {self.n_intervals!r}")
        if not 0.0 < self.coverage < 1.0:
            raise DesignError(
                f"coverage must lie strictly inside (0, 1), got {self.coverage!r}"
            )
        if self.delta is not None and self.delta <= 0.0:
            raise DesignError(f"delta must be positive, got {self.delta!r}")
        if self.max_effort is not None and self.max_effort <= 0.0:
            raise DesignError(f"max_effort must be positive, got {self.max_effort!r}")
        if self.base_pay < 0.0:
            raise DesignError(f"base_pay must be >= 0, got {self.base_pay!r}")

    def grid_for(
        self,
        effort_function: QuadraticEffort,
        max_effort: Optional[float] = None,
    ) -> DiscretizationGrid:
        """Build the effort grid this config implies for ``psi``.

        Args:
            effort_function: the worker's ``psi``.
            max_effort: per-subject cap on the grid span (e.g. the
                largest effort the subject was ever observed to exert);
                combined with the config-level cap by taking the minimum.
        """
        if self.delta is not None:
            grid = DiscretizationGrid(n_intervals=self.n_intervals, delta=self.delta)
            effort_function.require_increasing_on(grid.max_effort)
            return grid
        span = self.coverage * effort_function.max_increasing_effort
        for cap in (self.max_effort, max_effort):
            if cap is not None:
                span = min(span, cap)
        return DiscretizationGrid.for_max_effort(span, self.n_intervals)


@dataclass(frozen=True)
class CandidateEvaluation:
    """One candidate contract together with its game-theoretic outcome.

    Attributes:
        candidate: the constructed candidate contract ``xi^(k)``.
        response: the worker's exact best response to it.
        requester_utility: ``w * q(y*) - mu * c(y*)`` under the candidate.
        on_target: whether the best response landed in the target piece —
            the construction guarantees this within the grid; it can fail
            only via the flat-tail caveat for large ``omega``.
    """

    candidate: CandidateContract
    response: BestResponse
    requester_utility: float
    on_target: bool

    def __post_init__(self) -> None:
        if not math.isfinite(self.requester_utility):
            raise DesignError(
                f"requester_utility must be finite, got {self.requester_utility!r}"
            )


@dataclass(frozen=True)
class DesignResult:
    """Everything the designer knows about the solved subproblem.

    Attributes:
        contract: the selected contract (the null contract when no
            candidate clears ``min_utility``).
        k_opt: the selected target piece, or ``None`` for the null
            contract.
        response: the worker's best response to the selected contract.
        requester_utility: the requester's utility at that response.
        bounds: the Theorem 4.1 certificate (``None`` for null contracts).
        evaluations: per-candidate outcomes, ordered by target piece.
        feedback_weight: the Eq. (5) weight the design used.
        params: the worker parameters the design used.
    """

    contract: Contract
    k_opt: Optional[int]
    response: BestResponse
    requester_utility: float
    bounds: Optional[UtilityBounds]
    evaluations: Tuple[CandidateEvaluation, ...]
    feedback_weight: float
    params: WorkerParameters

    def __post_init__(self) -> None:
        for name in ("requester_utility", "feedback_weight"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DesignError(f"{name} must be finite, got {value!r}")

    @property
    def hired(self) -> bool:
        """Whether the requester actually offers incentive pay."""
        return self.k_opt is not None

    @property
    def compensation(self) -> float:
        """The pay the worker collects at its best response."""
        return self.response.compensation

    @property
    def effort(self) -> float:
        """The effort the worker exerts at its best response."""
        return self.response.effort


class ContractDesigner:
    """Solves one contract-design subproblem (Section IV-C).

    Args:
        mu: the requester's compensation weight.
        config: designer configuration (grid resolution, base pay...).
    """

    def __init__(
        self,
        mu: float = 1.0,
        config: Optional[DesignerConfig] = None,
    ) -> None:
        if mu <= 0.0:
            raise DesignError(f"mu must be positive, got {mu!r}")
        self.mu = mu
        self.config = config if config is not None else DesignerConfig()
        # Candidate contracts and best responses depend only on
        # (psi, params, grid, base_pay) — not on the feedback weight or
        # mu — so a population sharing class-level effort functions
        # (Section IV-B) reuses one candidate sweep across thousands of
        # subproblems.  The cache is the serving layer's bounded LRU so
        # long-lived designers facing heterogeneous populations cannot
        # grow without bound; imported lazily to keep core importable
        # without the serving layer loaded.
        from ..serving.cache import LRUCache

        self._candidate_cache = LRUCache(
            capacity=CANDIDATE_CACHE_SIZE,
            eviction_counter=get_registry().counter(
                "designer.candidate_cache.evictions",
                help="candidate sweeps evicted from designer LRU caches",
            ),
        )

    def design(
        self,
        effort_function: QuadraticEffort,
        params: WorkerParameters,
        feedback_weight: float = 1.0,
        max_effort: Optional[float] = None,
    ) -> DesignResult:
        """Design the contract for one worker (or meta-worker).

        Args:
            effort_function: the worker's fitted effort function ``psi``.
            params: the worker's ``(beta, omega)`` parameters.
            feedback_weight: the Eq. (5) weight ``w_i`` of this worker's
                feedback.  Non-positive weights short-circuit to the null
                contract — the requester gains nothing from the worker.
            max_effort: per-subject cap on the effort grid span.

        Returns:
            The :class:`DesignResult` with the selected contract and the
            Theorem 4.1 certificate.
        """
        grid = self.config.grid_for(effort_function, max_effort=max_effort)
        tracer = get_tracer()
        if not tracer.enabled:
            return self._design_on_grid(effort_function, params, feedback_weight, grid)
        with tracer.span(
            "core.design",
            archetype=params.worker_type.value,
            K=grid.n_intervals,
            mu=self.mu,
        ) as span:
            result = self._design_on_grid(
                effort_function, params, feedback_weight, grid
            )
            span.set("k_opt", result.k_opt)
            span.set("hired", result.hired)
            if result.bounds is not None:
                # Theorem 4.1 certificate slack: how far the achieved
                # utility sits from the Lemma 4.2/4.3 bracket edges.
                span.set(
                    "slack_lower", result.requester_utility - result.bounds.lower
                )
                span.set(
                    "slack_upper", result.bounds.upper - result.requester_utility
                )
            return result

    def _design_on_grid(
        self,
        effort_function: QuadraticEffort,
        params: WorkerParameters,
        feedback_weight: float,
        grid: DiscretizationGrid,
    ) -> DesignResult:
        """The Section IV-C solve itself, on an already-resolved grid."""
        if feedback_weight <= 0.0 or not math.isfinite(feedback_weight):
            return self._null_result(effort_function, grid, params, feedback_weight)

        tracer = get_tracer()
        if not tracer.enabled:
            sweep, _ = self._candidate_sweep(effort_function, grid, params)
        else:
            with tracer.span(
                "core.candidate_sweep", K=grid.n_intervals
            ) as sweep_span:
                sweep, sweep_stats = self._candidate_sweep(
                    effort_function, grid, params
                )
                sweep_span.set("n_candidates", len(sweep))
                sweep_span.set("n_vectorized", sweep_stats.n_vectorized)
        evaluations = []
        for candidate, response in sweep:
            utility = per_worker_utility(
                feedback_weight, response.feedback, response.compensation, self.mu
            )
            evaluations.append(
                CandidateEvaluation(
                    candidate=candidate,
                    response=response,
                    requester_utility=utility,
                    on_target=response.piece == candidate.target_piece,
                )
            )

        if not tracer.enabled:
            best = max(evaluations, key=lambda entry: entry.requester_utility)
        else:
            with tracer.span("core.select", K=len(evaluations)) as select_span:
                best = max(evaluations, key=lambda entry: entry.requester_utility)
                select_span.set("k_star", best.candidate.target_piece)
                select_span.set("on_target", best.on_target)
                select_span.set("requester_utility", best.requester_utility)
        if best.requester_utility < self.config.min_utility:
            return self._null_result(
                effort_function, grid, params, feedback_weight, tuple(evaluations)
            )

        k_opt = best.candidate.target_piece
        bounds = UtilityBounds(
            lower=requester_utility_lower_bound(
                effort_function, grid, params.beta, self.mu, k_opt, feedback_weight
            ),
            achieved=best.requester_utility,
            upper=requester_utility_upper_bound(
                effort_function,
                grid,
                params.beta,
                self.mu,
                feedback_weight,
                omega=params.omega,
            ),
            certified=best.on_target and not best.candidate.clamped_pieces,
        )
        return DesignResult(
            contract=best.candidate.contract,
            k_opt=k_opt,
            response=best.response,
            requester_utility=best.requester_utility,
            bounds=bounds,
            evaluations=tuple(evaluations),
            feedback_weight=feedback_weight,
            params=params,
        )

    def _candidate_sweep(
        self,
        effort_function: QuadraticEffort,
        grid: DiscretizationGrid,
        params: WorkerParameters,
    ) -> Tuple[list, SweepStats]:
        """All candidate contracts with their best responses (cached).

        Computed by :mod:`repro.core.sweep`'s vectorized shared-prefix
        engine.
        """
        key = (
            effort_function.coefficients(),
            params.beta,
            params.omega,
            grid.n_intervals,
            grid.delta,
            self.config.base_pay,
        )
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        sweep, stats = sweep_candidates_with_stats(
            effort_function, grid, params, base_pay=self.config.base_pay
        )
        self._candidate_cache.put(key, (sweep, stats))
        return sweep, stats

    def _null_result(
        self,
        effort_function: QuadraticEffort,
        grid: DiscretizationGrid,
        params: WorkerParameters,
        feedback_weight: float,
        evaluations: Tuple[CandidateEvaluation, ...] = (),
    ) -> DesignResult:
        """The 'do not hire' outcome: a flat zero contract."""
        contract = Contract.flat(grid, effort_function, pay=0.0)
        response = solve_best_response(contract, params)
        utility = per_worker_utility(
            feedback_weight if math.isfinite(feedback_weight) else 0.0,
            response.feedback,
            response.compensation,
            self.mu,
        )
        return DesignResult(
            contract=contract,
            k_opt=None,
            response=response,
            requester_utility=utility,
            bounds=None,
            evaluations=evaluations,
            feedback_weight=feedback_weight,
            params=params,
        )
