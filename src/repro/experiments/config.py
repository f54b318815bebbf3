"""Shared experiment configuration.

One :class:`ExperimentConfig` drives every table/figure driver so that
all experiments run against the same trace, the same estimators and the
paper's parameter choices: the paper sets ``beta = 1`` and
``kappa = gamma = 0.1`` throughout, ``mu = 10`` in the Fig. 6 numeric
study and ``mu in {1.0, 0.9, 0.8}`` in Fig. 8b.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..data.synthetic import TraceConfig
from ..errors import ExperimentError
from ..types import FeedbackWeightParameters
from ..workers.population import BehaviorConfig

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """Configuration shared by all experiment drivers.

    Attributes:
        scale: ``"paper"`` for the full 118k-review trace, ``"small"``
            for a structurally identical test-sized trace.
        seed: seed for trace generation and simulation noise.
        weight_params: Eq. (5) coefficients (paper: kappa = gamma = 0.1).
        behavior: assumed per-class behavioural parameters.
        mu_default: requester compensation weight outside sweeps.
        mu_sweep: the Fig. 8b sweep values.
        fig6_mu: the Fig. 6 numeric-study mu (paper: 10).
        fig6_interval_counts: the m values Fig. 6 sweeps.
        fig8a_interval_counts: the m values Fig. 8a compares (10/20/40).
        fig8a_n_workers: honest workers selected (paper: 200).
        fig8a_min_reviews: review floor for selection (paper: 20).
        fig8c_rounds: simulated rounds for the policy comparison.
        fig8c_honest_sample: honest workers included in the Fig. 8c
            simulation (the full 18k population would dominate runtime
            without changing the comparison).
    """

    scale: str = "paper"
    seed: int = 7
    weight_params: FeedbackWeightParameters = field(
        default_factory=lambda: FeedbackWeightParameters(
            rho=1.0, kappa=0.1, gamma=0.1, min_deviation=0.1
        )
    )
    behavior: BehaviorConfig = field(default_factory=BehaviorConfig)
    mu_default: float = 1.0
    mu_sweep: Tuple[float, ...] = (1.0, 0.9, 0.8)
    fig6_mu: float = 10.0
    fig6_interval_counts: Tuple[int, ...] = (2, 4, 6, 8, 10, 15, 20, 30, 40)
    fig8a_interval_counts: Tuple[int, ...] = (10, 20, 40)
    fig8a_n_workers: int = 200
    fig8a_min_reviews: int = 20
    fig8c_rounds: int = 20
    fig8c_honest_sample: int = 800

    def __post_init__(self) -> None:
        if self.scale not in ("paper", "small"):
            raise ExperimentError(
                f"scale must be 'paper' or 'small', got {self.scale!r}"
            )
        if self.mu_default <= 0.0 or self.fig6_mu <= 0.0:
            raise ExperimentError("mu values must be positive")
        if not self.mu_sweep or any(mu <= 0.0 for mu in self.mu_sweep):
            raise ExperimentError("mu_sweep must be non-empty and positive")
        if self.fig8a_n_workers < 1 or self.fig8a_min_reviews < 1:
            raise ExperimentError("fig8a selection parameters must be positive")
        if self.fig8c_rounds < 1 or self.fig8c_honest_sample < 1:
            raise ExperimentError("fig8c parameters must be positive")

    def trace_config(self) -> TraceConfig:
        """The trace calibration implied by ``scale``."""
        if self.scale == "paper":
            return TraceConfig.paper()
        return TraceConfig.small()

    @staticmethod
    def small(seed: int = 7) -> "ExperimentConfig":
        """Test-sized configuration with proportionally scaled knobs."""
        return ExperimentConfig(
            scale="small",
            seed=seed,
            fig8a_n_workers=25,
            fig8a_min_reviews=15,
            fig8c_rounds=8,
            fig8c_honest_sample=150,
        )
