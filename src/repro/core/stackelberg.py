"""One Stackelberg round: design, best-respond, settle (Section III).

The requester (leader) posts one contract per subject; every subject
(follower) best-responds with an effort level; feedback is produced and
payments settle.  This module plays a single such round given a set of
decomposed subproblems and reports the requester's realized utility —
the quantity the evaluation section aggregates.

The multi-round marketplace (re-estimation between rounds, noisy
feedback, policy comparison) lives in :mod:`repro.simulation`; this
module is the noise-free game-theoretic kernel both it and the
experiments share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..errors import DesignError
from .decomposition import Subproblem, SubproblemSolution, solve_subproblems
from .designer import DesignerConfig

__all__ = ["SubjectOutcome", "RoundOutcome", "play_round"]


@dataclass(frozen=True)
class SubjectOutcome:
    """Realized outcome for one subject in one round.

    Attributes:
        subject_id: the worker or community identifier.
        effort: the subject's chosen (total) effort.
        feedback: the feedback the effort produced.
        compensation: the pay the contract awarded.
        worker_utility: the subject's own utility.
        requester_utility: the requester's decomposed utility from the
            subject, ``w * q - mu * c``.
        hired: whether the requester offered incentive pay at all.
    """

    subject_id: str
    effort: float
    feedback: float
    compensation: float
    worker_utility: float
    requester_utility: float
    hired: bool

    def __post_init__(self) -> None:
        for name in (
            "effort",
            "feedback",
            "compensation",
            "worker_utility",
            "requester_utility",
        ):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DesignError(f"{name} must be finite, got {value!r}")
        if self.effort < 0.0 or self.compensation < 0.0:
            raise DesignError("effort and compensation must be >= 0")


@dataclass(frozen=True)
class RoundOutcome:
    """Aggregate outcome of one Stackelberg round.

    Attributes:
        subjects: per-subject outcomes keyed by subject id.
        total_utility: the requester's round utility (Eq. 7).
        total_benefit: the weighted feedback sum (Eq. 4).
        total_compensation: the total pay across subjects.
    """

    subjects: Dict[str, SubjectOutcome]
    total_utility: float
    total_benefit: float
    total_compensation: float

    def __post_init__(self) -> None:
        for name in ("total_utility", "total_benefit", "total_compensation"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise DesignError(f"{name} must be finite, got {value!r}")

    @property
    def n_hired(self) -> int:
        """Number of subjects that received incentive contracts."""
        return sum(1 for outcome in self.subjects.values() if outcome.hired)


def play_round(
    subproblems: Sequence[Subproblem],
    mu: float = 1.0,
    config: Optional[DesignerConfig] = None,
) -> Tuple[RoundOutcome, Dict[str, SubproblemSolution]]:
    """Play one full Stackelberg round over all subproblems.

    One leader/follower exchange of the Section III game: the requester
    solves the Eqs. (8)-(10) outer problem per subject (via the
    Section IV-B decomposition), workers best-respond per Eq. (11)/(14),
    and the Eq. (7) round utility is aggregated.

    Args:
        subproblems: the decomposed per-subject problems.
        mu: requester compensation weight.
        config: designer configuration.

    Returns:
        The round outcome and the underlying per-subject solutions (so
        callers can reuse contracts across rounds).
    """
    if mu <= 0.0:
        raise DesignError(f"mu must be positive, got {mu!r}")
    solutions = solve_subproblems(subproblems, mu=mu, config=config)
    subjects: Dict[str, SubjectOutcome] = {}
    total_benefit = 0.0
    total_compensation = 0.0
    for subject_id, solution in solutions.items():
        result = solution.result
        response = result.response
        subjects[subject_id] = SubjectOutcome(
            subject_id=subject_id,
            effort=response.effort,
            feedback=response.feedback,
            compensation=response.compensation,
            worker_utility=response.utility,
            requester_utility=result.requester_utility,
            hired=result.hired,
        )
        total_benefit += result.feedback_weight * response.feedback
        total_compensation += response.compensation
    outcome = RoundOutcome(
        subjects=subjects,
        total_utility=total_benefit - mu * total_compensation,
        total_benefit=total_benefit,
        total_compensation=total_compensation,
    )
    return outcome, solutions
