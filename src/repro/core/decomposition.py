"""BiP decomposition into per-worker / per-community subproblems.

Section IV-B observes that the requester's objective separates across
non-collusive workers and collusive communities: no term couples two
different subjects.  The bilevel program therefore decomposes into one
small subproblem per subject, each solvable independently.  A *subject*
is either a single non-collusive worker or a collusive community treated
as a meta-worker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from ..errors import DesignError
from ..obs.trace import get_tracer
from ..types import WorkerParameters, WorkerType
from .designer import ContractDesigner, DesignerConfig, DesignResult
from .effort import QuadraticEffort

__all__ = ["Subproblem", "SubproblemSolution", "solve_subproblems", "decomposition_report"]


@dataclass(frozen=True)
class Subproblem:
    """One independent contract-design subproblem.

    Attributes:
        subject_id: unique identifier of the worker or community.
        effort_function: the subject's fitted effort function ``psi``.
        params: the subject's ``(beta, omega)`` utility parameters.
        feedback_weight: the Eq. (5) weight of the subject's feedback.
        member_ids: the workers behind the subject — a singleton for an
            individual worker, all community members for a meta-worker.
        max_effort: optional cap on the subject's effort grid (typically
            the largest effort the subject was observed to exert).
    """

    subject_id: str
    effort_function: QuadraticEffort
    params: WorkerParameters
    feedback_weight: float = 1.0
    member_ids: Tuple[str, ...] = field(default_factory=tuple)
    max_effort: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.subject_id:
            raise DesignError("subject_id must be a non-empty string")
        members = tuple(self.member_ids) if self.member_ids else (self.subject_id,)
        object.__setattr__(self, "member_ids", members)
        is_community = len(members) > 1
        if is_community and self.params.worker_type is not WorkerType.COLLUSIVE_MALICIOUS:
            raise DesignError(
                f"subject {self.subject_id!r} has {len(members)} members but "
                f"type {self.params.worker_type!r}; communities must be collusive"
            )

    @property
    def is_community(self) -> bool:
        """Whether the subject aggregates several collusive workers."""
        return len(self.member_ids) > 1

    @property
    def size(self) -> int:
        """Number of underlying workers."""
        return len(self.member_ids)


@dataclass(frozen=True)
class SubproblemSolution:
    """A solved subproblem: the subproblem plus its design result."""

    subproblem: Subproblem
    result: DesignResult

    @property
    def per_member_compensation(self) -> float:
        """The community pay split evenly across members.

        The paper designs *one* contract per community; we report the
        even split for per-worker statistics (Fig. 8b).
        """
        return self.result.compensation / self.subproblem.size


def solve_subproblems(
    subproblems: Sequence[Subproblem],
    mu: float = 1.0,
    config: Optional[DesignerConfig] = None,
) -> Dict[str, SubproblemSolution]:
    """Solve every Section IV-B subproblem in-process with one designer.

    Args:
        subproblems: the decomposed subproblems; subject ids must be
            unique.
        mu: requester compensation weight.
        config: designer configuration shared by all subproblems.

    Returns:
        Mapping from subject id to its :class:`SubproblemSolution`,
        in input order.
    """
    tracer = get_tracer()
    with tracer.span("core.decomposition", n_subjects=len(subproblems)) as span:
        seen = set()
        for subproblem in subproblems:
            if subproblem.subject_id in seen:
                raise DesignError(f"duplicate subject_id {subproblem.subject_id!r}")
            seen.add(subproblem.subject_id)

        designer = ContractDesigner(mu=mu, config=config)
        solutions = [
            SubproblemSolution(
                subproblem=subproblem,
                result=designer.design(
                    effort_function=subproblem.effort_function,
                    params=subproblem.params,
                    feedback_weight=subproblem.feedback_weight,
                    max_effort=subproblem.max_effort,
                ),
            )
            for subproblem in subproblems
        ]
        span.set(
            "n_hired", sum(1 for entry in solutions if entry.result.hired)
        )
        return {entry.subproblem.subject_id: entry for entry in solutions}


def decomposition_report(
    solutions: Dict[str, SubproblemSolution], mu: float
) -> Dict[str, float]:
    """Aggregate statistics over a solved decomposition.

    Returns a dict with the requester's total utility, total benefit,
    total compensation and the hired-subject count — the quantities the
    Fig. 8 experiments report.
    """
    if mu <= 0.0:
        raise DesignError(f"mu must be positive, got {mu!r}")
    total_benefit = 0.0
    total_compensation = 0.0
    hired = 0
    for entry in solutions.values():
        response = entry.result.response
        total_benefit += entry.result.feedback_weight * response.feedback
        total_compensation += response.compensation
        if entry.result.hired:
            hired += 1
    return {
        "total_utility": total_benefit - mu * total_compensation,
        "total_benefit": total_benefit,
        "total_compensation": total_compensation,
        "n_subjects": float(len(solutions)),
        "n_hired": float(hired),
    }
