"""Fig. 8b: compensation by worker class across the ``mu`` sweep.

For each ``mu in {1.0, 0.9, 0.8}`` the decomposed subproblems are solved
and the per-member compensation distribution of each class summarized by
mean / 5th / 95th percentile.  The paper's two observations, verified as
shape checks:

1. compensation rises as ``mu`` falls (a lower compensation weight means
   a more generous requester), and
2. compensation orders honest > non-collusive malicious > collusive
   malicious, driven by the Eq. (5) penalties.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..core.decomposition import solve_subproblems
from ..metrics.comparison import ComparisonTable
from ..metrics.percentiles import summarize
from ..types import WorkerType
from .common import ExperimentContext, ExperimentResult, build_context
from .config import ExperimentConfig

__all__ = ["run"]

#: Honest workers included per mu at paper scale (18k subproblems per mu
#: would be pure repetition — candidates are shared — but per-worker
#: reporting still costs time; the paper's own Fig. 8 samples workers).
_HONEST_SAMPLE = 2000


def run(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Regenerate Fig. 8b's compensation summaries."""
    context = context if context is not None else build_context(ExperimentConfig())
    config = context.config

    population = context.population(honest_sample=_HONEST_SAMPLE)
    table = ComparisonTable(
        title="Fig. 8b: per-member compensation (mean [p5, p95])", rows=[]
    )
    summaries: Dict[float, Dict[str, object]] = {}
    means: Dict[float, Dict[WorkerType, float]] = {}
    for mu in config.mu_sweep:
        solutions = solve_subproblems(population.subproblems, mu=mu)
        summaries[mu] = {}
        means[mu] = {}
        for worker_type in WorkerType:
            subject_ids = population.subjects_of_type(worker_type)
            pays = [
                solutions[subject_id].per_member_compensation
                for subject_id in subject_ids
            ]
            summary = summarize(pays)
            summaries[mu][worker_type.value] = summary
            means[mu][worker_type] = summary.mean
            table.add(
                label=f"mu={mu} {worker_type.short_label}",
                measured=summary.mean,
                note=f"[{summary.p5:.4f}, {summary.p95:.4f}] n={summary.n}",
            )

    mus = list(config.mu_sweep)
    decreasing_mu_increases_pay = all(
        means[later][wt] >= means[earlier][wt] * 0.999
        for earlier, later in zip(mus, mus[1:])
        for wt in WorkerType
    )
    ordering_holds = all(
        means[mu][WorkerType.HONEST]
        > means[mu][WorkerType.NONCOLLUSIVE_MALICIOUS]
        > means[mu][WorkerType.COLLUSIVE_MALICIOUS]
        for mu in mus
    )
    checks = {
        "compensation_rises_as_mu_falls": decreasing_mu_increases_pay,
        "ordering_honest_gt_ncm_gt_cm": ordering_holds,
    }
    return ExperimentResult(
        experiment_id="fig8b",
        tables=[table.format()],
        data={
            "summaries": summaries,
            "means": {
                mu: {wt.value: means[mu][wt] for wt in WorkerType} for mu in mus
            },
        },
        checks=checks,
    )
