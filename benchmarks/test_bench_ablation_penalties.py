"""Ablation: the Eq. (5) penalty terms (kappa, gamma).

Fig. 8b's compensation ordering (honest > NC-Mal > C-Mal) is driven by
the weight penalties ``kappa * e_mal`` and ``gamma * A_i``.  This
ablation re-runs the decomposed design with the penalties disabled and
verifies they are load-bearing for the collusive discount specifically:
without ``gamma``, communities keep their weight advantage from boosted
feedback and the ordering weakens.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import solve_subproblems
from repro.core.utility import RequesterObjective
from repro.types import FeedbackWeightParameters, RequesterParameters, WorkerType


def _mean_pay_by_type(population, solutions):
    means = {}
    for worker_type in WorkerType:
        subject_ids = population.subjects_of_type(worker_type)
        means[worker_type] = float(
            np.mean([solutions[s].per_member_compensation for s in subject_ids])
        )
    return means


def _population_with(context, weight_params):
    objective = RequesterObjective(
        RequesterParameters(mu=1.0, weight_params=weight_params)
    )
    from repro.workers import build_population as build

    population = build(
        trace=context.trace,
        clusters=context.clusters,
        proxy=context.proxy,
        malice_estimates=context.malice,
        objective=objective,
    )
    return population


def test_bench_ablation_paper_penalties(benchmark, context):
    """Time the design with the paper's kappa = gamma = 0.1."""
    population = _population_with(
        context,
        FeedbackWeightParameters(rho=1.0, kappa=0.1, gamma=0.1, min_deviation=0.1),
    )

    solutions = benchmark(solve_subproblems, population.subproblems, 1.0)
    means = _mean_pay_by_type(population, solutions)
    assert (
        means[WorkerType.HONEST]
        > means[WorkerType.NONCOLLUSIVE_MALICIOUS]
        > means[WorkerType.COLLUSIVE_MALICIOUS]
    )
    benchmark.extra_info["cm_per_member_pay"] = means[
        WorkerType.COLLUSIVE_MALICIOUS
    ]


def test_bench_ablation_no_penalties(benchmark, context):
    """Time the design with kappa = gamma = 0; verify the penalties are
    what pushes collusive pay down."""
    with_penalties = _population_with(
        context,
        FeedbackWeightParameters(rho=1.0, kappa=0.1, gamma=0.1, min_deviation=0.1),
    )
    without = _population_with(
        context,
        FeedbackWeightParameters(rho=1.0, kappa=0.0, gamma=0.0, min_deviation=0.1),
    )

    solutions_without = benchmark(solve_subproblems, without.subproblems, 1.0)
    solutions_with = solve_subproblems(with_penalties.subproblems, mu=1.0)

    means_with = _mean_pay_by_type(with_penalties, solutions_with)
    means_without = _mean_pay_by_type(without, solutions_without)
    # Removing the penalties raises what collusive communities earn.
    assert (
        means_without[WorkerType.COLLUSIVE_MALICIOUS]
        >= means_with[WorkerType.COLLUSIVE_MALICIOUS]
    )
    # Honest pay is essentially unaffected (their e_mal is small and
    # they have no partners).
    assert means_without[WorkerType.HONEST] == pytest.approx(
        means_with[WorkerType.HONEST], rel=0.05
    )
    benchmark.extra_info["cm_pay_without_penalties"] = means_without[
        WorkerType.COLLUSIVE_MALICIOUS
    ]
    benchmark.extra_info["cm_pay_with_penalties"] = means_with[
        WorkerType.COLLUSIVE_MALICIOUS
    ]
