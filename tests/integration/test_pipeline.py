"""Full-pipeline integration tests: trace -> cluster -> fit -> design ->
simulate, exercised through the public API only."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    ContractDesigner,
    WorkerParameters,
    solve_subproblems,
)
from repro.baselines import compare_policies
from repro.collusion import cluster_collusive_workers, community_size_table
from repro.core.utility import RequesterObjective
from repro.data import AmazonTraceGenerator, TraceConfig
from repro.estimation import DeviationMaliceEstimator, EffortProxy
from repro.simulation import DynamicContractPolicy, ExclusionPolicy
from repro.types import RequesterParameters, WorkerType
from repro.workers import build_population


class TestFullPipeline:
    def test_trace_to_contracts(
        self, small_trace, small_clusters, small_proxy, small_malice
    ):
        objective = RequesterObjective(RequesterParameters(mu=1.0))
        population = build_population(
            trace=small_trace,
            clusters=small_clusters,
            proxy=small_proxy,
            malice_estimates=small_malice,
            objective=objective,
            honest_subset=small_trace.worker_ids(WorkerType.HONEST)[:100],
        )
        solutions = solve_subproblems(population.subproblems, mu=1.0)
        assert len(solutions) == len(population.subproblems)
        # Every hired honest worker's contract is monotone and feasible.
        for subject_id in population.subjects_of_type(WorkerType.HONEST):
            contract = solutions[subject_id].result.contract
            pay = contract.compensations
            assert all(b >= a for a, b in zip(pay, pay[1:]))

    def test_compensation_ordering_across_classes(
        self, small_trace, small_clusters, small_proxy, small_malice
    ):
        """The Fig. 8b headline through the whole pipeline."""
        objective = RequesterObjective(RequesterParameters(mu=1.0))
        population = build_population(
            trace=small_trace,
            clusters=small_clusters,
            proxy=small_proxy,
            malice_estimates=small_malice,
            objective=objective,
        )
        solutions = solve_subproblems(population.subproblems, mu=1.0)
        means = {}
        for worker_type in WorkerType:
            subject_ids = population.subjects_of_type(worker_type)
            means[worker_type] = float(
                np.mean(
                    [solutions[s].per_member_compensation for s in subject_ids]
                )
            )
        assert (
            means[WorkerType.HONEST]
            > means[WorkerType.NONCOLLUSIVE_MALICIOUS]
            > means[WorkerType.COLLUSIVE_MALICIOUS]
        )

    def test_dynamic_beats_exclusion_end_to_end(
        self, small_trace, small_clusters, small_proxy, small_malice
    ):
        objective = RequesterObjective(RequesterParameters(mu=1.0))
        population = build_population(
            trace=small_trace,
            clusters=small_clusters,
            proxy=small_proxy,
            malice_estimates=small_malice,
            objective=objective,
            honest_subset=small_trace.worker_ids(WorkerType.HONEST)[:80],
        )
        comparison = compare_policies(
            population,
            objective,
            {
                "dynamic": DynamicContractPolicy(mu=1.0),
                "exclusion": ExclusionPolicy(inner=DynamicContractPolicy(mu=1.0)),
            },
            n_rounds=4,
            seed=3,
        )
        assert comparison.winner() == "dynamic"

    def test_clustering_statistics_roundtrip(self, small_trace):
        clusters = cluster_collusive_workers(small_trace.malicious_targets())
        table = community_size_table(clusters)
        assert table.n_communities == clusters.n_communities
        total_from_table = (
            sum(table.counts[s] * s for s in table.counts)
        )
        # Only exact buckets counted here; totals must not exceed the
        # full collusive population.
        assert total_from_table <= clusters.n_collusive_workers


class TestSaveLoadPipeline:
    def test_persisted_trace_reproduces_design(self, small_trace, tmp_path):
        """Designing from a reloaded trace gives identical contracts."""
        path = tmp_path / "trace.jsonl"
        small_trace.save(path)
        from repro.data import ReviewTrace

        reloaded = ReviewTrace.load(path)
        for trace in (small_trace, reloaded):
            proxy = EffortProxy.from_trace(trace)
            clusters = cluster_collusive_workers(trace.malicious_targets())
            malice = DeviationMaliceEstimator().estimate(trace)
            population = build_population(
                trace=trace,
                clusters=clusters,
                proxy=proxy,
                malice_estimates=malice,
                objective=RequesterObjective(RequesterParameters(mu=1.0)),
                honest_subset=trace.worker_ids(WorkerType.HONEST)[:20],
            )
            solutions = solve_subproblems(population.subproblems[:5], mu=1.0)
            if trace is small_trace:
                reference = {
                    s: solutions[s].result.requester_utility for s in solutions
                }
            else:
                for subject_id, utility in reference.items():
                    assert solutions[subject_id].result.requester_utility == (
                        pytest.approx(utility)
                    )


class TestConsistencyAcrossSeeds:
    def test_headline_results_stable_across_seeds(self):
        """The qualitative claims hold for several generator seeds."""
        for seed in (1, 2, 3):
            trace = AmazonTraceGenerator(TraceConfig.small(), seed=seed).generate()
            clusters = cluster_collusive_workers(trace.malicious_targets())
            planted = {
                frozenset(m) for m in trace.planted_communities().values()
            }
            assert set(clusters.communities) == planted
            aggregates = trace.class_aggregates()
            assert (
                aggregates[WorkerType.COLLUSIVE_MALICIOUS]["mean_feedback"]
                > aggregates[WorkerType.HONEST]["mean_feedback"]
            )


class TestQuickstartSurface:
    def test_readme_quickstart_works(self):
        """The README quickstart snippet must keep working verbatim."""
        from repro import ContractDesigner, QuadraticEffort, WorkerParameters

        psi = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
        designer = ContractDesigner(mu=1.0)
        result = designer.design(psi, WorkerParameters.honest(beta=1.0))
        assert result.k_opt is not None
        assert result.requester_utility > 0
        assert result.bounds.gap >= 0
