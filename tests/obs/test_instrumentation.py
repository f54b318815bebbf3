"""End-to-end checks that the pipeline emits the documented spans.

Every test installs a deterministic global tracer (the ``tracer``
fixture) and drives the *real* code — designer, decomposition,
clustering, solver pool, marketplace engine — asserting the span
taxonomy from docs/OBSERVABILITY.md actually shows up, with the
attributes the acceptance criteria name (archetype, K, k*, bound
slack), and that the ledger provenance columns round-trip through
replay verification.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.collusion.clustering import cluster_collusive_workers
from repro.core import ContractDesigner, DesignerConfig, QuadraticEffort, solve_subproblems
from repro.core.utility import RequesterObjective
from repro.errors import ServingError
from repro.serving import SolverPool
from repro.serving.replay import verify_round
from repro.serving.workload import synthetic_subproblems
from repro.simulation import MarketplaceSimulation
from repro.simulation.ledger import RoundRecord
from repro.simulation.policies import DynamicContractPolicy
from repro.types import RequesterParameters, WorkerParameters, WorkerType
from repro.workers import build_population


@pytest.fixture()
def population(small_trace, small_clusters, small_proxy, small_malice):
    return build_population(
        trace=small_trace,
        clusters=small_clusters,
        proxy=small_proxy,
        malice_estimates=small_malice,
        objective=RequesterObjective(RequesterParameters(mu=1.0)),
        honest_subset=small_trace.worker_ids(WorkerType.HONEST)[:20],
    )


class TestDesignerSpans:
    def test_design_emits_full_span_tree(self, tracer):
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=6))
        psi = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
        designer.design(psi, WorkerParameters.honest(beta=1.0), feedback_weight=1.0)
        by_name = {}
        for span in tracer.spans():
            by_name.setdefault(span.name, span)
        assert {
            "core.design",
            "core.candidate_sweep",
            "core.candidate_build",
            "core.select",
        } <= set(by_name)

        design = by_name["core.design"]
        assert design.attributes["archetype"] == "honest"
        assert design.attributes["K"] == 6
        assert "k_opt" in design.attributes
        assert design.attributes["slack_lower"] >= -1e-9
        assert design.attributes["slack_upper"] >= -1e-9

        sweep = by_name["core.candidate_sweep"]
        assert sweep.parent_id == design.span_id
        assert sweep.attributes["n_candidates"] >= 1
        assert by_name["core.candidate_build"].parent_id == sweep.span_id
        assert by_name["core.select"].attributes["k_star"] == design.attributes["k_opt"]

    def test_disabled_tracer_emits_nothing(self, tracer):
        tracer.enabled = False
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=6))
        psi = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
        designer.design(psi, WorkerParameters.honest(beta=1.0), feedback_weight=1.0)
        assert tracer.spans() == ()


class TestDecompositionSpan:
    def test_solve_subproblems_traced(self, tracer):
        workload = synthetic_subproblems(n_subjects=4, n_archetypes=2, seed=5)
        solve_subproblems(workload, mu=1.0)
        (span,) = [s for s in tracer.spans() if s.name == "core.decomposition"]
        assert span.attributes["n_subjects"] == 4
        assert 0 <= span.attributes["n_hired"] <= 4
        design_spans = [s for s in tracer.spans() if s.name == "core.design"]
        assert all(s.parent_id == span.span_id for s in design_spans)


class TestClusteringSpan:
    def test_cluster_traced(self, tracer):
        targets = {
            "w1": {"s1", "s2"},
            "w2": {"s1", "s2"},
            "w3": {"s9"},
        }
        clusters = cluster_collusive_workers(targets)
        (span,) = [s for s in tracer.spans() if s.name == "collusion.cluster"]
        assert span.attributes["n_workers"] == 3
        assert span.attributes["n_communities"] == clusters.n_communities
        assert span.attributes["largest_community"] >= 1


class TestServingSpan:
    def test_solve_batch_traced(self, tracer):
        workload = synthetic_subproblems(n_subjects=6, n_archetypes=2, seed=11)
        SolverPool().solve(workload)
        (span,) = [s for s in tracer.spans() if s.name == "serving.solve_batch"]
        assert span.attributes["n_requests"] == 6
        assert span.attributes["n_unique"] == 2


class TestSimulationRoundTrip:
    def test_round_spans_and_ledger_provenance(self, tracer, population):
        objective = RequesterObjective(RequesterParameters(mu=1.0))
        ledger = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(mu=1.0), seed=3
        ).run(2)
        round_spans = [s for s in tracer.spans() if s.name == "simulation.round"]
        assert [s.attributes["round_index"] for s in round_spans] == [0, 1]
        span_ids = {s.span_id for s in round_spans}
        for record in ledger.records:
            assert record.span_id in span_ids
        # Round 0 designs contracts; its cost lands in the ledger and
        # in the round span.
        assert ledger.records[0].design_ms is not None
        assert ledger.records[0].design_ms >= 0.0
        assert ledger.total_design_ms() >= ledger.records[0].design_ms
        assert round_spans[0].attributes["design_ms"] == ledger.records[0].design_ms

    def test_untraced_run_still_times_design(self, tracer, population):
        tracer.enabled = False
        objective = RequesterObjective(RequesterParameters(mu=1.0))
        ledger = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(mu=1.0), seed=3
        ).run(1)
        record = ledger.records[0]
        assert record.span_id is None
        assert record.design_ms is not None


class TestReplayProvenance:
    def _record(self, **overrides):
        record = RoundRecord(
            round_index=0,
            outcomes={},
            benefit=0.0,
            total_compensation=0.0,
            utility=0.0,
            design_ms=1.5,
            span_id="00000000000a",
        )
        return dataclasses.replace(record, **overrides)

    def test_well_formed_provenance_verifies(self):
        assert verify_round(self._record(), [], mu=1.0) == 0
        assert verify_round(self._record(design_ms=None, span_id=None), [], mu=1.0) == 0

    def test_negative_design_ms_rejected(self):
        with pytest.raises(ServingError, match="design_ms"):
            verify_round(self._record(design_ms=-1.0), [], mu=1.0)

    def test_non_finite_design_ms_rejected(self):
        with pytest.raises(ServingError, match="design_ms"):
            verify_round(self._record(design_ms=float("nan")), [], mu=1.0)

    def test_empty_span_id_rejected(self):
        with pytest.raises(ServingError, match="span_id"):
            verify_round(self._record(span_id=""), [], mu=1.0)
