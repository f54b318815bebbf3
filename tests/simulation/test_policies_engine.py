"""Tests for payment policies and the marketplace engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.utility import RequesterObjective
from repro.errors import SimulationError
from repro.simulation import (
    DynamicContractPolicy,
    ExclusionPolicy,
    FixedPaymentPolicy,
    MarketplaceSimulation,
)
from repro.types import RequesterParameters, WorkerType
from repro.workers import build_population
from repro.workers.columnar import ColumnarPopulation


@pytest.fixture(scope="module")
def population(request):
    return build_population(
        trace=request.getfixturevalue("small_trace"),
        clusters=request.getfixturevalue("small_clusters"),
        proxy=request.getfixturevalue("small_proxy"),
        malice_estimates=request.getfixturevalue("small_malice"),
        objective=RequesterObjective(RequesterParameters(mu=1.0)),
        honest_subset=request.getfixturevalue("small_trace").worker_ids(
            WorkerType.HONEST
        )[:60],
    )


@pytest.fixture(scope="module")
def columnar(population):
    return ColumnarPopulation.from_population(population)


@pytest.fixture()
def objective():
    return RequesterObjective(RequesterParameters(mu=1.0))


class TestDynamicPolicy:
    def test_contracts_for_every_subject(self, population, columnar):
        policy = DynamicContractPolicy(mu=1.0)
        contracts = policy.contracts_columnar(columnar).to_mapping(columnar)
        assert set(contracts) == {s.subject_id for s in population.subproblems}
        assert not policy.excluded_mask(columnar).any()

    def test_rejects_bad_mu(self):
        with pytest.raises(SimulationError):
            DynamicContractPolicy(mu=0.0)


class TestExclusionPolicy:
    def test_excludes_malicious_subjects(self, population, columnar):
        policy = ExclusionPolicy(inner=DynamicContractPolicy(mu=1.0))
        mask = policy.excluded_mask(columnar)
        excluded = {
            columnar.subject_id(int(row)) for row in np.flatnonzero(mask)
        }
        malicious = set(
            population.subjects_of_type(WorkerType.NONCOLLUSIVE_MALICIOUS)
        ) | set(population.subjects_of_type(WorkerType.COLLUSIVE_MALICIOUS))
        assert excluded >= malicious
        honest = set(population.subjects_of_type(WorkerType.HONEST))
        contracts = policy.contracts_columnar(columnar).to_mapping(columnar)
        assert set(contracts).isdisjoint(excluded)
        assert set(contracts) == honest - excluded

    def test_threshold_validated(self):
        with pytest.raises(SimulationError):
            ExclusionPolicy(inner=DynamicContractPolicy(), malice_threshold=1.5)


class TestFixedPolicy:
    def test_flat_pay_scaled_by_members(self, population, columnar):
        policy = FixedPaymentPolicy(pay_per_member=1.5)
        contracts = policy.contracts_columnar(columnar).to_mapping(columnar)
        for subproblem in population.subproblems:
            contract = contracts[subproblem.subject_id]
            expected = 1.5 * len(subproblem.member_ids)
            assert contract.pay_for_feedback(0.0) == pytest.approx(expected)
            assert contract.max_compensation == pytest.approx(expected)

    def test_rejects_negative_pay(self):
        with pytest.raises(SimulationError):
            FixedPaymentPolicy(pay_per_member=-1.0)


class TestEngine:
    def test_run_produces_requested_rounds(self, population, objective):
        simulation = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(mu=1.0), seed=0
        )
        ledger = simulation.run(3)
        assert ledger.n_rounds == 3

    def test_noise_free_rounds_identical(self, population, objective):
        simulation = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(mu=1.0), seed=0
        )
        ledger = simulation.run(2)
        series = ledger.utility_series()
        assert series[0] == pytest.approx(series[1])

    def test_excluded_subjects_idle(self, population, columnar, objective):
        policy = ExclusionPolicy(inner=DynamicContractPolicy(mu=1.0))
        simulation = MarketplaceSimulation(population, objective, policy, seed=0)
        record = simulation.step()
        excluded = np.flatnonzero(policy.excluded_mask(columnar))
        assert excluded.size
        for row in excluded:
            outcome = record.outcomes[columnar.subject_id(int(row))]
            assert outcome.excluded
            assert outcome.compensation == 0.0
            assert outcome.effort == 0.0

    def test_round_utility_consistent(self, population, objective):
        simulation = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(mu=1.0), seed=0
        )
        record = simulation.step()
        benefit = sum(o.requester_value for o in record.outcomes.values())
        pay = sum(o.compensation for o in record.outcomes.values())
        assert record.benefit == pytest.approx(benefit)
        assert record.utility == pytest.approx(benefit - objective.mu * pay)

    def test_dynamic_beats_fixed_payment(self, population, objective):
        dynamic = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(mu=1.0), seed=0
        ).run(2)
        fixed = MarketplaceSimulation(
            population, objective, FixedPaymentPolicy(pay_per_member=1.0), seed=0
        ).run(2)
        assert dynamic.total_utility() > fixed.total_utility()

    def test_redesign_cadence_validated(self, population, objective):
        with pytest.raises(SimulationError):
            MarketplaceSimulation(
                population, objective, DynamicContractPolicy(), redesign_every=0
            )

    def test_rejects_zero_rounds(self, population, objective):
        simulation = MarketplaceSimulation(
            population, objective, DynamicContractPolicy(), seed=0
        )
        with pytest.raises(SimulationError):
            simulation.run(0)
