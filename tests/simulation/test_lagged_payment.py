"""Tests for the paper-literal lagged payment timing (Eq. 1)."""

from __future__ import annotations

import pytest

from repro.core.utility import RequesterObjective
from repro.simulation import DynamicContractPolicy, MarketplaceSimulation
from repro.types import RequesterParameters, WorkerType
from repro.workers import build_population


@pytest.fixture()
def population(small_trace, small_clusters, small_proxy, small_malice):
    return build_population(
        trace=small_trace,
        clusters=small_clusters,
        proxy=small_proxy,
        malice_estimates=small_malice,
        objective=RequesterObjective(RequesterParameters(mu=1.0)),
        honest_subset=small_trace.worker_ids(WorkerType.HONEST)[:30],
    )


@pytest.fixture()
def objective():
    return RequesterObjective(RequesterParameters(mu=1.0))


class TestLaggedPayment:
    def test_first_round_pays_zero_feedback_value(self, population, objective):
        simulation = MarketplaceSimulation(
            population,
            objective,
            DynamicContractPolicy(mu=1.0),
            seed=0,
            lagged_payment=True,
        )
        record = simulation.step()
        contracts = simulation._assignment.to_mapping(simulation.population)
        for subject_id, outcome in record.outcomes.items():
            if outcome.excluded:
                continue
            expected = contracts[subject_id].pay_for_feedback(0.0)
            assert outcome.compensation == pytest.approx(expected)

    def test_second_round_pays_first_rounds_feedback(
        self, population, objective
    ):
        simulation = MarketplaceSimulation(
            population,
            objective,
            DynamicContractPolicy(mu=1.0),
            seed=0,
            lagged_payment=True,
        )
        first = simulation.step()
        second = simulation.step()
        contracts = simulation._assignment.to_mapping(simulation.population)
        for subject_id, outcome in second.outcomes.items():
            if outcome.excluded:
                continue
            expected = contracts[subject_id].pay_for_feedback(
                first.outcomes[subject_id].feedback
            )
            assert outcome.compensation == pytest.approx(expected)

    def test_steady_state_matches_unlagged(self, population, objective):
        """Noise-free and stationary, the lagged run pays the same per
        round from round 1 on (feedback is constant across rounds)."""
        lagged = MarketplaceSimulation(
            population,
            objective,
            DynamicContractPolicy(mu=1.0),
            seed=0,
            lagged_payment=True,
        ).run(4)
        unlagged = MarketplaceSimulation(
            population,
            objective,
            DynamicContractPolicy(mu=1.0),
            seed=0,
            lagged_payment=False,
        ).run(4)
        lagged_series = lagged.utility_series()
        unlagged_series = unlagged.utility_series()
        # From round 1 on the two accountings agree exactly.
        assert lagged_series[1:] == pytest.approx(unlagged_series[1:])
        # Round 0 pays less under the lag (no history to reward yet).
        assert lagged_series[0] >= unlagged_series[0]
