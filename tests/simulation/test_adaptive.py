"""Tests for the online-adaptive dynamic policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.utility import RequesterObjective
from repro.errors import SimulationError
from repro.simulation import (
    AdaptiveDynamicPolicy,
    EwmaDeviationTracker,
    ExclusionPolicy,
    MarketplaceSimulation,
    StreamingLedger,
)
from repro.types import RequesterParameters, WorkerType
from repro.workers import CamouflagedWorker, IntermittentWorker, build_population
from repro.workers.columnar import ColumnarPopulation


@pytest.fixture()
def population(small_trace, small_clusters, small_proxy, small_malice):
    return build_population(
        trace=small_trace,
        clusters=small_clusters,
        proxy=small_proxy,
        malice_estimates=small_malice,
        objective=RequesterObjective(RequesterParameters(mu=1.0)),
        honest_subset=small_trace.worker_ids(WorkerType.HONEST)[:40],
    )


@pytest.fixture()
def objective():
    return RequesterObjective(RequesterParameters(mu=1.0))


class TestTracker:
    def test_prior_before_observation(self):
        tracker = EwmaDeviationTracker(prior_deviation=0.4)
        assert tracker.estimate("anyone") == pytest.approx(0.4)
        assert tracker.n_observations("anyone") == 0

    def test_ewma_update(self):
        tracker = EwmaDeviationTracker(smoothing=0.5, prior_deviation=0.4)
        tracker.observe("w", 1.0)
        assert tracker.estimate("w") == pytest.approx(0.7)
        tracker.observe("w", 1.0)
        assert tracker.estimate("w") == pytest.approx(0.85)
        assert tracker.n_observations("w") == 2

    def test_smoothing_one_trusts_latest(self):
        tracker = EwmaDeviationTracker(smoothing=1.0)
        tracker.observe("w", 2.0)
        assert tracker.estimate("w") == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(SimulationError):
            EwmaDeviationTracker(smoothing=0.0)
        with pytest.raises(SimulationError):
            EwmaDeviationTracker(smoothing=1.5)
        with pytest.raises(SimulationError):
            EwmaDeviationTracker(prior_deviation=0.0)
        tracker = EwmaDeviationTracker()
        with pytest.raises(SimulationError):
            tracker.observe("w", -0.1)


class TestAdaptivePolicy:
    def test_contracts_for_every_subject(self, population):
        columnar = ColumnarPopulation.from_population(population)
        assignment = AdaptiveDynamicPolicy(mu=1.0).contracts_columnar(columnar)
        contracts = assignment.to_mapping(columnar)
        assert set(contracts) == {s.subject_id for s in population.subproblems}

    def test_priors_give_uniform_weights(self, population):
        policy = AdaptiveDynamicPolicy(mu=1.0)
        weights = policy.current_weights(population)
        individual = {
            s.subject_id: weights[s.subject_id]
            for s in population.subproblems
            if s.size == 1
        }
        assert len(set(round(w, 9) for w in individual.values())) == 1

    def test_weights_separate_classes_after_rounds(self, population, objective):
        policy = AdaptiveDynamicPolicy(mu=1.0)
        MarketplaceSimulation(population, objective, policy, seed=0).run(5)
        weights = policy.current_weights(population)
        honest = [
            weights[s] for s in population.subjects_of_type(WorkerType.HONEST)
        ]
        malicious = [
            weights[s]
            for s in population.subjects_of_type(
                WorkerType.NONCOLLUSIVE_MALICIOUS
            )
        ]
        assert np.mean(honest) > np.mean(malicious) + 0.5

    def test_freeze_after_stops_learning(self, population, objective):
        policy = AdaptiveDynamicPolicy(mu=1.0, freeze_after=1)
        simulation = MarketplaceSimulation(population, objective, policy, seed=0)
        ids = [s.subject_id for s in population.subproblems]
        simulation.run(1)
        frozen = [policy.tracker.estimate(s) for s in ids]
        assert frozen != [policy.tracker.prior_deviation] * len(ids)
        simulation.run(3)
        assert [policy.tracker.estimate(s) for s in ids] == frozen

    def test_validation(self):
        with pytest.raises(SimulationError):
            AdaptiveDynamicPolicy(mu=0.0)
        with pytest.raises(SimulationError):
            AdaptiveDynamicPolicy(freeze_after=0)

    def test_catches_camouflaged_attacker(self, population, objective):
        attacker_id = population.subjects_of_type(
            WorkerType.NONCOLLUSIVE_MALICIOUS
        )[0]
        old_agent = population.agents[attacker_id]
        population.agents[attacker_id] = CamouflagedWorker(
            worker_id=attacker_id,
            effort_function=old_agent.effort_function,
            omega=0.5,
            rating_bias=2.5,
            attack_round=3,
        )
        policy = AdaptiveDynamicPolicy(mu=1.0)
        ledger = MarketplaceSimulation(
            population, objective, policy, seed=0
        ).run(8)
        weights = [
            record.outcomes[attacker_id].believed_weight
            for record in ledger.records
        ]
        # Believed weight rises (or holds) during camouflage, collapses
        # after the flip.
        assert weights[2] > weights[-1]
        assert weights[-1] < 1.0


class TestEngineIntegration:
    def test_rating_deviation_recorded(self, population, objective):
        policy = AdaptiveDynamicPolicy(mu=1.0)
        record = MarketplaceSimulation(
            population, objective, policy, seed=0
        ).step()
        deviations = [
            outcome.rating_deviation
            for outcome in record.outcomes.values()
            if not outcome.excluded
        ]
        assert all(d >= 0.0 for d in deviations)
        assert any(d > 0.0 for d in deviations)

    def test_policy_belief_recorded_evaluation_weight_fixed(
        self, population, objective
    ):
        policy = AdaptiveDynamicPolicy(mu=1.0, prior_deviation=0.123)
        record = MarketplaceSimulation(
            population, objective, policy, seed=0
        ).step()
        believed = policy.current_weights(population)
        for subject_id, outcome in record.outcomes.items():
            # The policy's belief is recorded...
            assert outcome.policy_weight == pytest.approx(believed[subject_id])
            # ...but utility is booked with the reference weight, so a
            # policy cannot inflate its own score.
            assert outcome.feedback_weight == pytest.approx(
                population.weights[subject_id]
            )


class TestColumnarObservation:
    def test_bulk_update_matches_scalar_ewma(self):
        scalar = EwmaDeviationTracker(smoothing=0.3, prior_deviation=0.4)
        bulk = EwmaDeviationTracker(smoothing=0.3, prior_deviation=0.4)
        ids = ["a", "b", "c"]
        slots = bulk.slots(ids)
        for deviations in ([0.1, 2.5, 0.7], [1.9, 0.0, 0.3]):
            for subject_id, deviation in zip(ids, deviations):
                scalar.observe(subject_id, deviation)
            bulk.observe_slots(slots, np.array(deviations))
        for subject_id in ids:
            assert bulk.estimate(subject_id) == scalar.estimate(subject_id)
            assert bulk.n_observations(subject_id) == 2
        with pytest.raises(SimulationError):
            bulk.observe_slots(slots, np.array([0.1, -0.2, 0.3]))

    def test_exclusion_forwards_feedback_to_inner_policy(
        self, population, objective
    ):
        alone = AdaptiveDynamicPolicy(mu=1.0)
        MarketplaceSimulation(population, objective, alone, seed=0).run(3)
        wrapped = ExclusionPolicy(inner=AdaptiveDynamicPolicy(mu=1.0))
        ledger = MarketplaceSimulation(
            population, objective, wrapped, seed=0
        ).run(3)
        honest = population.subjects_of_type(WorkerType.HONEST)[0]
        assert alone.tracker.n_observations(honest) == 3
        assert wrapped.inner.tracker.n_observations(honest) == 3
        outcome = ledger.records[-1].outcomes[honest]
        assert outcome.policy_weight == pytest.approx(
            wrapped.inner.current_weights(population)[honest]
        )
        # Excluded subjects are never observed.
        malicious = population.subjects_of_type(
            WorkerType.NONCOLLUSIVE_MALICIOUS
        )[0]
        assert wrapped.inner.tracker.n_observations(malicious) == 0

    def test_streaming_run_learns_like_an_eager_one(self, population, objective):
        eager = AdaptiveDynamicPolicy(mu=1.0)
        streamed = AdaptiveDynamicPolicy(mu=1.0)
        expected = MarketplaceSimulation(
            population, objective, eager, seed=0
        ).run(4)
        ledger = MarketplaceSimulation(
            population, objective, streamed, seed=0, ledger=StreamingLedger()
        ).run(4)
        assert ledger.utility_series().tolist() == expected.utility_series().tolist()
        assert streamed.current_weights(population) == eager.current_weights(
            population
        )


def _plant(population, factory, n_attackers):
    attacker_ids = population.subjects_of_type(
        WorkerType.NONCOLLUSIVE_MALICIOUS
    )[:n_attackers]
    for subject_id in attacker_ids:
        old_agent = population.agents[subject_id]
        population.agents[subject_id] = factory(subject_id, old_agent)
    return attacker_ids


def _camouflaged(subject_id, old):
    return CamouflagedWorker(
        worker_id=subject_id,
        effort_function=old.effort_function,
        beta=old.params.beta,
        omega=0.5,
        rating_bias=2.5,
        attack_round=3,
    )


def _intermittent(subject_id, old):
    return IntermittentWorker(
        worker_id=subject_id,
        effort_function=old.effort_function,
        beta=old.params.beta,
        omega=0.5,
        rating_bias=2.5,
        honest_rounds=2,
        attack_rounds=1,
        feedback_noise=0.2,
    )


@pytest.mark.parametrize(
    "factory,attack_round",
    [(_camouflaged, 6), (_intermittent, 2)],
    ids=["camouflaged", "intermittent"],
)
def test_strategic_population_replays_clean_under_invariants(
    population, objective, factory, attack_round, monkeypatch
):
    """An ext_camouflage-shaped run: planted strategic attackers under
    the adaptive policy, every round replayed through the oracle."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    attacker_ids = _plant(population, factory, 4)
    policy = AdaptiveDynamicPolicy(mu=1.0)
    ledger = MarketplaceSimulation(population, objective, policy, seed=3).run(7)
    assert ledger.n_rounds == 7
    deviations = [
        [record.outcomes[a].rating_deviation for a in attacker_ids]
        for record in ledger.records
    ]
    # Honest-phase rounds carry no planted bias; attack rounds do.
    assert max(deviations[0]) < 2.0
    assert min(deviations[attack_round]) > 1.0
