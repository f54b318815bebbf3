"""Tests for ledger provenance and replay verification."""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ServingError
from repro.experiments.common import build_context
from repro.experiments.config import ExperimentConfig
from repro.serving import ContractCache
from repro.serving.replay import verify_ledger, verify_round
from repro.simulation.engine import MarketplaceSimulation
from repro.simulation.policies import DynamicContractPolicy, ExclusionPolicy
from repro.simulation.streaming import StreamingLedger


@pytest.fixture(scope="module")
def context():
    return build_context(ExperimentConfig.small(seed=7))


@pytest.fixture(scope="module")
def population(context):
    return context.population(honest_sample=20)


def _run_simulation(context, population, policy, n_rounds=3):
    return MarketplaceSimulation(
        population, context.objective(), policy, seed=3
    ).run(n_rounds)


class TestLedgerProvenance:
    def test_serving_policy_records_fingerprints(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy)
        for record in ledger.records:
            for outcome in record.outcomes.values():
                if outcome.excluded:
                    continue
                assert outcome.fingerprint is not None
                assert outcome.fingerprint.startswith("cd1:")
                assert outcome.cache_hit is not None

    def test_serial_policy_records_no_provenance(self, context, population):
        policy = DynamicContractPolicy(mu=context.config.mu_default)
        ledger = _run_simulation(context, population, policy)
        outcomes = [
            outcome
            for record in ledger.records
            for outcome in record.outcomes.values()
        ]
        assert all(outcome.fingerprint is None for outcome in outcomes)
        assert ledger.cache_hit_rate() is None

    def test_cache_hit_rate_reflects_warm_rounds(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy, n_rounds=4)
        # Round 0 misses, rounds 1-3 are pure re-posts: 3/4 hits.
        assert ledger.cache_hit_rate() == pytest.approx(0.75)

    def test_streaming_ledger_counts_cache_hits(self, context, population):
        """A bounded ledger counts serving cache hits on append, so it
        reports the retaining ledger's rate."""
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = MarketplaceSimulation(
            population,
            context.objective(),
            policy,
            seed=3,
            ledger=StreamingLedger(),
        ).run(4)
        assert ledger.cache_hit_rate() == pytest.approx(0.75)

    def test_exclusion_policy_delegates_provenance(self, context, population):
        inner = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        policy = ExclusionPolicy(inner=inner)
        ledger = _run_simulation(context, population, policy)
        served = [
            outcome
            for record in ledger.records
            for outcome in record.outcomes.values()
            if not outcome.excluded
        ]
        assert served
        assert all(outcome.fingerprint is not None for outcome in served)


class TestReplayVerification:
    def test_ledger_replays_clean(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy)
        verified = verify_ledger(
            ledger, population.subproblems, mu=context.config.mu_default
        )
        assert verified > 0

    def test_ledger_replays_clean_under_invariants(
        self, context, population, monkeypatch
    ):
        """Per-archetype provenance fanned out by code still replays: every
        round is checked against the oracle loop and every fingerprinted
        payout against a fresh solve."""
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy)
        active = sum(
            1
            for record in ledger.records
            for outcome in record.outcomes.values()
            if not outcome.excluded
        )
        verified = verify_ledger(
            ledger, population.subproblems, mu=context.config.mu_default
        )
        assert verified == active > 0

    def test_bounded_ledger_cannot_be_replayed(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = MarketplaceSimulation(
            population,
            context.objective(),
            policy,
            seed=3,
            ledger=StreamingLedger(),
        ).run(2)
        with pytest.raises(ServingError, match="no per-subject outcomes"):
            verify_ledger(
                ledger, population.subproblems, mu=context.config.mu_default
            )

    def test_round_subset_selection(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy, n_rounds=3)
        per_round = verify_round(
            ledger.records[1], population.subproblems, mu=context.config.mu_default
        )
        subset = verify_ledger(
            ledger,
            population.subproblems,
            mu=context.config.mu_default,
            rounds=[1],
        )
        assert subset == per_round

    def test_tampered_compensation_is_detected(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy, n_rounds=1)
        record = ledger.records[0]
        victim = next(
            outcome
            for outcome in record.outcomes.values()
            if not outcome.excluded and outcome.fingerprint is not None
        )
        forged = dataclasses.replace(victim, compensation=victim.compensation + 1.0)
        tampered = dataclasses.replace(
            record, outcomes={**record.outcomes, victim.subject_id: forged}
        )
        with pytest.raises(ServingError, match="paid"):
            verify_round(
                tampered, population.subproblems, mu=context.config.mu_default
            )

    def test_tampered_fingerprint_is_detected(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy, n_rounds=1)
        record = ledger.records[0]
        victim = next(
            outcome
            for outcome in record.outcomes.values()
            if not outcome.excluded and outcome.fingerprint is not None
        )
        forged = dataclasses.replace(victim, fingerprint="cd1:0000000000000000")
        tampered = dataclasses.replace(
            record, outcomes={**record.outcomes, victim.subject_id: forged}
        )
        with pytest.raises(ServingError, match="fingerprint"):
            verify_round(
                tampered, population.subproblems, mu=context.config.mu_default
            )

    def test_unknown_subject_is_detected(self, context, population):
        policy = DynamicContractPolicy(
            mu=context.config.mu_default, cache=ContractCache()
        )
        ledger = _run_simulation(context, population, policy, n_rounds=1)
        record = ledger.records[0]
        victim = next(
            outcome
            for outcome in record.outcomes.values()
            if not outcome.excluded and outcome.fingerprint is not None
        )
        with pytest.raises(ServingError, match="no subproblem"):
            verify_round(
                record,
                [
                    subproblem
                    for subproblem in population.subproblems
                    if subproblem.subject_id != victim.subject_id
                ],
                mu=context.config.mu_default,
            )
