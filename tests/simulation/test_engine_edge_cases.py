"""Edge-case and failure-injection tests for the marketplace engine."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core.utility import RequesterObjective
from repro.simulation import (
    DynamicContractPolicy,
    FixedPaymentPolicy,
    MarketplaceSimulation,
)
from repro.types import RequesterParameters, WorkerType
from repro.workers import BehaviorConfig, build_population


@pytest.fixture()
def noisy_population(small_trace, small_clusters, small_proxy, small_malice):
    return build_population(
        trace=small_trace,
        clusters=small_clusters,
        proxy=small_proxy,
        malice_estimates=small_malice,
        objective=RequesterObjective(RequesterParameters(mu=1.0)),
        behavior=BehaviorConfig(feedback_noise=0.5),
        honest_subset=small_trace.worker_ids(WorkerType.HONEST)[:40],
    )


@pytest.fixture()
def objective():
    return RequesterObjective(RequesterParameters(mu=1.0))


class TestNoisyFeedback:
    def test_rounds_vary_under_noise(self, noisy_population, objective):
        ledger = MarketplaceSimulation(
            noisy_population, objective, DynamicContractPolicy(mu=1.0), seed=0
        ).run(4)
        series = ledger.utility_series()
        assert np.std(series) > 0.0

    def test_same_seed_reproduces_exactly(self, noisy_population, objective):
        first = MarketplaceSimulation(
            noisy_population, objective, DynamicContractPolicy(mu=1.0), seed=5
        ).run(3)
        second = MarketplaceSimulation(
            noisy_population, objective, DynamicContractPolicy(mu=1.0), seed=5
        ).run(3)
        assert first.utility_series().tolist() == second.utility_series().tolist()

    def test_pay_follows_realized_not_expected_feedback(
        self, noisy_population, objective
    ):
        simulation = MarketplaceSimulation(
            noisy_population, objective, DynamicContractPolicy(mu=1.0), seed=1
        )
        record = simulation.step()
        contracts = simulation._assignment.to_mapping(simulation.population)
        for subject_id, outcome in record.outcomes.items():
            if outcome.excluded:
                continue
            contract = contracts[subject_id]
            assert outcome.compensation == pytest.approx(
                contract.pay_for_feedback(outcome.feedback)
            )


class TestRedesignCadence:
    def test_redesign_every_caches_contracts(self, noisy_population, objective):
        class CountingPolicy(FixedPaymentPolicy):
            def __init__(self):
                super().__init__(pay_per_member=1.0)
                self.calls = 0

            def contracts_columnar(self, population):
                self.calls += 1
                return super().contracts_columnar(population)

        policy = CountingPolicy()
        MarketplaceSimulation(
            noisy_population, objective, policy, seed=0, redesign_every=3
        ).run(7)
        # Rounds 0, 3 and 6 trigger a redesign.
        assert policy.calls == 3

    def test_redesign_every_one_calls_each_round(
        self, noisy_population, objective
    ):
        class CountingPolicy(FixedPaymentPolicy):
            def __init__(self):
                super().__init__(pay_per_member=1.0)
                self.calls = 0

            def contracts_columnar(self, population):
                self.calls += 1
                return super().contracts_columnar(population)

        policy = CountingPolicy()
        MarketplaceSimulation(
            noisy_population, objective, policy, seed=0, redesign_every=1
        ).run(4)
        assert policy.calls == 4


class TestLedgerViews:
    def test_compensation_by_type_single_filter(
        self, noisy_population, objective
    ):
        ledger = MarketplaceSimulation(
            noisy_population, objective, DynamicContractPolicy(mu=1.0), seed=0
        ).run(2)
        only_honest = ledger.compensation_by_type(WorkerType.HONEST)
        assert set(only_honest) == {WorkerType.HONEST}
        assert only_honest[WorkerType.HONEST].shape == (2,)

    def test_summary_matches_series(self, noisy_population, objective):
        ledger = MarketplaceSimulation(
            noisy_population, objective, DynamicContractPolicy(mu=1.0), seed=0
        ).run(3)
        summary = ledger.summary()
        assert summary["n_rounds"] == 3.0
        assert summary["total_utility"] == pytest.approx(
            float(ledger.utility_series().sum())
        )
        assert summary["mean_round_utility"] == pytest.approx(
            float(ledger.utility_series().mean())
        )


def test_engine_import_leaves_the_serving_front_end_unloaded():
    """Simulation processes import the serving pool, not the cluster
    front end (HTTP server, router, shards) or the load harness."""
    front_end = ("repro.serving.cluster", "repro.serving.loadgen", "http.server")
    probe = (
        "import sys, repro.simulation.engine; "
        f"print([name for name in {front_end!r} if name in sys.modules])"
    )
    source_root = str(Path(repro.__file__).resolve().parents[1])
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": source_root},
    )
    assert loaded.stdout.strip() == "[]", loaded.stdout
