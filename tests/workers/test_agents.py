"""Tests for the behavioural worker agents."""

from __future__ import annotations

import pytest

from repro.core import Contract, ContractDesigner, DesignerConfig, QuadraticEffort
from repro.errors import ModelError
from repro.types import DiscretizationGrid, WorkerParameters, WorkerType
from repro.workers import CollusiveCommunity, HonestWorker, MaliciousWorker


class TestHonestWorker:
    def test_properties(self, psi):
        worker = HonestWorker("w1", psi, beta=1.5)
        assert worker.n_members == 1
        assert worker.worker_type is WorkerType.HONEST
        assert worker.params.omega == 0.0
        assert worker.params.beta == 1.5

    def test_respond_uses_true_psi(self, psi):
        """The agent best-responds with its own psi even when the
        contract embeds a different (fitted) one."""
        fitted = QuadraticEffort(r2=-0.45, r1=9.0, r0=1.0)
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=10))
        contract = designer.design(fitted, WorkerParameters.honest()).contract
        true_worker = HonestWorker("w1", psi)
        fitted_worker = HonestWorker("w2", fitted)
        assert true_worker.respond(contract).effort != pytest.approx(
            fitted_worker.respond(contract).effort
        )

    def test_realize_feedback_noise_free(self, psi):
        worker = HonestWorker("w1", psi)
        assert worker.realize_feedback(2.0) == pytest.approx(float(psi(2.0)))

    def test_realize_feedback_noisy_nonnegative(self, psi, rng):
        worker = HonestWorker("w1", psi, feedback_noise=50.0)
        values = [worker.realize_feedback(0.1, rng=rng) for _ in range(100)]
        assert min(values) >= 0.0

    def test_realize_feedback_rejects_negative_effort(self, psi):
        with pytest.raises(ModelError):
            HonestWorker("w1", psi).realize_feedback(-1.0)

    def test_empty_id_rejected(self, psi):
        with pytest.raises(ModelError):
            HonestWorker("", psi)

    def test_negative_noise_rejected(self, psi):
        with pytest.raises(ModelError):
            HonestWorker("w1", psi, feedback_noise=-0.1)


class TestMaliciousWorker:
    def test_requires_positive_omega(self, psi):
        with pytest.raises(ModelError):
            MaliciousWorker("m1", psi, omega=0.0)

    def test_properties(self, psi):
        worker = MaliciousWorker("m1", psi, omega=0.4, rating_bias=2.5)
        assert worker.worker_type is WorkerType.NONCOLLUSIVE_MALICIOUS
        assert worker.rating_bias == 2.5
        assert worker.n_members == 1

    def test_works_even_unpaid(self, psi, grid):
        """Influence motive: positive effort under a zero contract."""
        worker = MaliciousWorker("m1", psi, omega=0.5)
        contract = Contract.flat(grid, psi, pay=0.0)
        assert worker.respond(contract).effort > 0.0


class TestCollusiveCommunity:
    def test_requires_two_members(self, psi):
        with pytest.raises(ModelError):
            CollusiveCommunity("c1", ["only"], psi.community_scaled(1))

    def test_duplicate_members_deduplicated(self, psi):
        with pytest.raises(ModelError):
            CollusiveCommunity("c1", ["a", "a"], psi.community_scaled(2))

    def test_requires_positive_omega(self, psi):
        with pytest.raises(ModelError):
            CollusiveCommunity(
                "c1", ["a", "b"], psi.community_scaled(2), omega=0.0
            )

    def test_partner_count(self, psi):
        community = CollusiveCommunity(
            "c1", ["a", "b", "c"], psi.community_scaled(3)
        )
        assert community.n_members == 3
        assert community.n_partners == 2
        assert community.worker_type is WorkerType.COLLUSIVE_MALICIOUS

    def test_split_effort_even(self, psi):
        community = CollusiveCommunity(
            "c1", ["a", "b", "c"], psi.community_scaled(3)
        )
        split = community.split_effort(6.0)
        assert split == {"a": 2.0, "b": 2.0, "c": 2.0}
        with pytest.raises(ModelError):
            community.split_effort(-1.0)

    def test_respond_uses_meta_function(self, psi):
        meta = psi.community_scaled(3)
        community = CollusiveCommunity("c1", ["a", "b", "c"], meta, omega=0.3)
        solo = MaliciousWorker("m", psi, omega=0.3)
        grid = DiscretizationGrid.for_max_effort(
            0.9 * meta.max_increasing_effort, 8
        )
        contract = Contract.flat(grid, meta, pay=0.0)
        response = community.respond(contract)
        # Meta stationary effort is n times the per-member stationary.
        per_member = solo.respond(
            Contract.flat(
                DiscretizationGrid.for_max_effort(
                    0.9 * psi.max_increasing_effort, 8
                ),
                psi,
                pay=0.0,
            )
        )
        assert response.effort == pytest.approx(3 * per_member.effort)
