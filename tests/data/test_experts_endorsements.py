"""Tests for the expert panel and the endorsement (upvote) model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import EndorsementModel, ExpertPanel
from repro.errors import DataError


class TestExpertPanel:
    def test_consensus_near_truth(self, rng):
        panel = ExpertPanel(n_experts=25, score_noise=0.2, rng=rng)
        scores = [panel.consensus(3.5) for _ in range(200)]
        assert np.mean(scores) == pytest.approx(3.5, abs=0.05)

    def test_consensus_clipped_to_scale(self, rng):
        panel = ExpertPanel(n_experts=1, score_noise=3.0, rng=rng)
        scores = [panel.consensus(5.0) for _ in range(100)]
        assert max(scores) <= 5.0
        assert min(scores) >= 1.0

    def test_larger_panel_reduces_spread(self):
        small = ExpertPanel(n_experts=1, score_noise=0.5, rng=np.random.default_rng(0))
        large = ExpertPanel(n_experts=50, score_noise=0.5, rng=np.random.default_rng(0))
        small_scores = [small.consensus(3.0) for _ in range(300)]
        large_scores = [large.consensus(3.0) for _ in range(300)]
        assert np.std(large_scores) < np.std(small_scores)

    def test_batch_matches_scale(self, rng):
        panel = ExpertPanel(rng=rng)
        qualities = np.array([1.0, 3.0, 5.0])
        scores = panel.consensus_batch(qualities)
        assert scores.shape == (3,)
        assert (scores >= 1.0).all() and (scores <= 5.0).all()

    def test_invalid_inputs(self, rng):
        with pytest.raises(DataError):
            ExpertPanel(n_experts=0)
        with pytest.raises(DataError):
            ExpertPanel(score_noise=-0.1)
        panel = ExpertPanel(rng=rng)
        with pytest.raises(DataError):
            panel.consensus(0.5)
        with pytest.raises(DataError):
            panel.consensus_batch(np.array([6.0]))


class TestEndorsementModel:
    @pytest.fixture()
    def model(self, psi):
        return EndorsementModel(psi, noise_std=0.3, boost_rate=0.8, boost_cap=10)

    def test_expected_upvotes_organic(self, model, psi):
        assert model.expected_upvotes(2.0) == pytest.approx(float(psi(2.0)))

    def test_boost_scales_with_partners(self, model, psi):
        alone = model.expected_upvotes(2.0, n_partners=0)
        ring = model.expected_upvotes(2.0, n_partners=5)
        assert ring == pytest.approx(alone + 0.8 * 5)

    def test_boost_saturates_at_cap(self, model):
        at_cap = model.expected_upvotes(2.0, n_partners=10)
        beyond = model.expected_upvotes(2.0, n_partners=40)
        assert beyond == pytest.approx(at_cap)

    def test_samples_are_nonnegative_ints(self, model, rng):
        upvotes = model.sample_upvotes(np.array([0.0, 1.0, 5.0]), 2, rng)
        assert upvotes.dtype.kind == "i"
        assert (upvotes >= 0).all()

    def test_sample_mean_tracks_expectation(self, psi):
        model = EndorsementModel(psi, noise_std=0.2)
        rng = np.random.default_rng(3)
        efforts = np.full(5000, 3.0)
        upvotes = model.sample_upvotes(efforts, 0, rng)
        assert upvotes.mean() == pytest.approx(float(psi(3.0)), abs=0.1)

    def test_worker_offset_shifts_mean(self, psi):
        model = EndorsementModel(psi, noise_std=0.2)
        rng = np.random.default_rng(4)
        efforts = np.full(5000, 3.0)
        boosted = model.sample_upvotes(efforts, 0, rng, worker_offset=2.0)
        assert boosted.mean() == pytest.approx(float(psi(3.0)) + 2.0, abs=0.1)

    def test_invalid_inputs(self, model, psi, rng):
        with pytest.raises(DataError):
            EndorsementModel(psi, noise_std=-1.0)
        with pytest.raises(DataError):
            EndorsementModel(psi, boost_rate=-0.5)
        with pytest.raises(DataError):
            model.expected_upvotes(-1.0)
        with pytest.raises(DataError):
            model.expected_upvotes(1.0, n_partners=-1)
        with pytest.raises(DataError):
            model.sample_upvotes(np.array([-1.0]), 0, rng)
