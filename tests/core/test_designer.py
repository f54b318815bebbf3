"""Tests for the contract designer (candidate sweep + Eq. 43 selection)."""

from __future__ import annotations

import pytest

from repro.baselines import continuum_optimal_utility, grid_search_contract
from repro.core import ContractDesigner, DesignerConfig, QuadraticEffort
from repro.core.designer import CANDIDATE_CACHE_SIZE
from repro.errors import DesignError
from repro.types import DiscretizationGrid, WorkerParameters


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(DesignError):
            DesignerConfig(n_intervals=0)
        with pytest.raises(DesignError):
            DesignerConfig(coverage=1.0)
        with pytest.raises(DesignError):
            DesignerConfig(delta=-1.0)
        with pytest.raises(DesignError):
            DesignerConfig(base_pay=-0.5)
        with pytest.raises(DesignError):
            DesignerConfig(max_effort=0.0)

    def test_auto_grid_covers_fraction_of_vertex(self, psi):
        config = DesignerConfig(n_intervals=10, coverage=0.8)
        grid = config.grid_for(psi)
        assert grid.max_effort == pytest.approx(0.8 * psi.max_increasing_effort)

    def test_explicit_delta(self, psi):
        config = DesignerConfig(n_intervals=5, delta=0.5)
        grid = config.grid_for(psi)
        assert grid.delta == pytest.approx(0.5)

    def test_max_effort_caps_span(self, psi):
        config = DesignerConfig(n_intervals=10, max_effort=3.0)
        grid = config.grid_for(psi)
        assert grid.max_effort == pytest.approx(3.0)

    def test_per_call_cap_tightens(self, psi):
        config = DesignerConfig(n_intervals=10, max_effort=5.0)
        grid = config.grid_for(psi, max_effort=2.0)
        assert grid.max_effort == pytest.approx(2.0)

    def test_delta_beyond_increasing_range_rejected(self, psi):
        config = DesignerConfig(n_intervals=100, delta=1.0)
        with pytest.raises(Exception):
            config.grid_for(psi)


class TestDesign:
    def test_honest_design_is_certified(self, psi, honest_params):
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=12))
        result = designer.design(psi, honest_params, feedback_weight=1.0)
        assert result.hired
        assert result.bounds is not None
        assert result.bounds.certified
        assert result.bounds.is_consistent
        assert all(evaluation.on_target for evaluation in result.evaluations)

    def test_selection_maximizes_requester_utility(self, psi, honest_params):
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=12))
        result = designer.design(psi, honest_params, feedback_weight=1.0)
        best = max(e.requester_utility for e in result.evaluations)
        assert result.requester_utility == pytest.approx(best)

    def test_nonpositive_weight_yields_null_contract(self, psi, honest_params):
        designer = ContractDesigner(mu=1.0)
        result = designer.design(psi, honest_params, feedback_weight=0.0)
        assert not result.hired
        assert result.k_opt is None
        assert result.compensation == pytest.approx(0.0)
        assert result.effort == pytest.approx(0.0)

    def test_negative_weight_null_contract_can_cost_utility(self, psi):
        """An unhired malicious worker still pollutes (works for
        influence), and with a negative weight the requester's utility
        from it is negative — the paper's 'weight close to 0' story."""
        params = WorkerParameters.malicious(beta=1.0, omega=0.8)
        designer = ContractDesigner(mu=1.0)
        result = designer.design(psi, params, feedback_weight=-0.5)
        assert not result.hired
        assert result.effort > 0.0
        assert result.requester_utility < 0.0

    def test_higher_weight_never_lowers_utility(self, psi, honest_params):
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=10))
        utilities = [
            designer.design(psi, honest_params, feedback_weight=w).requester_utility
            for w in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b >= a - 1e-9 for a, b in zip(utilities, utilities[1:]))

    def test_higher_mu_never_raises_pay(self, psi, honest_params):
        pays = []
        for mu in (0.5, 1.0, 2.0):
            designer = ContractDesigner(mu=mu, config=DesignerConfig(n_intervals=10))
            pays.append(
                designer.design(psi, honest_params, feedback_weight=1.0).compensation
            )
        assert all(b <= a + 1e-9 for a, b in zip(pays, pays[1:]))

    def test_candidate_cache_reuse(self, psi, honest_params):
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=8))
        designer.design(psi, honest_params, feedback_weight=1.0)
        assert len(designer._candidate_cache) == 1
        designer.design(psi, honest_params, feedback_weight=2.0)
        assert len(designer._candidate_cache) == 1
        other = QuadraticEffort(r2=-0.4, r1=9.0, r0=1.0)
        designer.design(other, honest_params, feedback_weight=1.0)
        assert len(designer._candidate_cache) == 2

    def test_candidate_cache_is_bounded(self, psi):
        """A long-lived designer facing many betas cannot grow unboundedly."""
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=2))
        for index in range(CANDIDATE_CACHE_SIZE + 2):
            designer.design(
                psi,
                WorkerParameters.honest(beta=0.5 + 0.01 * index),
                feedback_weight=1.0,
            )
        assert len(designer._candidate_cache) == CANDIDATE_CACHE_SIZE
        assert designer._candidate_cache.stats.evictions == 2

    def test_rejects_bad_mu(self):
        with pytest.raises(DesignError):
            ContractDesigner(mu=0.0)


class TestNearOptimality:
    def test_designer_approaches_continuum_optimum(self, psi, honest_params):
        """Achieved utility converges to the continuous-relaxation
        optimum as the grid refines (the Fig. 6 convergence claim,
        checked against an independent oracle)."""
        mu, w = 1.0, 1.0
        cap = 0.95 * psi.max_increasing_effort
        optimal, _ = continuum_optimal_utility(
            psi, honest_params, mu, w, max_effort=cap
        )
        gaps = []
        for m in (5, 20, 80):
            designer = ContractDesigner(mu=mu, config=DesignerConfig(n_intervals=m))
            result = designer.design(psi, honest_params, feedback_weight=w)
            gaps.append(optimal - result.requester_utility)
        assert gaps[0] > gaps[-1]
        assert gaps[-1] <= 0.05 * max(abs(optimal), 1.0)
        # The designer can never beat the relaxation.
        assert all(gap >= -1e-6 for gap in gaps)

    def test_designer_matches_exhaustive_search_on_tiny_instance(
        self, psi, honest_params
    ):
        """On a tiny instance the designer is close to the best contract
        an exhaustive lattice search can find."""
        grid = DiscretizationGrid.for_max_effort(
            0.9 * psi.max_increasing_effort, 4
        )
        oracle = grid_search_contract(
            psi, grid, honest_params, mu=1.0, feedback_weight=1.0, pay_levels=12
        )
        designer = ContractDesigner(
            mu=1.0,
            config=DesignerConfig(n_intervals=4, delta=grid.delta),
        )
        result = designer.design(psi, honest_params, feedback_weight=1.0)
        assert result.requester_utility >= oracle.requester_utility - 0.3 * abs(
            oracle.requester_utility
        )
