"""Tests for the oracle comparators."""

from __future__ import annotations

import pytest

from repro.baselines import continuum_optimal_utility, grid_search_contract
from repro.core import ContractDesigner, DesignerConfig
from repro.errors import DesignError
from repro.types import DiscretizationGrid, WorkerParameters


class TestContinuumOracle:
    def test_optimum_at_marginal_balance(self, psi, honest_params):
        """For an honest worker the relaxation optimum sits where
        w * psi'(y) == mu * beta."""
        mu, w = 1.0, 2.0
        utility, effort = continuum_optimal_utility(
            psi, honest_params, mu, w, max_effort=0.99 * psi.max_increasing_effort
        )
        expected = psi.derivative_inverse(mu * honest_params.beta / w)
        assert effort == pytest.approx(expected, abs=0.01)

    def test_omega_lowers_pay_floor_and_raises_utility(self, psi):
        mu, w = 1.0, 1.0
        cap = 0.9 * psi.max_increasing_effort
        honest_u, _ = continuum_optimal_utility(
            psi, WorkerParameters.honest(), mu, w, cap
        )
        malicious_u, _ = continuum_optimal_utility(
            psi, WorkerParameters.malicious(omega=0.5), mu, w, cap
        )
        assert malicious_u >= honest_u

    def test_dominates_designer(self, psi, honest_params):
        utility, _ = continuum_optimal_utility(
            psi, honest_params, 1.0, 1.0, 0.95 * psi.max_increasing_effort
        )
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=30))
        result = designer.design(psi, honest_params, feedback_weight=1.0)
        assert utility >= result.requester_utility - 1e-9

    def test_validation(self, psi, honest_params):
        with pytest.raises(DesignError):
            continuum_optimal_utility(psi, honest_params, 0.0, 1.0, 1.0)
        with pytest.raises(DesignError):
            continuum_optimal_utility(psi, honest_params, 1.0, 1.0, -1.0)
        with pytest.raises(DesignError):
            continuum_optimal_utility(psi, honest_params, 1.0, 1.0, 1.0, n_grid=1)


class TestGridSearch:
    def test_finds_positive_utility_contract(self, psi, honest_params):
        grid = DiscretizationGrid.for_max_effort(0.9 * psi.max_increasing_effort, 3)
        result = grid_search_contract(
            psi, grid, honest_params, mu=1.0, feedback_weight=1.0, pay_levels=6
        )
        assert result.requester_utility > 0.0
        assert result.n_evaluated > 0
        assert result.contract is not None

    def test_exhaustive_count(self, psi, honest_params):
        """Monotone lattice contracts == multisets of pay levels."""
        from math import comb

        grid = DiscretizationGrid.for_max_effort(0.9 * psi.max_increasing_effort, 2)
        levels = 5
        result = grid_search_contract(
            psi, grid, honest_params, mu=1.0, feedback_weight=1.0, pay_levels=levels
        )
        assert result.n_evaluated == comb(levels + grid.n_intervals, grid.n_intervals + 1)

    def test_never_beats_continuum(self, psi, honest_params):
        grid = DiscretizationGrid.for_max_effort(0.9 * psi.max_increasing_effort, 3)
        lattice = grid_search_contract(
            psi, grid, honest_params, mu=1.0, feedback_weight=1.0, pay_levels=8
        )
        relaxation, _ = continuum_optimal_utility(
            psi, honest_params, 1.0, 1.0, psi.max_increasing_effort * 0.99
        )
        assert lattice.requester_utility <= relaxation + 1e-9

    def test_guards(self, psi, honest_params):
        grid = DiscretizationGrid.for_max_effort(0.9 * psi.max_increasing_effort, 3)
        with pytest.raises(DesignError):
            grid_search_contract(
                psi, grid, honest_params, 1.0, 1.0, pay_levels=1
            )
        big = DiscretizationGrid.for_max_effort(0.9 * psi.max_increasing_effort, 8)
        with pytest.raises(DesignError):
            grid_search_contract(psi, big, honest_params, 1.0, 1.0)
