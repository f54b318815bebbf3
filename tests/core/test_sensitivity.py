"""Tests for misfit sensitivity analysis and robust design."""

from __future__ import annotations

import pytest

from repro.core import (
    misfit_sweep,
    perturbed_effort_function,
    robust_design,
)
from repro.errors import DesignError


class TestPerturbation:
    def test_identity(self, psi):
        same = perturbed_effort_function(psi, 1.0, 1.0)
        assert same == psi

    def test_factors_applied(self, psi):
        perturbed = perturbed_effort_function(psi, 1.2, 0.9)
        assert perturbed.r2 == pytest.approx(psi.r2 * 1.2)
        assert perturbed.r1 == pytest.approx(psi.r1 * 0.9)
        assert perturbed.r0 == pytest.approx(psi.r0)

    def test_invalid_factors(self, psi):
        with pytest.raises(DesignError):
            perturbed_effort_function(psi, 0.0, 1.0)
        with pytest.raises(DesignError):
            perturbed_effort_function(psi, 1.0, -1.0)


class TestMisfitSweep:
    def test_no_misfit_point_matches_nominal(self, psi, honest_params):
        report = misfit_sweep(
            psi, honest_params, curvature_factors=(1.0,), slope_factors=(1.0,)
        )
        assert len(report.points) == 1
        assert report.points[0].requester_utility == pytest.approx(
            report.nominal_utility
        )
        assert report.max_degradation() == pytest.approx(0.0, abs=1e-9)

    def test_grid_size(self, psi, honest_params):
        report = misfit_sweep(
            psi,
            honest_params,
            curvature_factors=(0.9, 1.0, 1.1),
            slope_factors=(0.95, 1.05),
        )
        assert len(report.points) == 6

    def test_minimal_slope_design_is_knife_edge(self, psi, honest_params):
        """The headline finding: a slightly pessimistic true curve
        destroys participation under the nominal minimal-slope design."""
        report = misfit_sweep(
            psi,
            honest_params,
            curvature_factors=(1.0, 1.1),
            slope_factors=(0.9, 1.0),
        )
        assert report.max_degradation() > 0.5
        worst = report.worst_case()
        assert worst.effort < report.design.response.effort

    def test_optimistic_misfit_is_benign(self, psi, honest_params):
        """A true curve with stronger marginals only helps."""
        report = misfit_sweep(
            psi,
            honest_params,
            curvature_factors=(0.9, 1.0),
            slope_factors=(1.0, 1.1),
        )
        assert report.max_degradation() < 0.3

    def test_degradation_at(self, psi, honest_params):
        report = misfit_sweep(
            psi, honest_params, curvature_factors=(1.0,), slope_factors=(0.9, 1.0)
        )
        assert report.degradation_at(1.0, 1.0) == pytest.approx(0.0, abs=1e-9)
        assert report.degradation_at(1.0, 0.9) >= 0.0
        with pytest.raises(DesignError):
            report.degradation_at(7.0, 7.0)

    def test_empty_grid_rejected(self, psi, honest_params):
        with pytest.raises(DesignError):
            misfit_sweep(psi, honest_params, curvature_factors=())


class TestRobustDesign:
    def test_dominates_nominal_worst_case(self, psi, honest_params):
        report = misfit_sweep(psi, honest_params)
        _, robust_worst = robust_design(psi, honest_params)
        assert robust_worst > report.worst_case().requester_utility

    def test_pays_a_nominal_premium(self, psi, honest_params):
        """Robustness costs nominal utility when the fit was exact."""
        report = misfit_sweep(psi, honest_params)
        result, _ = robust_design(psi, honest_params)
        from repro.core import solve_best_response
        from repro.core.utility import per_worker_utility

        response = solve_best_response(
            result.contract, honest_params, effort_function=psi
        )
        nominal_under_truth = per_worker_utility(
            1.0, response.feedback, response.compensation, 1.0
        )
        assert nominal_under_truth <= report.nominal_utility + 1e-9

    def test_worst_case_certified_over_grid(self, psi, honest_params):
        """The returned worst case really is the min over the grid."""
        from repro.core import solve_best_response
        from repro.core.utility import per_worker_utility

        factors_c = (0.9, 1.0, 1.2)
        factors_s = (0.9, 1.0)
        result, worst = robust_design(
            psi,
            honest_params,
            curvature_factors=factors_c,
            slope_factors=factors_s,
        )
        replayed = []
        for cf in factors_c:
            for sf in factors_s:
                true_psi = perturbed_effort_function(psi, cf, sf)
                response = solve_best_response(
                    result.contract, honest_params, effort_function=true_psi
                )
                replayed.append(
                    per_worker_utility(
                        1.0, response.feedback, response.compensation, 1.0
                    )
                )
        assert worst == pytest.approx(min(replayed))

    def test_empty_grid_rejected(self, psi, honest_params):
        with pytest.raises(DesignError):
            robust_design(psi, honest_params, slope_factors=())
