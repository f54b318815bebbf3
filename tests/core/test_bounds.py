"""Tests for Lemma 4.2 / Lemma 4.3 / Theorem 4.1 bounds."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    QuadraticEffort,
    UtilityBounds,
    build_candidate,
    compensation_lower_bound,
    compensation_upper_bound,
    requester_utility_lower_bound,
    requester_utility_upper_bound,
    solve_best_response,
)
from repro.errors import DesignError
from repro.types import DiscretizationGrid, WorkerParameters


class TestCompensationBounds:
    def test_lemma_4_3_floor_formula(self, psi, grid):
        for k in (1, 3, grid.n_intervals):
            assert compensation_lower_bound(grid, beta=2.0, target_piece=k) == (
                pytest.approx(2.0 * (k - 1) * grid.delta)
            )

    def test_lemma_4_3_omega_correction_lowers_floor(self, psi, grid):
        plain = compensation_lower_bound(grid, 1.0, 5)
        corrected = compensation_lower_bound(
            grid, 1.0, 5, effort_function=psi, omega=0.3
        )
        assert corrected <= plain
        assert corrected >= 0.0

    def test_lemma_4_3_omega_requires_psi(self, grid):
        with pytest.raises(DesignError):
            compensation_lower_bound(grid, 1.0, 2, omega=0.5)

    def test_lemma_4_2_ceiling_positive_and_above_floor(self, psi, grid):
        for k in range(1, grid.n_intervals + 1):
            ceiling = compensation_upper_bound(psi, grid, beta=1.0, target_piece=k)
            floor = compensation_lower_bound(grid, beta=1.0, target_piece=k)
            assert ceiling > floor

    def test_lemma_4_2_paper_formula(self, psi, grid):
        from repro.core.bounds import compensation_upper_bound_paper

        k, beta = 4, 1.5
        slope_left = psi.derivative((k - 1) * grid.delta)
        expected = beta * k * grid.delta - (
            2.0 * beta * psi.r2 * k * grid.delta**2 / slope_left
        )
        assert compensation_upper_bound_paper(psi, grid, beta, k) == pytest.approx(
            expected
        )

    def test_certified_ceiling_is_window_sum(self, psi, grid):
        k, beta, omega = 5, 1.0, 0.1
        breakpoints = psi.feedback_breakpoints(grid.edges())
        expected = sum(
            max(beta / psi.derivative(piece * grid.delta) - omega, 0.0)
            * (breakpoints[piece] - breakpoints[piece - 1])
            for piece in range(1, k + 1)
        )
        assert compensation_upper_bound(
            psi, grid, beta, k, omega=omega
        ) == pytest.approx(expected)

    def test_certified_close_to_paper_formula_on_fine_grids(self, psi):
        """The two ceilings agree as the grid refines (O(delta) gap)."""
        from repro.core.bounds import compensation_upper_bound_paper
        from repro.types import DiscretizationGrid

        fine = DiscretizationGrid.for_max_effort(
            0.9 * psi.max_increasing_effort, 200
        )
        k = 150
        certified = compensation_upper_bound(psi, fine, 1.0, k)
        printed = compensation_upper_bound_paper(psi, fine, 1.0, k)
        assert certified == pytest.approx(printed, rel=0.1)

    def test_bad_inputs_rejected(self, psi, grid):
        with pytest.raises(DesignError):
            compensation_lower_bound(grid, beta=-1.0, target_piece=1)
        with pytest.raises(DesignError):
            compensation_upper_bound(psi, grid, beta=1.0, target_piece=0)


class TestCandidateRespectsBounds:
    def test_honest_candidate_pay_within_bounds(self, psi, grid, honest_params):
        """For every target piece, the realized pay under the candidate
        contract sits between the Lemma 4.3 floor and Lemma 4.2 ceiling."""
        for k in range(1, grid.n_intervals + 1):
            candidate = build_candidate(psi, grid, honest_params, target_piece=k)
            response = solve_best_response(candidate.contract, honest_params)
            floor = compensation_lower_bound(grid, honest_params.beta, k)
            ceiling = compensation_upper_bound(psi, grid, honest_params.beta, k)
            assert floor - 1e-9 <= response.compensation <= ceiling + 1e-9

    def test_malicious_candidate_pay_below_honest_ceiling(self, psi, grid):
        """With omega > 0 the worker accepts less; the honest ceiling
        still upper-bounds the realized pay."""
        params = WorkerParameters.malicious(beta=1.0, omega=0.3)
        for k in (2, 5, 8):
            candidate = build_candidate(psi, grid, params, target_piece=k)
            response = solve_best_response(candidate.contract, params)
            ceiling = compensation_upper_bound(psi, grid, params.beta, k)
            assert response.compensation <= ceiling + 1e-9


class TestUtilityBounds:
    def test_upper_bound_formula_honest(self, psi, grid):
        mu, beta, w = 2.0, 1.0, 1.5
        expected = max(
            w * psi(l * grid.delta) - mu * beta * (l - 1) * grid.delta
            for l in range(1, grid.n_intervals + 1)
        )
        assert requester_utility_upper_bound(
            psi, grid, beta, mu, feedback_weight=w
        ) == pytest.approx(expected)

    def test_omega_raises_upper_bound(self, psi, grid):
        plain = requester_utility_upper_bound(psi, grid, 1.0, 1.0)
        generous = requester_utility_upper_bound(psi, grid, 1.0, 1.0, omega=0.5)
        assert generous >= plain

    def test_lower_bound_below_upper(self, psi, grid):
        for k in range(1, grid.n_intervals + 1):
            lower = requester_utility_lower_bound(psi, grid, 1.0, 1.0, k)
            upper = requester_utility_upper_bound(psi, grid, 1.0, 1.0)
            assert lower <= upper + 1e-9

    def test_bounds_record(self):
        bounds = UtilityBounds(lower=1.0, achieved=2.0, upper=3.0)
        assert bounds.gap == pytest.approx(1.0)
        assert bounds.is_consistent
        broken = UtilityBounds(lower=1.0, achieved=5.0, upper=3.0)
        assert not broken.is_consistent


@given(
    r2=st.floats(min_value=-2.0, max_value=-0.05),
    r1=st.floats(min_value=1.0, max_value=30.0),
    beta=st.floats(min_value=0.2, max_value=3.0),
    mu=st.floats(min_value=0.2, max_value=5.0),
    m=st.integers(min_value=2, max_value=10),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_property_honest_utility_within_theorem_bounds(r2, r1, beta, mu, m, data):
    """Theorem 4.1: for every target piece, the utility the requester
    gets from an honest worker under the candidate contract lies in
    [LB(k), UB]."""
    psi = QuadraticEffort(r2=r2, r1=r1, r0=1.0)
    grid = DiscretizationGrid.for_max_effort(0.9 * psi.max_increasing_effort, m)
    k = data.draw(st.integers(min_value=1, max_value=m))
    params = WorkerParameters.honest(beta=beta)
    candidate = build_candidate(psi, grid, params, target_piece=k)
    response = solve_best_response(candidate.contract, params)
    achieved = float(psi(response.effort)) - mu * response.compensation
    lower = requester_utility_lower_bound(psi, grid, beta, mu, k)
    upper = requester_utility_upper_bound(psi, grid, beta, mu)
    slack = 1e-7 * max(1.0, abs(upper), abs(lower))
    assert lower - slack <= achieved <= upper + slack
