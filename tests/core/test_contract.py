"""Unit tests for posted contracts (feedback/effort duality)."""

from __future__ import annotations

import pytest

from repro.core import Contract
from repro.errors import ContractError
from repro.types import DiscretizationGrid


@pytest.fixture()
def contract(psi, grid) -> Contract:
    compensations = tuple(0.5 * index for index in range(grid.n_intervals + 1))
    return Contract(grid=grid, effort_function=psi, compensations=compensations)


class TestValidation:
    def test_rejects_wrong_length(self, psi, grid):
        with pytest.raises(ContractError):
            Contract(grid=grid, effort_function=psi, compensations=(0.0, 1.0))

    def test_rejects_negative_pay(self, psi, grid):
        pay = [0.0] * (grid.n_intervals + 1)
        pay[3] = -0.1
        with pytest.raises(ContractError):
            Contract(grid=grid, effort_function=psi, compensations=tuple(pay))

    def test_rejects_non_monotone(self, psi, grid):
        pay = list(range(grid.n_intervals + 1))
        pay[4] = 1.0
        with pytest.raises(ContractError):
            Contract(grid=grid, effort_function=psi, compensations=tuple(map(float, pay)))

    def test_rejects_grid_beyond_increasing_range(self, psi):
        wide = DiscretizationGrid.for_max_effort(psi.max_increasing_effort * 1.1, 5)
        with pytest.raises(Exception):
            Contract(
                grid=wide,
                effort_function=psi,
                compensations=tuple(float(i) for i in range(6)),
            )


class TestEvaluation:
    def test_pay_at_breakpoints(self, contract):
        breakpoints = contract.feedback_breakpoints
        for breakpoint, pay in zip(breakpoints, contract.compensations):
            assert contract.pay_for_feedback(breakpoint) == pytest.approx(pay)

    def test_pay_for_effort_is_composition(self, contract):
        psi = contract.effort_function
        for effort in (0.3, 1.7, 4.4, 8.0):
            assert contract.pay_for_effort(effort) == pytest.approx(
                contract.pay_for_feedback(float(psi(effort)))
            )

    def test_pay_for_effort_concave_within_piece(self, contract):
        """The composition dominates the effort-knot chord inside pieces."""
        knots = contract.effort_knot_values()
        grid = contract.grid
        for piece in range(1, grid.n_intervals + 1):
            left, right = grid.interval(piece)
            midpoint = 0.5 * (left + right)
            assert contract.pay_for_effort(midpoint) >= knots(midpoint) - 1e-9

    def test_flat_beyond_last_breakpoint(self, contract):
        top_feedback = contract.feedback_breakpoints[-1]
        assert contract.pay_for_feedback(top_feedback * 2) == pytest.approx(
            contract.max_compensation
        )

    def test_rejects_negative_inputs(self, contract):
        with pytest.raises(ContractError):
            contract.pay_for_feedback(-1.0)
        with pytest.raises(ContractError):
            contract.pay_for_effort(-1.0)

    def test_contract_slopes_match_increments(self, contract):
        slopes = contract.contract_slopes()
        increments = contract.contract_increments()
        breakpoints = contract.feedback_breakpoints
        for index, (slope, increment) in enumerate(zip(slopes, increments)):
            width = breakpoints[index + 1] - breakpoints[index]
            assert slope == pytest.approx(increment / width)


class TestFactories:
    def test_flat_contract(self, psi, grid):
        flat = Contract.flat(grid, psi, pay=2.5)
        assert flat.pay_for_feedback(0.0) == pytest.approx(2.5)
        assert flat.pay_for_effort(grid.max_effort) == pytest.approx(2.5)
        assert all(slope == pytest.approx(0.0) for slope in flat.contract_slopes())

    def test_flat_rejects_negative(self, psi, grid):
        with pytest.raises(ContractError):
            Contract.flat(grid, psi, pay=-1.0)

    def test_from_feedback_slopes_roundtrip(self, psi, grid):
        slopes = tuple(0.1 * (i + 1) for i in range(grid.n_intervals))
        contract = Contract.from_feedback_slopes(grid, psi, slopes, base_pay=1.0)
        assert contract.compensations[0] == pytest.approx(1.0)
        assert contract.contract_slopes() == pytest.approx(slopes)

    def test_from_feedback_slopes_rejects_wrong_count(self, psi, grid):
        with pytest.raises(ContractError):
            Contract.from_feedback_slopes(grid, psi, (0.1,), base_pay=0.0)
