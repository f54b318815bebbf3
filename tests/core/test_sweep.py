"""Unit tests for the vectorized shared-prefix candidate sweep.

The fast path of ``repro.core.sweep`` must be *indistinguishable* from
the legacy per-candidate construction: same compensations, same Lemma
4.1 cases, same Eq. (30) best responses — the whole point of the
equivalence contract behind the Theorem 4.1 certificate.  These tests
pin that down on the reference effort function, including the
clamped-slope (large ``omega``) branch, the ``base_pay`` offset, the
designer entry point's routing, and the cross-check machinery itself.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.core import (
    QuadraticEffort,
    build_candidate,
    legacy_sweep,
    prefix_tables,
    solve_best_response,
    sweep_candidates_with_stats,
    vectorized_sweep,
)
from repro.core.sweep import SweepStats, require_sweeps_agree
from repro.errors import DesignError, EffortFunctionError
from repro.types import DiscretizationGrid, WorkerParameters

#: Parameter draws covering honest, malicious, and heavily-clamped regimes.
PARAM_CASES = [
    WorkerParameters.honest(beta=1.0),
    WorkerParameters.honest(beta=0.25),
    WorkerParameters.malicious(beta=1.0, omega=0.3),
    WorkerParameters.malicious(beta=2.5, omega=0.7),
    WorkerParameters.malicious(beta=0.3, omega=5.0),
    WorkerParameters.malicious(beta=4.0, omega=40.0, collusive=True),
]


def _grid(psi: QuadraticEffort, n_intervals: int) -> DiscretizationGrid:
    return DiscretizationGrid.for_max_effort(
        0.9 * psi.max_increasing_effort, n_intervals
    )


class TestPrefixTables:
    def test_prefix_matches_every_candidate(self, psi):
        """Candidate k's slopes are exactly the first k recursion slopes."""
        grid = _grid(psi, 8)
        for params in PARAM_CASES:
            tables = prefix_tables(psi, grid, params)
            for k in range(1, grid.n_intervals + 1):
                candidate = build_candidate(
                    effort_function=psi,
                    grid=grid,
                    params=params,
                    target_piece=k,
                )
                assert candidate.slopes[:k] == tuple(tables.slopes[:k])
                assert candidate.slopes[k:] == (0.0,) * (grid.n_intervals - k)
                assert candidate.epsilons == tuple(tables.epsilons[:k])

    def test_values_are_cumulative_pay(self, psi, honest_params):
        grid = _grid(psi, 6)
        tables = prefix_tables(psi, grid, honest_params, base_pay=2.0)
        assert tables.values[0] == 2.0
        widths = tables.breakpoints[1:] - tables.breakpoints[:-1]
        expected = 2.0 + np.cumsum(tables.slopes * widths)
        assert tables.values[1:] == pytest.approx(expected)

    def test_large_omega_clamps_tail(self, psi):
        """Large omega drives the recursion negative: slopes clamp to 0."""
        params = WorkerParameters.malicious(beta=4.0, omega=40.0)
        tables = prefix_tables(psi, _grid(psi, 10), params)
        assert tables.clamped, "expected clamped pieces for omega >> beta"
        for piece in tables.clamped:
            assert tables.slopes[piece - 1] == 0.0

    def test_rejects_grid_beyond_increasing_range(self, psi):
        grid = DiscretizationGrid.for_max_effort(
            2.0 * psi.max_increasing_effort, 4
        )
        with pytest.raises(EffortFunctionError):
            prefix_tables(psi, grid, WorkerParameters.honest())


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("n_intervals", [1, 2, 5, 10, 20])
    @pytest.mark.parametrize(
        "params", PARAM_CASES, ids=lambda p: f"b{p.beta}w{p.omega}"
    )
    def test_matches_legacy_exactly(self, psi, n_intervals, params):
        """Fast and legacy sweeps agree bit-for-bit on the reference psi."""
        grid = _grid(psi, n_intervals)
        fast, stats = vectorized_sweep(psi, grid, params)
        reference, _ = legacy_sweep(psi, grid, params)
        require_sweeps_agree(fast, reference)
        assert stats.n_candidates == n_intervals
        for (fc, fr), (rc, rr) in zip(fast, reference):
            assert fc.contract.compensations == rc.contract.compensations
            assert fc.slopes == rc.slopes
            assert fc.cases == rc.cases
            assert fc.clamped_pieces == rc.clamped_pieces
            assert fr.effort == rr.effort
            assert fr.utility == rr.utility
            assert fr.compensation == rr.compensation
            assert fr.piece == rr.piece

    def test_matches_legacy_with_base_pay(self, psi):
        grid = _grid(psi, 7)
        params = WorkerParameters.malicious(beta=1.5, omega=0.4)
        fast, _ = vectorized_sweep(psi, grid, params, base_pay=3.0)
        reference, _ = legacy_sweep(psi, grid, params, base_pay=3.0)
        require_sweeps_agree(fast, reference)
        assert fast[0][0].contract.compensations[0] == 3.0

    def test_matches_legacy_on_steep_psi(self, steep_psi):
        grid = _grid(steep_psi, 12)
        for params in PARAM_CASES:
            fast, _ = vectorized_sweep(steep_psi, grid, params)
            reference, _ = legacy_sweep(steep_psi, grid, params)
            require_sweeps_agree(fast, reference)

    def test_candidates_reuse_best_response_solver(self, psi, honest_params):
        """The vectorized responses equal fresh exact per-contract solves."""
        grid = _grid(psi, 9)
        fast, _ = vectorized_sweep(psi, grid, honest_params)
        for candidate, response in fast:
            exact = solve_best_response(candidate.contract, honest_params)
            assert response.effort == exact.effort
            assert response.utility == exact.utility


class TestRouting:
    def test_fastpath_stats(self, psi, honest_params):
        _, stats = vectorized_sweep(psi, _grid(psi, 5), honest_params)
        assert stats.n_efforts > 0
        assert stats.n_vectorized == stats.n_candidates * stats.n_efforts

    def test_legacy_stats(self, psi, honest_params):
        pairs, stats = legacy_sweep(psi, _grid(psi, 5), honest_params)
        assert stats.n_efforts == 0
        assert stats.n_vectorized == 0
        assert len(pairs) == 5

    def test_both_routes_agree(self, psi):
        grid = _grid(psi, 8)
        params = WorkerParameters.malicious(beta=1.0, omega=0.6)
        slow, _ = legacy_sweep(psi, grid, params)
        fast, _ = vectorized_sweep(psi, grid, params)
        require_sweeps_agree(fast, slow)

    def test_entry_point_runs_vectorized_sweep(self, psi, honest_params, monkeypatch):
        """REPRO_FASTPATH=0 in the environment leaves the vectorized sweep on."""
        grid = _grid(psi, 6)
        monkeypatch.delenv("REPRO_FASTPATH", raising=False)
        expected, _ = sweep_candidates_with_stats(psi, grid, honest_params)
        monkeypatch.setenv("REPRO_FASTPATH", "0")
        pairs, stats = sweep_candidates_with_stats(psi, grid, honest_params)
        assert stats.n_vectorized > 0
        assert pairs == expected

    def test_cross_check_runs_under_invariants(self, psi, honest_params, monkeypatch):
        calls = []

        def counting_legacy(*args, **kwargs):
            calls.append(args)
            return legacy_sweep(*args, **kwargs)

        monkeypatch.setattr("repro.core.sweep.legacy_sweep", counting_legacy)
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        pairs, stats = sweep_candidates_with_stats(
            psi, _grid(psi, 6), honest_params
        )
        assert stats.n_vectorized > 0
        assert len(pairs) == 6
        assert len(calls) == 1


class TestRequireSweepsAgree:
    def test_detects_length_mismatch(self, psi, honest_params):
        pairs, _ = legacy_sweep(psi, _grid(psi, 4), honest_params)
        with pytest.raises(InvariantViolation):
            require_sweeps_agree(pairs[:-1], pairs)

    def test_detects_utility_mismatch(self, psi, honest_params):
        pairs, _ = legacy_sweep(psi, _grid(psi, 4), honest_params)
        candidate, response = pairs[0]
        tampered = dataclasses.replace(response, utility=response.utility + 1.0)
        with pytest.raises(InvariantViolation):
            require_sweeps_agree([(candidate, tampered)] + pairs[1:], pairs)

    def test_accepts_identical_sweeps(self, psi, honest_params):
        pairs, _ = legacy_sweep(psi, _grid(psi, 4), honest_params)
        require_sweeps_agree(pairs, pairs)


class TestSweepStats:
    def test_rejects_negative_counts(self):
        with pytest.raises(DesignError):
            SweepStats(n_candidates=-1, n_efforts=0, n_vectorized=0)
