"""Tests for the BiP decomposition and batch subproblem solver."""

from __future__ import annotations

import pytest

from repro.core import (
    DesignerConfig,
    Subproblem,
    decomposition_report,
    solve_subproblems,
)
from repro.errors import DesignError
from repro.types import WorkerParameters


def _subproblems(psi, n=5):
    problems = []
    for index in range(n):
        problems.append(
            Subproblem(
                subject_id=f"worker{index}",
                effort_function=psi,
                params=WorkerParameters.honest(beta=1.0),
                feedback_weight=1.0 + 0.2 * index,
            )
        )
    problems.append(
        Subproblem(
            subject_id="ring",
            effort_function=psi.community_scaled(3),
            params=WorkerParameters.malicious(beta=1.0, omega=0.3, collusive=True),
            feedback_weight=0.6,
            member_ids=("a", "b", "c"),
        )
    )
    return problems


def _weighted_subproblems(psi):
    """An honest, a low-weight malicious and a negative-weight subject."""
    return [
        Subproblem(
            subject_id="honest",
            effort_function=psi,
            params=WorkerParameters.honest(beta=1.0),
            feedback_weight=1.2,
        ),
        Subproblem(
            subject_id="sneaky",
            effort_function=psi,
            params=WorkerParameters.malicious(beta=1.0, omega=0.3),
            feedback_weight=0.4,
        ),
        Subproblem(
            subject_id="polluter",
            effort_function=psi,
            params=WorkerParameters.malicious(beta=1.0, omega=0.6),
            feedback_weight=-0.2,
        ),
    ]


class TestSubproblem:
    def test_defaults_member_to_self(self, psi):
        subproblem = Subproblem(
            subject_id="w1",
            effort_function=psi,
            params=WorkerParameters.honest(),
        )
        assert subproblem.member_ids == ("w1",)
        assert not subproblem.is_community
        assert subproblem.size == 1

    def test_community_requires_collusive_type(self, psi):
        with pytest.raises(DesignError):
            Subproblem(
                subject_id="ring",
                effort_function=psi,
                params=WorkerParameters.honest(),
                member_ids=("a", "b"),
            )

    def test_rejects_empty_id(self, psi):
        with pytest.raises(DesignError):
            Subproblem(
                subject_id="",
                effort_function=psi,
                params=WorkerParameters.honest(),
            )


class TestSolve:
    def test_solves_every_subject(self, psi):
        problems = _subproblems(psi)
        solutions = solve_subproblems(problems, mu=1.0)
        assert set(solutions) == {p.subject_id for p in problems}

    def test_duplicate_ids_rejected(self, psi):
        problem = _subproblems(psi)[0]
        with pytest.raises(DesignError):
            solve_subproblems([problem, problem], mu=1.0)

    def test_per_member_compensation_split(self, psi):
        problems = _subproblems(psi)
        solutions = solve_subproblems(problems, mu=1.0)
        ring = solutions["ring"]
        assert ring.per_member_compensation == pytest.approx(
            ring.result.compensation / 3
        )

    def test_config_and_cap_respected(self, psi):
        problem = Subproblem(
            subject_id="w",
            effort_function=psi,
            params=WorkerParameters.honest(),
            max_effort=2.0,
        )
        solutions = solve_subproblems(
            [problem], mu=1.0, config=DesignerConfig(n_intervals=6)
        )
        contract = solutions["w"].result.contract
        assert contract.grid.max_effort == pytest.approx(2.0)
        assert contract.grid.n_intervals == 6


class TestReport:
    def test_report_totals_consistent(self, psi):
        for problems in (_subproblems(psi), _weighted_subproblems(psi)):
            solutions = solve_subproblems(problems, mu=1.0)
            report = decomposition_report(solutions, mu=1.0)
            assert report["n_subjects"] == len(problems)
            assert report["total_utility"] == pytest.approx(
                report["total_benefit"] - report["total_compensation"]
            )
            assert 0 <= report["n_hired"] <= report["n_subjects"]

    def test_negative_weight_subject_not_hired(self, psi):
        solutions = solve_subproblems(_weighted_subproblems(psi), mu=1.0)
        report = decomposition_report(solutions, mu=1.0)
        polluter = solutions["polluter"].result
        assert not polluter.hired
        assert polluter.response.compensation == pytest.approx(0.0)
        assert report["n_hired"] == 2

    def test_report_rejects_bad_mu(self, psi):
        solutions = solve_subproblems(_subproblems(psi), mu=1.0)
        with pytest.raises(DesignError):
            decomposition_report(solutions, mu=-1.0)

    def test_decomposition_independence(self, psi):
        """Solving a subset yields identical per-subject results — the
        Section IV-B separability claim."""
        problems = _subproblems(psi)
        full = solve_subproblems(problems, mu=1.0)
        subset = solve_subproblems(problems[:2], mu=1.0)
        for subject_id in subset:
            assert subset[subject_id].result.requester_utility == pytest.approx(
                full[subject_id].result.requester_utility
            )
