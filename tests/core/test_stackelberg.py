"""Tests for the one-shot Stackelberg round."""

from __future__ import annotations

import pytest

from repro.core import Subproblem, play_round
from repro.errors import DesignError
from repro.types import WorkerParameters


def _problems(psi):
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


class TestPlayRound:
    def test_totals_aggregate_subjects(self, psi):
        outcome, solutions = play_round(_problems(psi), mu=1.0)
        assert set(outcome.subjects) == {"honest", "sneaky", "polluter"}
        benefit = sum(
            solutions[s].result.feedback_weight * o.feedback
            for s, o in outcome.subjects.items()
        )
        pay = sum(o.compensation for o in outcome.subjects.values())
        assert outcome.total_benefit == pytest.approx(benefit)
        assert outcome.total_compensation == pytest.approx(pay)
        assert outcome.total_utility == pytest.approx(benefit - pay)

    def test_negative_weight_subject_not_hired(self, psi):
        outcome, _ = play_round(_problems(psi), mu=1.0)
        assert not outcome.subjects["polluter"].hired
        assert outcome.subjects["polluter"].compensation == pytest.approx(0.0)
        assert outcome.n_hired == 2

    def test_outcomes_match_design_results(self, psi):
        outcome, solutions = play_round(_problems(psi), mu=1.0)
        for subject_id, subject_outcome in outcome.subjects.items():
            result = solutions[subject_id].result
            assert subject_outcome.effort == pytest.approx(result.response.effort)
            assert subject_outcome.requester_utility == pytest.approx(
                result.requester_utility
            )

    def test_rejects_bad_mu(self, psi):
        with pytest.raises(DesignError):
            play_round(_problems(psi), mu=0.0)
