"""Tests for the simulation ledger."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation import RoundRecord, SimulationLedger, SubjectRoundOutcome
from repro.types import WorkerType


def _outcome(subject_id, worker_type, compensation=1.0, excluded=False, n_members=1):
    return SubjectRoundOutcome(
        subject_id=subject_id,
        worker_type=worker_type,
        effort=2.0,
        feedback=3.0,
        compensation=compensation,
        feedback_weight=1.5,
        excluded=excluded,
        n_members=n_members,
    )


def _record(index, outcomes):
    benefit = sum(o.requester_value for o in outcomes.values())
    pay = sum(o.compensation for o in outcomes.values())
    return RoundRecord(
        round_index=index,
        outcomes=outcomes,
        benefit=benefit,
        total_compensation=pay,
        utility=benefit - pay,
    )


class TestOutcome:
    def test_requester_value(self):
        outcome = _outcome("w", WorkerType.HONEST)
        assert outcome.requester_value == pytest.approx(1.5 * 3.0)

    def test_excluded_contributes_nothing(self):
        outcome = _outcome("w", WorkerType.HONEST, excluded=True)
        assert outcome.requester_value == 0.0

    def test_per_member_compensation(self):
        outcome = _outcome("c", WorkerType.COLLUSIVE_MALICIOUS, compensation=6.0, n_members=3)
        assert outcome.per_member_compensation == pytest.approx(2.0)


class TestLedger:
    def test_rounds_must_be_sequential(self):
        ledger = SimulationLedger()
        ledger.append(_record(0, {"w": _outcome("w", WorkerType.HONEST)}))
        with pytest.raises(SimulationError):
            ledger.append(_record(2, {"w": _outcome("w", WorkerType.HONEST)}))

    def test_series_and_totals(self):
        ledger = SimulationLedger()
        for index in range(3):
            ledger.append(_record(index, {"w": _outcome("w", WorkerType.HONEST)}))
        series = ledger.utility_series()
        assert series.shape == (3,)
        assert ledger.total_utility() == pytest.approx(series.sum())
        assert ledger.cumulative_utility()[-1] == pytest.approx(series.sum())

    def test_empty_ledger_summary(self):
        ledger = SimulationLedger()
        summary = ledger.summary()
        assert summary["n_rounds"] == 0.0
        assert ledger.total_utility() == 0.0

    def test_compensation_by_type(self):
        ledger = SimulationLedger()
        outcomes = {
            "h": _outcome("h", WorkerType.HONEST, compensation=2.0),
            "c": _outcome(
                "c", WorkerType.COLLUSIVE_MALICIOUS, compensation=6.0, n_members=3
            ),
        }
        ledger.append(_record(0, outcomes))
        by_type = ledger.compensation_by_type()
        assert by_type[WorkerType.HONEST][0] == pytest.approx(2.0)
        assert by_type[WorkerType.COLLUSIVE_MALICIOUS][0] == pytest.approx(2.0)
        assert by_type[WorkerType.NONCOLLUSIVE_MALICIOUS][0] == 0.0

    def test_mean_effort_by_type(self):
        ledger = SimulationLedger()
        outcomes = {
            "c": _outcome("c", WorkerType.COLLUSIVE_MALICIOUS, n_members=2),
        }
        ledger.append(_record(0, outcomes))
        efforts = ledger.mean_effort_by_type()
        assert efforts[WorkerType.COLLUSIVE_MALICIOUS] == pytest.approx(1.0)

    def test_summary_totals(self):
        ledger = SimulationLedger()
        ledger.append(_record(0, {"w": _outcome("w", WorkerType.HONEST)}))
        summary = ledger.summary()
        assert summary["n_rounds"] == 1.0
        assert summary["total_compensation"] == pytest.approx(1.0)
