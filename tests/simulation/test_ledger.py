"""Tests for the simulation ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.serving.pool import SolveDiagnostics
from repro.simulation import (
    ColumnarStepResult,
    PostedProvenance,
    RoundOutcomes,
    RoundRecord,
    SimulationLedger,
    StreamingLedger,
    SubjectRoundOutcome,
)
from repro.types import WorkerType
from repro.workers.columnar import WORKER_TYPE_CODES, ColumnarPopulation


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


def _population(worker_types, n_members):
    """A hand-built columnar population: one row per listed class."""
    n = len(worker_types)
    ones = np.ones(n)
    zeros = np.zeros(n)
    # Malicious rows need omega > 0; honest ones keep a zero.
    honest = np.array([wt is WorkerType.HONEST for wt in worker_types])
    return ColumnarPopulation(
        r2=-0.5 * ones,
        r1=10.0 * ones,
        r0=ones,
        act_r2=-0.5 * ones,
        act_r1=10.0 * ones,
        act_r0=ones,
        beta=ones,
        omega=np.where(honest, 0.0, 0.5),
        design_weight=1.5 * ones,
        eval_weight=1.5 * ones,
        max_effort=np.full(n, np.nan),
        type_codes=[WORKER_TYPE_CODES[wt] for wt in worker_types],
        e_mal=zeros,
        feedback_noise=zeros,
        rating_noise=zeros,
        rating_bias=zeros,
        n_members=n_members,
        community_ids=np.full(n, -1),
        subject_ids=[f"s{row}" for row in range(n)],
    )


def _record(index, population, compensation, excluded=(), provenance=None):
    """One round as the engine hands it over: reductions plus the view
    over the round's columns (effort 2, feedback 3 on active rows)."""
    n = population.n_subjects
    active = np.ones(n, dtype=bool)
    active[list(excluded)] = False
    pay = np.where(active, compensation, 0.0)
    result = ColumnarStepResult(
        active=active,
        efforts=np.where(active, 2.0, 0.0),
        feedback=np.where(active, 3.0, 0.0),
        compensation=pay,
        rating_deviation=np.zeros(n),
        worker_utility=np.zeros(n),
        benefit=float(np.sum(np.where(active, 1.5 * 3.0, 0.0))),
        total_compensation=float(np.sum(pay)),
    )
    if provenance is None:
        provenance = PostedProvenance(np.zeros(n, dtype=np.int64))
    return RoundRecord(
        round_index=index,
        outcomes=RoundOutcomes(population, result, provenance),
        benefit=result.benefit,
        total_compensation=result.total_compensation,
        utility=result.benefit - result.total_compensation,
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


class TestRoundOutcomes:
    def test_outcomes_are_built_from_the_columns_on_read(self):
        population = _population(
            [WorkerType.HONEST, WorkerType.NONCOLLUSIVE_MALICIOUS], [1, 1]
        )
        provenance = PostedProvenance(
            np.array([0, -1]),
            diagnostics=(SolveDiagnostics(fingerprint="cd1:x", cache_hit=True),),
            policy_weights=np.array([0.25, 0.75]),
        )
        outcomes = _record(
            0, population, 1.0, excluded=[1], provenance=provenance
        ).outcomes
        assert list(outcomes) == ["s0", "s1"]
        assert len(outcomes) == 2
        assert outcomes["s0"] == SubjectRoundOutcome(
            subject_id="s0",
            worker_type=WorkerType.HONEST,
            effort=2.0,
            feedback=3.0,
            compensation=1.0,
            feedback_weight=1.5,
            excluded=False,
            n_members=1,
            policy_weight=0.25,
            fingerprint="cd1:x",
            cache_hit=True,
        )
        assert outcomes["s1"] == SubjectRoundOutcome(
            subject_id="s1",
            worker_type=WorkerType.NONCOLLUSIVE_MALICIOUS,
            effort=0.0,
            feedback=0.0,
            compensation=0.0,
            feedback_weight=1.5,
            excluded=True,
            n_members=1,
            policy_weight=0.75,
        )
        assert "nobody" not in outcomes
        with pytest.raises(KeyError):
            outcomes["nobody"]


class TestLedger:
    def test_rounds_must_be_sequential(self):
        population = _population([WorkerType.HONEST], [1])
        ledger = SimulationLedger()
        ledger.append(_record(0, population, 1.0))
        with pytest.raises(SimulationError):
            ledger.append(_record(2, population, 1.0))

    def test_records_must_carry_the_kernel_columns(self):
        """Rounds are fed by the kernel's columns, never by outcome
        objects."""
        record = RoundRecord(
            round_index=0,
            outcomes={"w": _outcome("w", WorkerType.HONEST)},
            benefit=4.5,
            total_compensation=1.0,
            utility=3.5,
        )
        for ledger in (SimulationLedger(), StreamingLedger()):
            with pytest.raises(SimulationError, match="RoundOutcomes"):
                ledger.append(record)

    def test_series_and_totals(self):
        population = _population([WorkerType.HONEST], [1])
        ledger = SimulationLedger()
        for index in range(3):
            ledger.append(_record(index, population, 1.0))
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
        population = _population(
            [WorkerType.HONEST, WorkerType.COLLUSIVE_MALICIOUS], [1, 3]
        )
        ledger = SimulationLedger()
        ledger.append(_record(0, population, np.array([2.0, 6.0])))
        by_type = ledger.compensation_by_type()
        assert by_type[WorkerType.HONEST][0] == pytest.approx(2.0)
        assert by_type[WorkerType.COLLUSIVE_MALICIOUS][0] == pytest.approx(2.0)
        assert by_type[WorkerType.NONCOLLUSIVE_MALICIOUS][0] == 0.0

    def test_mean_effort_by_type(self):
        population = _population([WorkerType.COLLUSIVE_MALICIOUS], [2])
        ledger = SimulationLedger()
        ledger.append(_record(0, population, 1.0))
        efforts = ledger.mean_effort_by_type()
        assert efforts[WorkerType.COLLUSIVE_MALICIOUS] == pytest.approx(1.0)

    def test_summary_totals(self):
        population = _population([WorkerType.HONEST], [1])
        ledger = SimulationLedger()
        ledger.append(_record(0, population, 1.0))
        summary = ledger.summary()
        assert summary["n_rounds"] == 1.0
        assert summary["total_compensation"] == pytest.approx(1.0)
