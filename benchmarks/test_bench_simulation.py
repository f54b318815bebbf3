"""Benchmarks and speedup gate for the round engine against its oracle.

The columnar kernel's pitch is quantitative, so the threshold is
asserted, not just reported: a 1,000-subject, 200-round, re-design-
every-round simulation must run >= 5x faster through
``MarketplaceSimulation`` (``fast_columnar_step`` + delta-aware
redesign) than through the ``legacy_step`` oracle — the per-subject
loop over the packed population's lazy views, with a full re-design
every round — *and* the two ledgers must be bit-identical
(``require_ledgers_agree`` uses exact equality; a speedup can never be
bought with a wrong answer).  Measured headroom is well over an order
of magnitude; the gate is deliberately conservative for CI runners.

The gate test writes a ``BENCH_simulation.json`` artifact (path
overridable via ``REPRO_BENCH_OUT``) so CI runs leave a machine-readable
record (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

import numpy as np

from repro.core.utility import RequesterObjective
from repro.simulation import (
    DynamicContractPolicy,
    MarketplaceSimulation,
    PostedProvenance,
    RoundRecord,
    legacy_step,
    require_ledgers_agree,
)
from repro.workers import synthetic_population
from repro.workers.columnar import ColumnarPopulation

_GATE_SPEEDUP = 5.0
_N_SUBJECTS = 1000
_N_ARCHETYPES = 16
_N_ROUNDS = 200
_SEED = 0
_FEEDBACK_NOISE = 0.3


def _population(n_subjects: int) -> ColumnarPopulation:
    return ColumnarPopulation.from_population(
        synthetic_population(
            n_subjects,
            n_archetypes=_N_ARCHETYPES,
            seed=_SEED,
            feedback_noise=_FEEDBACK_NOISE,
        )
    )


def _build(n_subjects: int = _N_SUBJECTS, lagged: bool = False) -> MarketplaceSimulation:
    return MarketplaceSimulation(
        _population(n_subjects),
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0),
        seed=_SEED,
        redesign_every=1,
        lagged_payment=lagged,
    )


def _oracle_run(
    n_rounds: int, n_subjects: int = _N_SUBJECTS, lagged: bool = False
) -> List[RoundRecord]:
    """The reference: ``legacy_step`` every round, fresh design each round."""
    population = _population(n_subjects)
    objective = RequesterObjective()
    rng = np.random.default_rng(_SEED)
    previous: Dict[str, float] = {}
    records = []
    for round_index in range(n_rounds):
        assignment = DynamicContractPolicy(mu=1.0).contracts_columnar(population)
        step = legacy_step(
            population,
            assignment.to_mapping(population),
            set(),
            PostedProvenance(assignment.codes),
            previous,
            lagged,
            rng,
        )
        records.append(
            RoundRecord(
                round_index=round_index,
                outcomes=step.outcomes,
                benefit=step.benefit,
                total_compensation=step.total_compensation,
                utility=objective.params.utility(
                    step.benefit, step.total_compensation
                ),
            )
        )
    return records


def test_bench_fast_rounds(benchmark):
    """Time the engine on a mid-sized slice of the gate workload."""
    def run():
        return _build(n_subjects=300).run(30)

    ledger = benchmark(run)
    assert ledger.n_rounds == 30
    assert all(record.n_dirty == 0 for record in ledger.records[1:])


def test_bench_legacy_rounds(benchmark):
    """Time the oracle on the same slice, for the ratio record."""
    def run():
        return _oracle_run(30, n_subjects=300)

    records = benchmark(run)
    assert len(records) == 30


def test_simulation_speedup_gate():
    """The acceptance gate, asserted on one measured run each."""
    started = time.perf_counter()
    fast_ledger = _build().run(_N_ROUNDS)
    fast_seconds = time.perf_counter() - started

    started = time.perf_counter()
    legacy_records = _oracle_run(_N_ROUNDS)
    legacy_seconds = time.perf_counter() - started

    # Equivalence first: bit-identical ledgers, engine vs oracle.
    require_ledgers_agree(fast_ledger, legacy_records)
    # Delta redesign over the static population: zero re-solves after
    # round 0, full reuse every redesign round.
    assert fast_ledger.records[0].n_dirty == _N_SUBJECTS
    for record in fast_ledger.records[1:]:
        assert record.n_dirty == 0
        assert record.reuse_rate == 1.0

    speedup = legacy_seconds / fast_seconds
    assert speedup >= _GATE_SPEEDUP, (
        f"round engine only {speedup:.1f}x faster than the legacy_step "
        f"oracle at {_N_SUBJECTS} subjects x {_N_ROUNDS} rounds; gate is "
        f"{_GATE_SPEEDUP}x"
    )

    artifact = {
        "n_subjects": _N_SUBJECTS,
        "n_archetypes": _N_ARCHETYPES,
        "n_rounds": _N_ROUNDS,
        "redesign_every": 1,
        "fast_seconds": fast_seconds,
        "legacy_seconds": legacy_seconds,
        "speedup": speedup,
        "mean_reuse_rate": fast_ledger.mean_reuse_rate(),
        "gates": {"simulation": _GATE_SPEEDUP},
    }
    out_path = os.environ.get("REPRO_BENCH_OUT", "BENCH_simulation.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)


def test_lagged_payment_ledgers_bit_identical():
    """Eq. (1) timing included: seeded lagged runs agree bit for bit."""
    fast = _build(n_subjects=300, lagged=True).run(40)
    legacy = _oracle_run(40, n_subjects=300, lagged=True)
    require_ledgers_agree(fast, legacy)


def test_fast_engine_in_check_mode(monkeypatch):
    """Every round self-verifies under REPRO_CHECK_INVARIANTS=1."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    ledger = _build(n_subjects=200, lagged=True).run(10)
    assert ledger.n_rounds == 10
    assert all(record.n_dirty == 0 for record in ledger.records[1:])
