"""Delta-aware redesign: only subjects whose design row moved re-solve.

Covers the dirty-set semantics end to end: a static population costs
zero re-solves after round 0, a single changed subject dirties exactly
itself, value-equal replacement columns are recognized as clean, the
adaptive policy stops re-solving once its estimates freeze, and the
``simulation.round`` span / ledger carry the ``n_dirty`` /
``reuse_rate`` provenance.
"""

from __future__ import annotations

import pytest

from repro.core.utility import RequesterObjective
from repro.obs.trace import Tracer, set_tracer
from repro.serving import RedesignStats
from repro.simulation import (
    AdaptiveDynamicPolicy,
    DynamicContractPolicy,
    MarketplaceSimulation,
)
from repro.workers import synthetic_population
from repro.workers.columnar import ColumnarPopulation

N_SUBJECTS = 24


@pytest.fixture()
def population():
    return synthetic_population(
        N_SUBJECTS, n_archetypes=6, seed=2, feedback_noise=0.2
    )


def _run(population, policy, n_rounds=4, **kwargs):
    simulation = MarketplaceSimulation(
        population, RequesterObjective(), policy, seed=9, **kwargs
    )
    return simulation.run(n_rounds)


def test_static_population_resolves_zero_after_round0(population):
    ledger = _run(population, DynamicContractPolicy(mu=1.0))
    assert ledger.records[0].n_dirty == N_SUBJECTS
    assert ledger.records[0].reuse_rate == 0.0
    for record in ledger.records[1:]:
        assert record.n_dirty == 0
        assert record.reuse_rate == 1.0
    assert ledger.mean_reuse_rate() == pytest.approx(3 / 4)


def test_redesign_cadence_leaves_non_redesign_rounds_unstamped(population):
    ledger = _run(
        population,
        DynamicContractPolicy(mu=1.0),
        redesign_every=2,
    )
    assert ledger.records[0].n_dirty == N_SUBJECTS
    assert ledger.records[1].n_dirty is None  # no redesign happened
    assert ledger.records[1].reuse_rate is None
    assert ledger.records[2].n_dirty == 0


def test_flipping_one_subject_dirties_exactly_that_subject(population):
    columnar = ColumnarPopulation.from_population(population)
    policy = DynamicContractPolicy(mu=1.0)
    policy.contracts_columnar(columnar)
    r1 = columnar.r1.copy()
    r1[3] += 1.0
    columnar.update_design_columns(r1=r1)
    policy.contracts_columnar(columnar)
    stats = policy.redesign_stats()
    assert stats == RedesignStats(n_subjects=N_SUBJECTS, n_dirty=1)
    assert stats.reuse_rate == pytest.approx(1.0 - 1.0 / N_SUBJECTS)


def test_value_equal_replacement_object_is_clean(population):
    columnar = ColumnarPopulation.from_population(population)
    policy = DynamicContractPolicy(mu=1.0)
    policy.contracts_columnar(columnar)
    # Brand-new column objects with identical contents: the rows are
    # compared by value, so nothing is dirty.
    before = columnar.design_matrix()
    columnar.update_design_columns(
        r1=columnar.r1.copy(), design_weight=columnar.design_weight.copy()
    )
    assert columnar.design_matrix() is not before
    policy.contracts_columnar(columnar)
    assert policy.redesign_stats().n_dirty == 0


def test_adaptive_policy_stops_resolving_after_freeze(population):
    policy = AdaptiveDynamicPolicy(mu=1.0, freeze_after=1)
    ledger = _run(population, policy, n_rounds=5)
    # Round 0 designs from priors, round 1 from the first observation;
    # from round 2 on the frozen estimates reproduce identical weights
    # and the dirty set collapses.
    assert ledger.records[0].n_dirty == N_SUBJECTS
    for record in ledger.records[2:]:
        assert record.n_dirty == 0
        assert record.reuse_rate == 1.0


def test_round_span_reports_dirty_set_and_reuse(population):
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        _run(population, DynamicContractPolicy(mu=1.0))
    finally:
        set_tracer(previous)
    rounds = [s for s in tracer.spans() if s.name == "simulation.round"]
    assert len(rounds) == 4
    assert rounds[0].attributes["n_dirty"] == N_SUBJECTS
    for span in rounds[1:]:
        assert span.attributes["n_dirty"] == 0
        assert span.attributes["reuse_rate"] == 1.0


def test_reuse_is_cross_verified_under_invariants(population, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    ledger = _run(population, DynamicContractPolicy(mu=1.0))
    assert ledger.records[-1].reuse_rate == 1.0
