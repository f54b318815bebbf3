"""Delta-aware redesign: only subjects whose design row moved re-solve.

Covers the dirty-set semantics end to end: a static population costs
zero re-solves after round 0, a single changed subject dirties exactly
itself, value-equal replacement columns are recognized as clean, the
adaptive policy stops re-solving once its estimates freeze, and the
``simulation.round`` span / ledger carry the ``n_dirty`` /
``reuse_rate`` provenance.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import solve_subproblems
from repro.core.designer import DesignerConfig
from repro.core.utility import RequesterObjective
from repro.obs.trace import Tracer, set_tracer
from repro.serving import RedesignStats
from repro.serving.pool import ColumnarDeltaState
from repro.simulation import (
    AdaptiveDynamicPolicy,
    DynamicContractPolicy,
    MarketplaceSimulation,
)
from repro.types import WorkerType
from repro.workers import synthetic_population
from repro.workers.columnar import (
    WORKER_TYPE_CODES,
    ColumnarPopulation,
    changed_design_rows,
)

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


_HONEST = WORKER_TYPE_CODES[WorkerType.HONEST]
_MALICIOUS = WORKER_TYPE_CODES[WorkerType.NONCOLLUSIVE_MALICIOUS]


def _diff_population(n):
    """Honest and malicious rows, zero r0 and omega of both signs, and
    capped and capless rows."""
    rows = np.arange(n)
    malicious = rows % 4 == 3
    r2 = np.where(rows % 3 == 0, -0.8, -0.5)
    r0 = np.where(rows % 2 == 0, 1.0, np.where(rows % 5 == 1, -0.0, 0.0))
    omega = np.where(malicious, 0.3, np.where(rows % 3 == 1, -0.0, 0.0))
    weight = np.where(rows % 2 == 0, 1.0, 1.5)
    return ColumnarPopulation(
        r2=r2, r1=np.full(n, 10.0), r0=r0,
        act_r2=r2, act_r1=np.full(n, 10.0), act_r0=r0,
        beta=np.full(n, 1.2), omega=omega,
        design_weight=weight, eval_weight=weight,
        max_effort=np.where(rows % 3 == 2, np.nan, 4.0),
        type_codes=np.where(malicious, _MALICIOUS, _HONEST),
        e_mal=malicious.astype(float), feedback_noise=np.zeros(n),
        rating_noise=np.zeros(n), rating_bias=np.zeros(n),
        n_members=np.ones(n, dtype=np.int64),
        community_ids=np.full(n, -1, dtype=np.int64),
    )


_EPOCH = st.tuples(
    st.sampled_from(
        ["weight", "return", "zero_sign", "cap", "copy", "view", "resize"]
    ),
    st.lists(st.integers(0, 9), min_size=1, max_size=4),
    st.sampled_from([1.0, 1.5, 2.0, 0.75]),
)


@settings(max_examples=60, deadline=None)
@given(epochs=st.lists(_EPOCH, min_size=1, max_size=6))
def test_column_diff_equals_the_full_matrix_diff(epochs):
    """The delta state's column-wise dirty set equals ``np.any(matrix !=
    previous, axis=1)`` over the packed design matrices, and its
    ``n_dirty`` equals what the full-matrix diff gives, across signed
    zeros, NaN caps, value-equal replacement columns, design-weight
    views, movers returning to their base weight and a population of
    another size."""
    population = _diff_population(10)
    base_weight = population.design_weight.copy()
    config = DesignerConfig(n_intervals=4)
    state = ColumnarDeltaState()
    previous_matrix = previous_columns = None
    previous_keys = set()
    for kind, rows, value in [("copy", [0], 1.0), *epochs]:
        target = population
        if kind == "weight":
            weight = population.design_weight.copy()
            weight[rows] = value
            population.update_design_columns(design_weight=weight)
        elif kind == "return":
            population.update_design_columns(design_weight=base_weight.copy())
        elif kind == "zero_sign":
            omega = population.omega.copy()
            r0 = population.r0.copy()
            honest = population.type_codes[rows] == _HONEST
            omega[np.asarray(rows)[honest]] *= -1.0
            r0[rows] = np.where(r0[rows] == 0.0, -r0[rows], r0[rows])
            population.update_design_columns(omega=omega, r0=r0)
        elif kind == "cap":
            cap = population.max_effort.copy()
            cap[rows] = np.where(np.isnan(cap[rows]), 4.0, np.nan)
            population.update_design_columns(max_effort=cap)
        elif kind == "copy":
            population.update_design_columns(
                r1=population.r1.copy(), max_effort=population.max_effort.copy()
            )
        elif kind == "view":
            weight = population.design_weight.copy()
            weight[rows] = value
            target = population.with_design_weight(weight)
        else:
            target = _diff_population(7)
        matrix = target.design_matrix()
        if previous_matrix is None or previous_matrix.shape != matrix.shape:
            expected_dirty = np.ones(matrix.shape[0], dtype=bool)
        else:
            expected_dirty = np.any(matrix != previous_matrix, axis=1)
        columns = target.design_columns()
        assert np.array_equal(
            changed_design_rows(previous_columns, columns), expected_dirty
        )

        _, stats = state.resolve(
            target,
            lambda subproblems: (
                solve_subproblems(subproblems, mu=1.0, config=config),
                {},
            ),
        )
        keys = [
            matrix[row].tobytes()
            for row in target.archetype_representatives.tolist()
        ]
        solved = np.array([key not in previous_keys for key in keys])
        expected_n_dirty = int(
            np.count_nonzero(expected_dirty & solved[target.archetype_codes])
        )
        assert stats.n_dirty == expected_n_dirty
        previous_matrix, previous_columns = matrix, columns
        previous_keys = set(keys)
