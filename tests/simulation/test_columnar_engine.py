"""Columnar engine equivalence: `fast_columnar_step` against `legacy_step`.

Every simulation packs its population into columns and steps it through
the one kernel; `legacy_step` over the packed population's lazy object
views is the oracle.  The contract is bit-identity: a population packed
by the simulation and one packed up front produce the same ledger —
every outcome field, every reduction — and under
``REPRO_CHECK_INVARIANTS=1`` every round of both is replayed through the
oracle and compared exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.utility import RequesterObjective
from repro.serving.pool import ColumnarDeltaState, ContractAssignment
from repro.simulation import (
    AdaptiveDynamicPolicy,
    DynamicContractPolicy,
    ExclusionPolicy,
    FixedPaymentPolicy,
    MarketplaceSimulation,
    PostedProvenance,
    RetentionModel,
    RetentionSimulation,
    SimulationLedger,
    StreamingLedger,
    legacy_step,
    require_ledgers_agree,
)
from repro.simulation.engine import _group_rows, fast_columnar_step
from repro.workers import synthetic_population
from repro.workers.columnar import ColumnarPopulation, synthetic_columnar

SEED = 21


def _population():
    return synthetic_population(
        n_subjects=14, n_archetypes=5, seed=SEED, feedback_noise=0.3
    )


def _columnar():
    return ColumnarPopulation.from_population(_population())


POLICIES = [
    ("dynamic", lambda: DynamicContractPolicy(mu=1.0)),
    # Re-weights every round, so each design epoch has a real dirty set.
    ("dynamic-delta", lambda: AdaptiveDynamicPolicy(mu=1.0)),
    ("exclusion", lambda: ExclusionPolicy(DynamicContractPolicy(mu=1.0))),
    ("fixed", lambda: FixedPaymentPolicy(pay_per_member=0.4)),
]


def _run(population, policy, lagged=False, ledger=None, n=4):
    simulation = MarketplaceSimulation(
        population,
        RequesterObjective(),
        policy,
        seed=7,
        lagged_payment=lagged,
        ledger=ledger,
    )
    return simulation.run(n)


@pytest.mark.parametrize("lagged", [False, True])
@pytest.mark.parametrize("invariants", [False, True])
@pytest.mark.parametrize("name,policy_factory", POLICIES)
def test_columnar_engine_bit_identical(
    name, policy_factory, invariants, lagged, monkeypatch
):
    if invariants:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    reference = _run(_population(), policy_factory(), lagged)
    produced = _run(_columnar(), policy_factory(), lagged)
    assert isinstance(reference, SimulationLedger)
    assert isinstance(produced, SimulationLedger)
    require_ledgers_agree(produced, reference)


def test_columnar_cross_verified_under_invariants(monkeypatch):
    """REPRO_CHECK_INVARIANTS replays every round through the oracle and
    demands exact agreement; the replay never perturbs the run."""
    plain = _run(_columnar(), DynamicContractPolicy(mu=1.0), lagged=True)
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    checked = _run(_columnar(), DynamicContractPolicy(mu=1.0), lagged=True)
    assert isinstance(plain, SimulationLedger)
    assert isinstance(checked, SimulationLedger)
    require_ledgers_agree(checked, plain)


@pytest.mark.parametrize("redesign_every", [2, 3])
def test_columnar_redesign_cadence(redesign_every, monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")

    def build(population):
        return MarketplaceSimulation(
            population,
            RequesterObjective(),
            DynamicContractPolicy(mu=1.0),
            seed=7,
            redesign_every=redesign_every,
        )

    reference = build(_population()).run(5)
    produced = build(_columnar()).run(5)
    assert isinstance(produced, SimulationLedger)
    assert isinstance(reference, SimulationLedger)
    require_ledgers_agree(produced, reference)


@pytest.mark.parametrize("invariants", [False, True])
def test_columnar_retention_matches_object_path(invariants, monkeypatch):
    """Departures follow the realized columns; with invariants on, each
    round is also checked against the object loop over the lazy views."""
    if invariants:
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")

    def build(population):
        return RetentionSimulation(
            population,
            RequesterObjective(),
            FixedPaymentPolicy(pay_per_member=0.05),
            retention=RetentionModel(reservation_utility=0.2, patience=2),
            seed=5,
        )

    reference_sim = build(_population())
    produced_sim = build(_columnar())
    reference = reference_sim.run(6)
    produced = produced_sim.run(6)
    assert isinstance(produced, SimulationLedger)
    assert isinstance(reference, SimulationLedger)
    require_ledgers_agree(produced, reference)
    assert produced_sim.departed == reference_sim.departed
    assert produced_sim.departed
    assert produced_sim.retention_rate() == reference_sim.retention_rate()


def test_streaming_ledger_accepts_adaptive_policies():
    """Adaptive policies observe the result columns, so a streaming run
    learns exactly what an eager one does."""
    eager = _run(_population(), AdaptiveDynamicPolicy(mu=1.0))
    streamed = _run(
        _population(), AdaptiveDynamicPolicy(mu=1.0), ledger=StreamingLedger()
    )
    assert isinstance(streamed, StreamingLedger)
    assert streamed.utility_series().tolist() == eager.utility_series().tolist()


class TestColumnarDeltaState:
    def test_first_epoch_solves_everything(self):
        columnar = _columnar()
        policy = DynamicContractPolicy(mu=1.0)
        assignment = policy.contracts_columnar(columnar)
        stats = policy.redesign_stats()
        assert isinstance(assignment, ContractAssignment)
        assert stats is not None
        assert stats.n_subjects == columnar.n_subjects
        assert stats.n_dirty == columnar.n_subjects

    def test_unchanged_population_reuses_all(self):
        columnar = _columnar()
        policy = DynamicContractPolicy(mu=1.0)
        first = policy.contracts_columnar(columnar)
        second = policy.contracts_columnar(columnar)
        stats = policy.redesign_stats()
        assert stats is not None
        assert stats.n_dirty == 0
        assert stats.reuse_rate == 1.0
        assert np.array_equal(first.codes, second.codes)
        for a, b in zip(first.contracts, second.contracts):
            assert a.content_key() == b.content_key()

    def test_single_subject_mutation_dirties_one_archetype(self):
        columnar = _columnar()
        policy = DynamicContractPolicy(mu=1.0)
        policy.contracts_columnar(columnar)
        weights = columnar.design_weight.copy()
        row = 0
        weights[row] = weights[row] * 2.0 + 1.0
        columnar.update_design_columns(design_weight=weights)
        policy.contracts_columnar(columnar)
        stats = policy.redesign_stats()
        assert stats is not None
        # Only the mutated row's (now unique) archetype re-solves.
        assert stats.n_dirty == 1
        assert 0.0 < stats.reuse_rate < 1.0

    def test_delta_state_is_consistent_with_fresh_solve(self):
        columnar_a = _columnar()
        columnar_b = _columnar()
        delta_policy = DynamicContractPolicy(mu=1.0)
        fresh_policy = DynamicContractPolicy(mu=1.0)
        delta_policy.contracts_columnar(columnar_a)
        reused = delta_policy.contracts_columnar(columnar_a)
        fresh = fresh_policy.contracts_columnar(columnar_b)
        mapping_reused = reused.to_mapping(columnar_a)
        mapping_fresh = fresh.to_mapping(columnar_b)
        assert set(mapping_reused) == set(mapping_fresh)
        for subject_id, contract in mapping_fresh.items():
            assert (
                mapping_reused[subject_id].content_key()
                == contract.content_key()
            )

    def test_state_keeps_only_the_previous_epoch(self):
        """Designs never seen again are dropped: the state holds one
        epoch's archetypes however many epochs it absorbed, while a
        subject returning to an archetype the previous epoch held still
        reuses its design."""
        columnar = _columnar()
        policy = DynamicContractPolicy(mu=1.0)
        policy.contracts_columnar(columnar)
        # A mover whose base archetype keeps other members.
        mover = int(np.argmax(np.bincount(columnar.archetype_codes)[
            columnar.archetype_codes
        ]))
        base = columnar.design_weight.copy()
        for epoch in range(6):
            weights = base.copy()
            weights[mover] = 10.0 + epoch  # a never-seen weight each epoch
            columnar.update_design_columns(design_weight=weights)
            policy.contracts_columnar(columnar)
            assert policy.redesign_stats().n_dirty == 1
            assert len(policy._delta._solutions) == columnar.n_archetypes
        columnar.update_design_columns(design_weight=base)
        policy.contracts_columnar(columnar)
        # The mover returns to its base archetype, which every epoch held.
        assert policy.redesign_stats().n_dirty == 0

    def test_resolve_requires_columnar_population(self):
        state = ColumnarDeltaState()
        assert state.last_stats is None


class TestPayFunctionMemo:
    def test_each_contract_builds_its_pay_function_once(self):
        columnar = _columnar()
        contracts = DynamicContractPolicy(mu=1.0).contracts_columnar(
            columnar
        ).contracts
        assert len(contracts) >= 2
        functions = [contract.as_feedback_function() for contract in contracts]
        for contract, function in zip(contracts, functions):
            assert contract.as_feedback_function() is function
            assert contract.pay_for_feedback(1.0) == function(1.0)
        assert functions[0] is not functions[1]

    def test_memo_survives_rounds_and_stays_out_of_pickles(self):
        import pickle

        simulation = MarketplaceSimulation(
            _columnar(), RequesterObjective(), DynamicContractPolicy(mu=1.0), seed=7
        )
        simulation.step()
        contract = simulation._assignment.contracts[0]
        function = contract.as_feedback_function()
        simulation.step()
        # The delta redesign reposts the same object; its function stays.
        assert simulation._assignment.contracts[0] is contract
        assert contract.as_feedback_function() is function
        copy = pickle.loads(pickle.dumps(contract))
        assert "_feedback_function" not in copy.__dict__
        assert copy == contract


def test_kernel_signatures_cover_escape_hatch():
    """The kernel agrees with the reference loop over the lazy views on
    one hand-built round."""
    columnar = _columnar()
    policy = DynamicContractPolicy(mu=1.0)
    assignment = policy.contracts_columnar(columnar)
    excluded = np.zeros(columnar.n_subjects, dtype=bool)
    excluded[2] = True
    rng_fast = np.random.default_rng(3)
    rng_legacy = np.random.default_rng(3)
    previous = np.zeros(columnar.n_subjects)
    result = fast_columnar_step(
        columnar, assignment, excluded, previous, False, rng_fast
    )
    reference = legacy_step(
        columnar,
        assignment.to_mapping(columnar),
        {columnar.subject_id(2)},
        PostedProvenance(assignment.codes),
        {},
        False,
        rng_legacy,
    )
    assert result.benefit == reference.benefit
    assert result.total_compensation == reference.total_compensation
    for row in range(columnar.n_subjects):
        outcome = reference.outcomes[columnar.subject_id(row)]
        assert result.active[row] == (not outcome.excluded)
        assert result.efforts[row] == outcome.effort
        assert result.feedback[row] == outcome.feedback
        assert result.compensation[row] == outcome.compensation


def test_shared_contract_objects_share_one_code(monkeypatch):
    """Archetypes posted one contract object are solved and paid once:
    the kernel groups by contract object, not by archetype code."""
    calls = []
    respond_unique = ColumnarPopulation.respond_unique

    def counting(self, contracts, contract_codes, rows):
        calls.append(np.unique(contract_codes).size)
        return respond_unique(self, contracts, contract_codes, rows)

    monkeypatch.setattr(ColumnarPopulation, "respond_unique", counting)
    columnar = _columnar()
    assignment = DynamicContractPolicy(mu=1.0).contracts_columnar(columnar)
    doubled = ContractAssignment(
        contracts=assignment.contracts + assignment.contracts,
        codes=assignment.codes + len(assignment.contracts) * (
            np.arange(columnar.n_subjects) % 2
        ),
    )
    excluded = np.zeros(columnar.n_subjects, dtype=bool)
    doubled_result = fast_columnar_step(
        columnar, doubled, excluded, np.zeros(columnar.n_subjects), False,
        np.random.default_rng(3),
    )
    plain_result = fast_columnar_step(
        columnar, assignment, excluded, np.zeros(columnar.n_subjects), False,
        np.random.default_rng(3),
    )
    assert calls[0] == calls[1] == len(set(map(id, assignment.contracts)))
    assert np.array_equal(doubled_result.compensation, plain_result.compensation)
    assert doubled_result.benefit == plain_result.benefit


def _shared_fit_columnar(beta):
    """20 honest rows on one design fit (r2 = -0.8) whose true psi and
    beta differ in groups of 5: true r2 -0.9/-0.9/-0.7/-0.5."""
    n = 20
    act_r2 = np.repeat([-0.9, -0.9, -0.7, -0.5], 5)
    return ColumnarPopulation(
        r2=np.full(n, -0.8), r1=np.full(n, 10.0), r0=np.full(n, 1.0),
        act_r2=act_r2, act_r1=np.full(n, 10.0), act_r0=np.full(n, 1.0),
        beta=beta, omega=np.zeros(n),
        design_weight=np.ones(n), eval_weight=np.ones(n),
        max_effort=np.full(n, np.nan), type_codes=np.zeros(n, dtype=np.int64),
        e_mal=np.zeros(n), feedback_noise=np.zeros(n),
        rating_noise=np.zeros(n), rating_bias=np.zeros(n),
        n_members=np.ones(n, dtype=np.int64),
        community_ids=np.full(n, -1, dtype=np.int64),
    )


def test_beta_update_drops_cached_best_responses():
    """A beta update renumbers the response archetypes; responses cached
    under the old numbering must not answer for the new one."""
    before = np.repeat([2.0, 3.0, 2.0, 2.0], 5)
    after = np.full(20, 2.0)
    moved = _shared_fit_columnar(before)
    simulation = MarketplaceSimulation(
        moved, RequesterObjective(), DynamicContractPolicy(mu=1.0), seed=3
    )
    simulation.step()
    moved.update_design_columns(beta=after)
    simulation.step()
    fresh = MarketplaceSimulation(
        _shared_fit_columnar(after), RequesterObjective(),
        DynamicContractPolicy(mu=1.0), seed=3,
    )
    fresh.step()
    got = simulation.ledger.records[-1].outcomes
    want = fresh.ledger.records[-1].outcomes
    for row in range(20):
        subject_id = moved.subject_id(row)
        assert got[subject_id].effort == want[subject_id].effort, subject_id


def test_pair_keys_wider_than_16_bits_replay_bit_identically(monkeypatch):
    """300 design and 300 response archetypes pack 90,000 (contract,
    response archetype) keys, past the 16 bits of the radix sort, so the
    kernel groups with the wide sort; every round, a design update
    included, replays bit-identically through the oracle."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    population = synthetic_columnar(1_000, n_archetypes=300, feedback_noise=0.3)
    assert population.n_archetypes * population.n_response_archetypes > 1 << 16
    simulation = MarketplaceSimulation(
        population, RequesterObjective(), DynamicContractPolicy(mu=1.0), seed=4
    )
    simulation.step()
    weights = population.design_weight.copy()
    weights[::50] = 3.0
    population.update_design_columns(design_weight=weights)
    record = simulation.step()
    assert record.n_dirty == 20


@pytest.mark.parametrize("bound", [1 << 8, 1 << 16, 1 << 17, 1 << 40])
def test_row_grouping_is_a_stable_sort_into_unique_runs(bound):
    """Keys within 16 bits sort as uint16 (radix), wider ones as they
    are; either way the order is the stable argsort and the runs are
    ``np.unique``'s values and counts."""
    keys = np.random.default_rng(bound % 97).integers(0, bound, 5_000)
    keys[::7] = bound - 1
    order, starts = _group_rows(keys, bound)
    values, counts = np.unique(keys, return_counts=True)
    assert np.array_equal(order, np.argsort(keys, kind="stable"))
    assert np.array_equal(keys[order][starts], values)
    assert np.array_equal(np.diff(starts, append=keys.size), counts)
