"""ColumnarPopulation: round-trips, lazy views, archetype grouping."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import ENV_VAR, InvariantViolation
from repro.core.decomposition import Subproblem
from repro.core.effort import QuadraticEffort
from repro.errors import ModelError
from repro.types import WorkerParameters, WorkerType
from repro.core.utility import RequesterObjective
from repro.simulation import DynamicContractPolicy, MarketplaceSimulation
from repro.workers import (
    CamouflagedWorker,
    CollusiveCommunity,
    HonestWorker,
    IntermittentWorker,
    synthetic_population,
)
from repro.workers.columnar import (
    WORKER_TYPE_CODES,
    ColumnarPopulation,
    require_archetypes_agree,
    synthetic_columnar,
    unique_rows,
)
from repro.workers.population import ClassEffortFunctions, PopulationModel


def _population(n=10, seed=3, **kwargs):
    kwargs.setdefault("n_archetypes", 4)
    kwargs.setdefault("feedback_noise", 0.3)
    return synthetic_population(n_subjects=n, seed=seed, **kwargs)


def test_from_population_columns_match_objects():
    population = _population()
    columnar = ColumnarPopulation.from_population(population)
    assert columnar.n_subjects == len(population.subproblems)
    for row, subproblem in enumerate(population.subproblems):
        agent = population.agents[subproblem.subject_id]
        assert columnar.subject_id(row) == subproblem.subject_id
        assert columnar.r2[row] == subproblem.effort_function.r2
        assert columnar.r1[row] == subproblem.effort_function.r1
        assert columnar.act_r2[row] == agent.effort_function.r2
        assert columnar.beta[row] == subproblem.params.beta
        assert columnar.omega[row] == subproblem.params.omega
        assert columnar.design_weight[row] == subproblem.feedback_weight
        assert (
            columnar.eval_weight[row]
            == population.weights[subproblem.subject_id]
        )
        assert columnar.feedback_noise[row] == agent.feedback_noise
        assert columnar.rating_noise[row] == agent.rating_noise
        assert (
            WORKER_TYPE_CODES[subproblem.params.worker_type]
            == columnar.type_codes[row]
        )


def test_round_trip_preserves_population():
    population = _population()
    columnar = ColumnarPopulation.from_population(population)
    rebuilt = columnar.to_population()
    assert [s.subject_id for s in rebuilt.subproblems] == [
        s.subject_id for s in population.subproblems
    ]
    for original, copy in zip(population.subproblems, rebuilt.subproblems):
        assert original.effort_function == copy.effort_function
        assert original.params == copy.params
        assert original.feedback_weight == copy.feedback_weight
        assert original.max_effort == copy.max_effort
        assert original.member_ids == copy.member_ids
    assert rebuilt.weights == population.weights
    assert rebuilt.malice == population.malice
    for subject_id, agent in population.agents.items():
        twin = rebuilt.agents[subject_id]
        assert type(twin) is type(agent)
        assert twin.params == agent.params
        assert twin.effort_function == agent.effort_function


def test_lazy_agents_share_archetype_objects():
    columnar = ColumnarPopulation.from_population(_population())
    agents = columnar.agents
    subproblems = columnar.subproblems
    # Archetype-mates share one psi/params object pair (SoA dedup).
    by_code = {}
    for row, code in enumerate(columnar.archetype_codes.tolist()):
        subproblem = subproblems[row]
        if code in by_code:
            reference = by_code[code]
            assert subproblem.effort_function is reference.effort_function
            assert subproblem.params is reference.params
        else:
            by_code[code] = subproblem
    # The lazy mapping builds each agent once and caches it.
    subject_id = columnar.subject_id(0)
    assert agents[subject_id] is agents[subject_id]
    assert len(agents) == columnar.n_subjects
    assert set(iter(agents)) == set(columnar.subject_ids())


def test_synthetic_columnar_matches_object_builder():
    population = synthetic_population(
        n_subjects=40, n_archetypes=8, seed=11, feedback_noise=0.0
    )
    columnar = synthetic_columnar(n_subjects=40, n_archetypes=8, seed=11)
    assert columnar.n_subjects == 40
    for row, subproblem in enumerate(population.subproblems):
        assert columnar.r2[row] == subproblem.effort_function.r2
        assert columnar.r1[row] == subproblem.effort_function.r1
        assert columnar.r0[row] == subproblem.effort_function.r0
        assert columnar.beta[row] == subproblem.params.beta
        assert columnar.omega[row] == subproblem.params.omega
        assert columnar.design_weight[row] == subproblem.feedback_weight
        assert (
            WORKER_TYPE_CODES[subproblem.params.worker_type]
            == columnar.type_codes[row]
        )


def test_strategic_agents_pack_as_phase_rows():
    population = _population()
    subject_id = population.subproblems[0].subject_id
    agent = population.agents[subject_id]
    population.agents[subject_id] = CamouflagedWorker(
        worker_id=subject_id,
        effort_function=agent.effort_function,
        beta=agent.params.beta,
        omega=0.5,
        rating_bias=2.0,
        attack_round=3,
    )
    columnar = ColumnarPopulation.from_population(population)
    assert columnar.phases is not None
    assert columnar.phases.rows.tolist() == [0]
    # Design columns keep the subproblem; behaviour starts honest.
    assert columnar.omega[0] == population.subproblems[0].params.omega
    assert columnar.act_omega[0] == 0.0
    assert columnar.rating_bias[0] == 0.0
    assert not columnar.behaviour_at(2)
    assert columnar.behaviour_at(3)
    assert columnar.act_omega[0] == 0.5
    assert columnar.rating_bias[0] == 2.0
    assert not columnar.behaviour_at(9)
    # The stationary rows never move.
    assert np.array_equal(columnar.act_omega[1:], columnar.omega[1:])

    population.agents[subject_id] = CamouflagedWorker(
        worker_id=subject_id,
        effort_function=agent.effort_function,
        beta=agent.params.beta + 0.5,
    )
    with pytest.raises(ModelError, match="beta"):
        ColumnarPopulation.from_population(population)


@settings(max_examples=30, deadline=None)
@given(
    round_index=st.integers(min_value=0, max_value=40),
    attack_round=st.integers(min_value=0, max_value=12),
    honest_rounds=st.integers(min_value=1, max_value=4),
    attack_rounds=st.integers(min_value=1, max_value=4),
    omega=st.floats(min_value=0.05, max_value=2.0),
    bias=st.floats(min_value=0.0, max_value=3.0),
)
def test_behaviour_at_matches_on_round(
    round_index, attack_round, honest_rounds, attack_rounds, omega, bias
):
    """A packed strategic row after ``behaviour_at(r)`` acts exactly like
    its agent after ``on_round(r)``: same params, same current rating
    bias, same best response — through the lazy agent and the kernel."""
    population = _population(n=8, feedback_noise=0.0)
    ids = [s.subject_id for s in population.subproblems]
    references = {}
    for index, factory in enumerate(
        (
            lambda sid, old: CamouflagedWorker(
                worker_id=sid,
                effort_function=old.effort_function,
                beta=old.params.beta,
                omega=omega,
                rating_bias=bias,
                attack_round=attack_round,
            ),
            lambda sid, old: IntermittentWorker(
                worker_id=sid,
                effort_function=old.effort_function,
                beta=old.params.beta,
                omega=omega,
                rating_bias=bias,
                honest_rounds=honest_rounds,
                attack_rounds=attack_rounds,
            ),
        )
    ):
        subject_id = ids[index]
        population.agents[subject_id] = factory(
            subject_id, population.agents[subject_id]
        )
        references[subject_id] = factory(subject_id, population.agents[subject_id])
    columnar = ColumnarPopulation.from_population(population)
    columnar.behaviour_at(round_index)
    assignment = DynamicContractPolicy(mu=1.0).contracts_columnar(columnar)
    for subject_id, reference in references.items():
        reference.on_round(round_index)
        row = columnar.index_of(subject_id)
        lazy = columnar.agents[subject_id]
        assert lazy.params == reference.params
        assert lazy.rating_bias_now == reference.rating_bias_now
        assert columnar.rating_bias[row] == reference.rating_bias_now
        contract = assignment.contracts[int(assignment.codes[row])]
        expected = reference.respond(contract)
        assert lazy.respond(contract) == expected
        rows = np.array([row])
        efforts, feedback = columnar.respond_unique(
            assignment.contracts,
            assignment.codes[rows],
            columnar.response_codes[rows],
        )
        assert efforts[0] == expected.effort
        assert feedback[0] == float(reference.effort_function(expected.effort))


def test_collusive_round_trip():
    psi = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
    params = WorkerParameters.malicious(beta=1.0, omega=0.4, collusive=True)
    members = ("m1", "m2", "m3")
    community = CollusiveCommunity(
        community_id="c0",
        member_ids=members,
        effort_function=psi,
        beta=1.0,
        omega=0.4,
        rating_bias=2.0,
    )
    honest = HonestWorker(worker_id="h0", effort_function=psi, beta=1.2)
    subproblems = [
        Subproblem(
            subject_id="c0",
            effort_function=psi,
            params=params,
            feedback_weight=1.5,
            member_ids=members,
        ),
        Subproblem(
            subject_id="h0",
            effort_function=psi,
            params=WorkerParameters.honest(beta=1.2),
            feedback_weight=1.0,
        ),
    ]
    population = PopulationModel(
        subproblems=subproblems,
        agents={"c0": community, "h0": honest},
        weights={"c0": 1.5, "h0": 1.0},
        class_functions=ClassEffortFunctions(
            honest=psi, noncollusive=psi, collusive_member=psi
        ),
        malice={"c0": 1.0, "h0": 0.0},
    )
    columnar = ColumnarPopulation.from_population(population)
    assert int(columnar.n_members[0]) == 3
    assert int(columnar.n_members[1]) == 1
    rebuilt = columnar.to_population()
    twin = rebuilt.agents["c0"]
    assert isinstance(twin, CollusiveCommunity)
    assert twin.member_ids == members
    assert rebuilt.subproblems[0].member_ids == members
    assert (
        rebuilt.subproblems[0].params.worker_type
        is WorkerType.COLLUSIVE_MALICIOUS
    )


def test_max_effort_nan_round_trip():
    population = _population()
    assert any(s.max_effort is not None for s in population.subproblems)
    columnar = ColumnarPopulation.from_population(population)
    rebuilt = columnar.to_population()
    for original, copy in zip(population.subproblems, rebuilt.subproblems):
        assert original.max_effort == copy.max_effort


def test_archetype_grouping_is_exact():
    columnar = synthetic_columnar(n_subjects=50, n_archetypes=6, seed=2)
    codes = columnar.archetype_codes
    matrix = columnar.design_matrix()
    for code in np.unique(codes):
        rows = np.flatnonzero(codes == code)
        assert np.all(matrix[rows] == matrix[rows[0]])
    # Distinct codes differ in at least one design column.
    representatives = columnar.archetype_representatives
    for a in range(len(representatives)):
        for b in range(a + 1, len(representatives)):
            assert not np.array_equal(
                matrix[representatives[a]], matrix[representatives[b]]
            )


def _assert_archetypes_match_oracle(columnar):
    representatives, codes = unique_rows(columnar.design_matrix())
    assert np.array_equal(columnar.archetype_codes, codes)
    assert np.array_equal(columnar.archetype_representatives, representatives)


def _mixed_columnar():
    """A packed population with a collusive community and capless rows."""
    population = _population(n=12, seed=5)
    subproblems = list(population.subproblems)
    for row in (1, 4, 7):
        subproblems[row] = dataclasses.replace(subproblems[row], max_effort=None)
    old = subproblems[2]
    members = ("m1", "m2", "m3")
    subproblems[2] = dataclasses.replace(
        old,
        params=WorkerParameters.malicious(
            beta=old.params.beta, omega=0.4, collusive=True
        ),
        member_ids=members,
    )
    population.agents[old.subject_id] = CollusiveCommunity(
        community_id=old.subject_id,
        member_ids=members,
        effort_function=old.effort_function,
        beta=old.params.beta,
        omega=0.4,
        rating_bias=2.0,
    )
    population.subproblems = subproblems
    return ColumnarPopulation.from_population(population)


#: Values an update may write per design column.  Fitted r2 lies in
#: [-1.2, -0.3], so -2.0 and -0.2 open archetypes that sort first and
#: last; zeros of both signs and NaN ("no cap") compare by value.
_UPDATE_VALUES = {
    "r2": [-2.0, -0.8, -0.2],
    "r1": [6.0, 10.0, 14.0],
    "r0": [-0.0, 0.0, 1.0],
    "beta": [0.8, 1.0, 1.5],
    "omega": [-0.0, 0.0, 0.3],
    "design_weight": [-0.0, 0.0, 0.7, 1.9],
    "max_effort": [float("nan"), 2.0, 5.0],
}
#: Columns the behaviour side reads: with no act_omega column of its
#: own, a population's subjects act on the design omega.
_BEHAVIOUR_COLUMNS = ("beta", "omega")


@st.composite
def _design_updates(draw, n_subjects, n_updates):
    updates = []
    for _ in range(n_updates):
        name = draw(st.sampled_from(sorted(_UPDATE_VALUES)))
        # None moves every holder of one archetype, which then vanishes.
        rows = draw(
            st.none()
            | st.lists(
                st.integers(0, n_subjects - 1), min_size=1, max_size=n_subjects,
                unique=True,
            )
        )
        values = draw(
            st.lists(
                st.sampled_from(_UPDATE_VALUES[name]),
                min_size=n_subjects, max_size=n_subjects,
            )
        )
        updates.append((name, rows, draw(st.integers(0, 3)), values))
    return updates


def _apply(columnar, update):
    name, rows, archetype, values = update
    if rows is None:
        codes = columnar.archetype_codes
        rows = np.flatnonzero(codes == archetype % (int(codes.max()) + 1))
    values = np.asarray(values)
    if name == "omega":
        # Malicious workers need omega > 0; honest ones keep a zero.
        honest = columnar.type_codes == WORKER_TYPE_CODES[WorkerType.HONEST]
        values = np.where(honest, np.copysign(0.0, values), np.abs(values) + 0.3)
    column = getattr(columnar, name).copy()
    column[rows] = values[rows]
    columnar.update_design_columns(**{name: column})
    return name


def test_update_design_columns_invalidates_archetypes():
    columnar = synthetic_columnar(n_subjects=20, n_archetypes=4, seed=9)
    before = columnar.archetype_codes.copy()
    weights = columnar.design_weight.copy()
    weights[3] = weights[3] + 10.0
    columnar.update_design_columns(design_weight=weights)
    after = columnar.archetype_codes
    assert columnar.design_weight[3] == weights[3]
    # Row 3 now sits in its own archetype; everyone else may re-code but
    # must keep their grouping structure.
    assert np.count_nonzero(after == after[3]) == 1
    assert before.shape == after.shape
    _assert_archetypes_match_oracle(columnar)


@settings(max_examples=60, deadline=None)
@given(
    mixed=st.booleans(),
    updates=_design_updates(n_subjects=12, n_updates=6),
)
def test_incremental_archetypes_match_the_oracle(mixed, updates):
    """After any sequence of column updates, the incrementally derived
    codes and representatives equal ``unique_rows`` over the whole
    design matrix, and the response codes survive design-only updates."""
    columnar = (
        _mixed_columnar() if mixed
        else synthetic_columnar(n_subjects=12, n_archetypes=4, seed=9)
    )
    _assert_archetypes_match_oracle(columnar)
    for update in updates:
        response_codes = columnar.response_codes
        name = _apply(columnar, update)
        _assert_archetypes_match_oracle(columnar)
        if name in _BEHAVIOUR_COLUMNS:
            fresh = columnar.with_design_weight(columnar.design_weight)
            assert np.array_equal(columnar.response_codes, fresh.response_codes)
        else:
            assert columnar.response_codes is response_codes


@settings(max_examples=8, deadline=None)
@given(updates=_design_updates(n_subjects=12, n_updates=4))
def test_incremental_archetypes_replay_under_invariants(updates):
    """Five rounds over random design updates, with every round replayed
    through the legacy loop and every derivation checked against the
    oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, "1")
        columnar = _mixed_columnar()
        simulation = MarketplaceSimulation(
            columnar, RequesterObjective(), DynamicContractPolicy(mu=1.0), seed=4
        )
        simulation.step()
        for update in updates:
            _apply(columnar, update)
            simulation.step()
    assert simulation.ledger.n_rounds == 5


def test_archetype_contract_rejects_drift():
    columnar = synthetic_columnar(n_subjects=20, n_archetypes=4, seed=9)
    reference = unique_rows(columnar.design_matrix())
    require_archetypes_agree(
        (columnar.archetype_representatives, columnar.archetype_codes), reference
    )
    drifted = columnar.archetype_codes.copy()
    drifted[0] = (drifted[0] + 1) % columnar.n_archetypes
    with pytest.raises(InvariantViolation, match="codes"):
        require_archetypes_agree(
            (columnar.archetype_representatives, drifted), reference
        )


def _store_columns(columnar, **overrides):
    """Constructor arguments that rebuild ``columnar``, with overrides."""
    names = (
        "r2", "r1", "r0", "act_r2", "act_r1", "act_r0", "beta", "omega",
        "design_weight", "eval_weight", "max_effort", "type_codes", "e_mal",
        "feedback_noise", "rating_noise", "rating_bias", "n_members",
        "community_ids", "communities",
    )
    columns = {name: getattr(columnar, name) for name in names}
    columns.update(overrides)
    return columns


def test_omega_must_agree_with_the_worker_type():
    """An honest row with omega 0.3 was booked through ``act_omega`` by
    the kernel while the oracle acted with 0; a malicious row with
    -0.0 failed only when its lazy agent was built.  The store refuses
    both, in the constructor and in ``update_design_columns``."""
    columnar = synthetic_columnar(n_subjects=200, n_archetypes=8, seed=4)
    honest = columnar.type_codes == WORKER_TYPE_CODES[WorkerType.HONEST]
    first_honest = int(np.flatnonzero(honest)[0])
    first_malicious = int(np.flatnonzero(~honest)[0])
    original = columnar.omega.copy()
    for row, value in (
        (first_honest, 0.3),
        (first_honest, np.nan),
        (first_malicious, -0.0),
        (first_malicious, 0.0),
        (first_malicious, np.nan),
        (first_malicious, -0.2),
    ):
        omega = original.copy()
        omega[row] = value
        with pytest.raises(ModelError, match=f"omega .* on row {row}"):
            columnar.update_design_columns(omega=omega)
        with pytest.raises(ModelError, match=f"omega .* on row {row}"):
            ColumnarPopulation(**_store_columns(columnar, omega=omega))
    # A refused update changes nothing.
    assert columnar.omega.tobytes() == original.tobytes()
    # An honest -0.0 is a zero, and updates without omega skip the check.
    omega = original.copy()
    omega[first_honest] = -0.0
    columnar.update_design_columns(omega=omega)
    columnar.update_design_columns(design_weight=columnar.design_weight + 1.0)
    ColumnarPopulation(**_store_columns(columnar))


def test_index_of_unknown_subject():
    columnar = synthetic_columnar(n_subjects=5, n_archetypes=2, seed=0)
    assert columnar.index_of(columnar.subject_id(3)) == 3
    with pytest.raises(ModelError):
        columnar.index_of("nope")
