"""Sharded parallel round engine: bit-identity, faults, lifecycle.

The contract is exact: :func:`parallel_columnar_step` over any shard
count must reproduce :func:`fast_columnar_step` bit for bit — same
output columns, same reductions, same mutation of the lagged-feedback
column, same generator advancement — because the coordinator draws the
single pinned-order noise block and shards consume contiguous slices of
it.  A SIGKILLed worker must not change a single bit either: its slice
is recomputed inline over the same shared arrays.
"""

from __future__ import annotations

import gc
import os
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import RequesterObjective
from repro.errors import SimulationError
from repro.simulation import (
    DynamicContractPolicy,
    MarketplaceSimulation,
    SimulationLedger,
    require_ledgers_agree,
)
from repro.simulation.engine import fast_columnar_step
from repro.simulation.parallel import (
    SHM_NAME_PREFIX,
    ParallelRoundEngine,
    parallel_columnar_step,
    require_parallel_steps_agree,
)
from repro.workers import CamouflagedWorker, synthetic_population
from repro.workers.columnar import ColumnarPopulation, synthetic_columnar

N_SUBJECTS = 97
SEED = 21

_RESULT_COLUMNS = (
    "active",
    "efforts",
    "feedback",
    "compensation",
    "rating_deviation",
    "worker_utility",
)


def _columnar(n_subjects: int = N_SUBJECTS, seed: int = SEED) -> ColumnarPopulation:
    return synthetic_columnar(
        n_subjects,
        n_archetypes=min(7, n_subjects),
        seed=seed,
        malicious_fraction=0.25,
        feedback_noise=0.3,
        rating_noise=0.35,
    )


def _round_inputs(columnar: ColumnarPopulation):
    assignment = DynamicContractPolicy(mu=1.0).contracts_columnar(
        columnar
    )
    excluded = np.zeros(columnar.n_subjects, dtype=bool)
    excluded[::13] = True
    return assignment, excluded


def _sequential_rounds(columnar, assignment, excluded, lagged, n_rounds, seed=3):
    rng = np.random.default_rng(seed)
    previous = np.zeros(columnar.n_subjects)
    return [
        fast_columnar_step(columnar, assignment, excluded, previous, lagged, rng)
        for _ in range(n_rounds)
    ], previous


def _parallel_rounds(engine, columnar, assignment, excluded, lagged, n_rounds, seed=3):
    rng = np.random.default_rng(seed)
    previous = np.zeros(columnar.n_subjects)
    return [
        parallel_columnar_step(
            columnar, assignment, excluded, previous, lagged, rng, engine
        )
        for _ in range(n_rounds)
    ], previous


def _shm_segments() -> list:
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux fallback
        return []
    return sorted(root.glob(f"{SHM_NAME_PREFIX}-*"))


@pytest.mark.parametrize("lagged", [False, True])
@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_parallel_step_bit_identical(n_workers, lagged):
    """Any shard count reproduces the sequential kernel bit for bit,
    round after round, including the lagged-feedback column mutation."""
    columnar = _columnar()
    assignment, excluded = _round_inputs(columnar)
    reference, reference_previous = _sequential_rounds(
        columnar, assignment, excluded, lagged, n_rounds=3
    )
    with ParallelRoundEngine(columnar, n_workers=n_workers) as engine:
        produced, produced_previous = _parallel_rounds(
            engine, columnar, assignment, excluded, lagged, n_rounds=3
        )
        assert engine.n_workers == min(n_workers, columnar.n_subjects)
        assert not engine.degraded
    for parallel_result, sequential_result in zip(produced, reference):
        require_parallel_steps_agree(parallel_result, sequential_result)
    assert np.array_equal(produced_previous, reference_previous)


def test_shard_edges_cover_all_rows():
    columnar = _columnar()
    with ParallelRoundEngine(columnar, n_workers=3) as engine:
        edges = engine.shard_edges
        assert edges[0] == 0
        assert edges[-1] == columnar.n_subjects
        assert list(edges) == sorted(edges)
        assert len(engine.worker_pids()) == engine.n_workers


@settings(max_examples=8, deadline=None)
@given(
    n_workers=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=5),
)
def test_parallel_step_bit_identical_property(n_workers, seed):
    """Hypothesis property: shard count and population seed never leak
    into the outputs — one round, exact equality of every column."""
    columnar = _columnar(n_subjects=41, seed=seed)
    assignment, excluded = _round_inputs(columnar)
    reference, _ = _sequential_rounds(
        columnar, assignment, excluded, True, n_rounds=1, seed=seed
    )
    with ParallelRoundEngine(columnar, n_workers=n_workers) as engine:
        produced, _ = _parallel_rounds(
            engine, columnar, assignment, excluded, True, n_rounds=1, seed=seed
        )
    require_parallel_steps_agree(produced[0], reference[0])


def test_all_excluded_round_short_circuits():
    """A fully excluded round returns zeros without touching the pool."""
    columnar = _columnar(n_subjects=11)
    assignment, _ = _round_inputs(columnar)
    excluded = np.ones(columnar.n_subjects, dtype=bool)
    rng = np.random.default_rng(0)
    state_before = rng.bit_generator.state
    with ParallelRoundEngine(columnar, n_workers=2) as engine:
        result = parallel_columnar_step(
            columnar,
            assignment,
            excluded,
            np.zeros(columnar.n_subjects),
            False,
            rng,
            engine,
        )
    assert not result.active.any()
    assert result.benefit == 0.0
    assert result.total_compensation == 0.0
    # No active rows -> no draws consumed; the generator is untouched.
    assert rng.bit_generator.state == state_before


def _simulation(population, round_workers=None):
    return MarketplaceSimulation(
        population,
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0),
        seed=7,
        lagged_payment=True,
        round_workers=round_workers,
    )


def test_simulation_round_workers_bit_identical(monkeypatch):
    """`MarketplaceSimulation(round_workers=w)` equals the sequential
    engine ledger-for-ledger, cross-checked by the in-path
    `require_parallel_steps_agree` contract every round."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    n_workers = int(os.environ.get("REPRO_PARALLEL_WORKERS", "2"))
    reference = _simulation(_columnar()).run(3)
    simulation = _simulation(_columnar(), round_workers=n_workers)
    try:
        produced = simulation.run(3)
    finally:
        simulation.close()
    assert isinstance(produced, SimulationLedger)
    assert isinstance(reference, SimulationLedger)
    require_ledgers_agree(produced, reference)


def test_simulation_round_workers_matches_object_path():
    """The sharded engine on a pre-packed population agrees with the
    sequential engine on the object population it was packed from."""
    reference = MarketplaceSimulation(
        synthetic_population(
            n_subjects=14, n_archetypes=5, seed=SEED, feedback_noise=0.3
        ),
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0),
        seed=7,
    ).run(4)
    columnar = ColumnarPopulation.from_population(
        synthetic_population(
            n_subjects=14, n_archetypes=5, seed=SEED, feedback_noise=0.3
        )
    )
    with _simulation_context(columnar, round_workers=2) as simulation:
        produced = simulation.run(4)
    require_ledgers_agree(produced, reference)


def _simulation_context(population, round_workers):
    simulation = MarketplaceSimulation(
        population,
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0),
        seed=7,
        round_workers=round_workers,
    )
    return simulation


def test_sigkilled_worker_falls_back_bit_identically():
    """SIGKILL a shard mid-sequence: the engine retires it, recomputes
    its slice inline over the same arrays, reports `degraded`, and every
    subsequent round stays bit-identical to the sequential kernel."""
    columnar = _columnar()
    assignment, excluded = _round_inputs(columnar)
    reference, _ = _sequential_rounds(
        columnar, assignment, excluded, True, n_rounds=3
    )
    rng = np.random.default_rng(3)
    previous = np.zeros(columnar.n_subjects)
    with ParallelRoundEngine(columnar, n_workers=3) as engine:
        first = parallel_columnar_step(
            columnar, assignment, excluded, previous, True, rng, engine
        )
        require_parallel_steps_agree(first, reference[0])
        victim = engine.worker_pids()[1]
        os.kill(victim, signal.SIGKILL)
        # The killed child stays a zombie until the engine reaps it; the
        # shard pipe reports EOF regardless, which is what run_round
        # detects.  A short pause lets the signal land.
        time.sleep(0.2)
        for sequential_result in reference[1:]:
            produced = parallel_columnar_step(
                columnar, assignment, excluded, previous, True, rng, engine
            )
            require_parallel_steps_agree(produced, sequential_result)
        assert engine.degraded
    assert not _shm_segments()


def test_close_unlinks_segment_and_is_idempotent():
    columnar = _columnar(n_subjects=13)
    engine = ParallelRoundEngine(columnar, n_workers=2)
    name = engine.segment_name
    assert any(name in str(path) for path in _shm_segments())
    engine.close()
    engine.close()
    assert not any(name in str(path) for path in _shm_segments())
    with pytest.raises(SimulationError, match="closed"):
        engine.run_round(
            columnar,
            _round_inputs(columnar)[0],
            np.zeros(13, dtype=bool),
            np.zeros(13),
            False,
            np.zeros(13, dtype=bool),
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            0,
            None,
        )


def test_finalizer_unlinks_segment_on_gc():
    engine = ParallelRoundEngine(_columnar(n_subjects=9), n_workers=1)
    name = engine.segment_name
    del engine
    gc.collect()
    assert not any(name in str(path) for path in _shm_segments())


def test_replaced_population_column_fails_loudly():
    """Swapping a behaviour column after the snapshot must raise, not
    silently serve stale columns from the segment."""
    columnar = _columnar(n_subjects=17)
    assignment, excluded = _round_inputs(columnar)
    with ParallelRoundEngine(columnar, n_workers=2) as engine:
        columnar.feedback_noise = columnar.feedback_noise.copy()
        with pytest.raises(SimulationError, match="replaced"):
            parallel_columnar_step(
                columnar,
                assignment,
                excluded,
                np.zeros(columnar.n_subjects),
                False,
                np.random.default_rng(0),
                engine,
            )


def test_different_population_fails_loudly():
    columnar = _columnar(n_subjects=17)
    other = _columnar(n_subjects=17)
    assignment, excluded = _round_inputs(other)
    with ParallelRoundEngine(columnar, n_workers=2) as engine:
        with pytest.raises(SimulationError, match="different population"):
            parallel_columnar_step(
                other,
                assignment,
                excluded,
                np.zeros(17),
                False,
                np.random.default_rng(0),
                engine,
            )


def test_engine_validates_arguments():
    with pytest.raises(SimulationError, match="ColumnarPopulation"):
        ParallelRoundEngine(
            synthetic_population(n_subjects=4, n_archetypes=2, seed=0),
            n_workers=2,
        )
    with pytest.raises(SimulationError, match="n_workers"):
        ParallelRoundEngine(_columnar(n_subjects=4), n_workers=0)
    with pytest.raises(SimulationError, match="round_workers"):
        _simulation(_columnar(n_subjects=4), round_workers=0)
    population = synthetic_population(n_subjects=6, n_archetypes=2, seed=0)
    subject_id = population.subproblems[0].subject_id
    agent = population.agents[subject_id]
    population.agents[subject_id] = CamouflagedWorker(
        worker_id=subject_id,
        effort_function=agent.effort_function,
        beta=agent.params.beta,
    )
    with pytest.raises(SimulationError, match="phase"):
        _simulation(population, round_workers=2)


def test_more_workers_than_subjects_clamps():
    columnar = _columnar(n_subjects=3)
    assignment, excluded = _round_inputs(columnar)
    reference, _ = _sequential_rounds(
        columnar, assignment, excluded, False, n_rounds=1
    )
    with ParallelRoundEngine(columnar, n_workers=8) as engine:
        assert engine.n_workers == 3
        produced, _ = _parallel_rounds(
            engine, columnar, assignment, excluded, False, n_rounds=1
        )
    require_parallel_steps_agree(produced[0], reference[0])


def test_require_parallel_steps_agree_reports_divergence():
    columnar = _columnar(n_subjects=9)
    assignment, excluded = _round_inputs(columnar)
    reference, _ = _sequential_rounds(
        columnar, assignment, excluded, False, n_rounds=1
    )
    with ParallelRoundEngine(columnar, n_workers=2) as engine:
        produced, _ = _parallel_rounds(
            engine, columnar, assignment, excluded, False, n_rounds=1
        )
    tampered = produced[0].efforts.copy()
    tampered[4] += 1e-9
    from dataclasses import replace

    with pytest.raises(Exception, match="efforts"):
        require_parallel_steps_agree(
            replace(produced[0], efforts=tampered), reference[0]
        )
