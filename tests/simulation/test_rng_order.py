"""Seed-reproducibility regression: the engine's RNG draw order is pinned.

The contract (documented in docs/PERFORMANCE.md and relied on for the
kernel/oracle bit-identity): per round, subjects are visited in
``population.subproblems`` order; each active subject consumes its
feedback-noise draw first, then its rating-deviation draw; agents with a
zero noise scale consume nothing for that draw, and excluded subjects
consume nothing at all.  These tests replay the stream with a fresh
generator and reconstruct every realized value — for the columnar
kernel, and with the oracle replay switched on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decomposition import Subproblem
from repro.core.effort import QuadraticEffort
from repro.core.utility import RequesterObjective
from repro.simulation import (
    DynamicContractPolicy,
    ExclusionPolicy,
    MarketplaceSimulation,
)
from repro.types import WorkerParameters
from repro.workers import HonestWorker, MaliciousWorker
from repro.workers.population import ClassEffortFunctions, PopulationModel

SEED = 1234


def _mixed_population() -> PopulationModel:
    """Four subjects exercising every draw pattern.

    s1: honest, draws feedback + rating; s2: honest, rating only;
    s3: malicious, feedback only; s4: malicious, feedback + rating.
    """
    psi = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
    specs = [
        ("s1", False, 0.30, 0.20),
        ("s2", False, 0.00, 0.25),
        ("s3", True, 0.40, 0.00),
        ("s4", True, 0.15, 0.35),
    ]
    subproblems = []
    agents = {}
    malice = {}
    for subject_id, is_malicious, feedback_noise, rating_noise in specs:
        if is_malicious:
            params = WorkerParameters.malicious(beta=1.0, omega=0.5)
            agents[subject_id] = MaliciousWorker(
                worker_id=subject_id,
                effort_function=psi,
                beta=1.0,
                omega=0.5,
                feedback_noise=feedback_noise,
                rating_noise=rating_noise,
            )
        else:
            params = WorkerParameters.honest(beta=1.0)
            agents[subject_id] = HonestWorker(
                worker_id=subject_id,
                effort_function=psi,
                beta=1.0,
                feedback_noise=feedback_noise,
                rating_noise=rating_noise,
            )
        subproblems.append(
            Subproblem(
                subject_id=subject_id,
                effort_function=psi,
                params=params,
                feedback_weight=1.0,
            )
        )
        malice[subject_id] = 1.0 if is_malicious else 0.0
    return PopulationModel(
        subproblems=subproblems,
        agents=agents,
        weights={s.subject_id: 1.0 for s in subproblems},
        class_functions=ClassEffortFunctions(
            honest=psi, noncollusive=psi, collusive_member=psi
        ),
        malice=malice,
    )


def _run(population, policy, invariants=False, n_rounds=3):
    """A run; ``invariants`` also replays each round through the oracle
    from a cloned generator, which must leave the real stream alone."""
    with pytest.MonkeyPatch.context() as patch:
        if invariants:
            patch.setenv("REPRO_CHECK_INVARIANTS", "1")
        return MarketplaceSimulation(
            population, RequesterObjective(), policy, seed=SEED
        ).run(n_rounds)


def _replay_and_check(population, ledger, excluded=frozenset()):
    """Reconstruct every noisy value from a fresh generator in the
    pinned order and demand exact equality with the ledger."""
    rng = np.random.default_rng(SEED)
    for record in ledger.records:
        for subproblem in population.subproblems:
            subject_id = subproblem.subject_id
            agent = population.agents[subject_id]
            outcome = record.outcomes[subject_id]
            if subject_id in excluded:
                assert outcome.excluded
                continue  # excluded subjects consume no draws
            assert not outcome.excluded
            expected = float(agent.effort_function(outcome.effort))
            if agent.needs_feedback_draw:
                draw = float(rng.normal(0.0, agent.feedback_noise))
                assert outcome.feedback == max(expected + draw, 0.0)
            else:
                assert outcome.feedback == max(expected, 0.0)
            if agent.needs_rating_draw:
                draw = float(rng.normal(0.0, agent.rating_noise))
                assert outcome.rating_deviation == abs(
                    agent.rating_bias_now + draw
                )
            else:
                assert outcome.rating_deviation == abs(agent.rating_bias_now)


@pytest.mark.parametrize("invariants", [False, True])
def test_draw_order_all_active(invariants):
    """Feedback-then-rating per subject, subjects in population order."""
    population = _mixed_population()
    ledger = _run(population, DynamicContractPolicy(mu=1.0), invariants)
    _replay_and_check(population, ledger)


@pytest.mark.parametrize("invariants", [False, True])
def test_excluded_subjects_consume_no_draws(invariants):
    """Excluding the malicious half must not shift the honest draws."""
    population = _mixed_population()
    ledger = _run(
        population,
        ExclusionPolicy(DynamicContractPolicy(mu=1.0)),
        invariants,
    )
    _replay_and_check(population, ledger, excluded={"s3", "s4"})


def test_columnar_kernel_consumes_pinned_stream():
    """``fast_columnar_step`` lays out draw slots from the noise columns
    and must reconstruct from a fresh generator exactly like the
    reference loop does when the population was packed up front (the
    other tests let the simulation pack it)."""
    from repro.workers.columnar import ColumnarPopulation

    population = _mixed_population()
    columnar = ColumnarPopulation.from_population(_mixed_population())
    ledger = _run(columnar, DynamicContractPolicy(mu=1.0))
    _replay_and_check(population, ledger)


def test_draw_order_manifest_matches_kernels():
    """analysis/draw_order.toml pins exactly what the kernels consume.

    This is the regression test the manifest names (REPRO011): the
    statically extracted generator-consuming call sites of the kernels
    must equal the manifested sequences, so a new or reordered ``rng.*``
    draw cannot land without editing the manifest — and this file — in
    the same commit.
    """
    import ast
    import inspect
    from pathlib import Path

    import repro.analysis as analysis_pkg
    from repro.analysis.flow import extract_draw_order, load_manifest
    from repro.simulation.engine import fast_columnar_step, legacy_step

    manifest = load_manifest(
        Path(analysis_pkg.__file__).parent / "draw_order.toml"
    )
    assert manifest.regression_test == "tests/simulation/test_rng_order.py"

    kernels = [
        (legacy_step, "simulation/engine.py::legacy_step"),
        (fast_columnar_step, "simulation/engine.py::fast_columnar_step"),
    ]
    assert set(manifest.kernels) == {key for _, key in kernels}
    for kernel, key in kernels:
        node = ast.parse(inspect.getsource(kernel)).body[0]
        extracted = tuple(site.name for site in extract_draw_order(node))
        assert extracted == manifest.kernels[key], key

    # The engine draws exactly these shapes: the kernel one stacked
    # standard-normal block per round; legacy_step a forwarded feedback
    # draw then a forwarded rating draw per subject.
    assert manifest.kernels["simulation/engine.py::legacy_step"] == (
        "realize_feedback",
        "rating_deviation",
    )
    assert manifest.kernels["simulation/engine.py::fast_columnar_step"] == (
        "standard_normal",
    )
