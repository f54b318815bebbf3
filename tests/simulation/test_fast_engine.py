"""The columnar round kernel is bit-identical to the legacy loop.

Runs under ``REPRO_CHECK_INVARIANTS=1`` replay every round through
``legacy_step`` over the lazy object views and compare exactly
(``require_steps_agree``, no tolerance), and their ledgers must equal
the unchecked runs' (``require_ledgers_agree``) — across every policy
shape, payment timing, and — via hypothesis — random populations, seeds
and cadences.  A failure here means the kernel skewed the draw stream,
reordered a reduction, or dropped a subject.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.invariants import InvariantViolation
from repro.core.utility import RequesterObjective
from repro.simulation import (
    AdaptiveDynamicPolicy,
    DynamicContractPolicy,
    ExclusionPolicy,
    FixedPaymentPolicy,
    MarketplaceSimulation,
    RetentionSimulation,
    StepOutcomes,
    require_ledgers_agree,
    require_steps_agree,
)
from repro.workers import synthetic_population


def _ledger(population, policy, checked, lagged=False, n_rounds=4,
            redesign_every=1, seed=7):
    """A run's ledger; ``checked`` replays every round through the oracle."""
    with pytest.MonkeyPatch.context() as patch:
        if checked:
            patch.setenv("REPRO_CHECK_INVARIANTS", "1")
        else:
            patch.delenv("REPRO_CHECK_INVARIANTS", raising=False)
        simulation = MarketplaceSimulation(
            population,
            RequesterObjective(),
            policy,
            seed=seed,
            redesign_every=redesign_every,
            lagged_payment=lagged,
        )
        return simulation.run(n_rounds)


def _policies():
    return [
        ("dynamic", lambda: DynamicContractPolicy(mu=1.0)),
        ("adaptive", lambda: AdaptiveDynamicPolicy(mu=1.0)),
        ("exclusion", lambda: ExclusionPolicy(DynamicContractPolicy(mu=1.0))),
        ("fixed", lambda: FixedPaymentPolicy(pay_per_member=1.0)),
    ]


@pytest.mark.parametrize(
    "make_policy", [p for _, p in _policies()], ids=[n for n, _ in _policies()]
)
@pytest.mark.parametrize("lagged", [False, True])
def test_fast_matches_legacy_per_policy(make_policy, lagged):
    population = synthetic_population(
        30, n_archetypes=5, seed=4, feedback_noise=0.3
    )
    fast = _ledger(population, make_policy(), True, lagged=lagged)
    legacy = _ledger(population, make_policy(), False, lagged=lagged)
    require_ledgers_agree(fast, legacy)


def test_retention_departures_match():
    population = synthetic_population(
        25, n_archetypes=4, seed=6, feedback_noise=0.25
    )

    def run(checked):
        with pytest.MonkeyPatch.context() as patch:
            if checked:
                patch.setenv("REPRO_CHECK_INVARIANTS", "1")
            simulation = RetentionSimulation(
                population,
                RequesterObjective(),
                FixedPaymentPolicy(pay_per_member=0.05),
                seed=3,
            )
            ledger = simulation.run(5)
        return ledger, simulation.departed

    fast, fast_departed = run(True)
    legacy, legacy_departed = run(False)
    require_ledgers_agree(fast, legacy)
    assert fast_departed == legacy_departed
    assert fast_departed  # the flat underpayment must bleed workers


def test_require_ledgers_agree_rejects_tampering():
    population = synthetic_population(10, n_archetypes=3, seed=1)
    ledger = _ledger(population, DynamicContractPolicy(mu=1.0), True)
    other = _ledger(population, DynamicContractPolicy(mu=1.0), True, seed=8)
    with pytest.raises(InvariantViolation):
        require_ledgers_agree(ledger, other)


def test_require_steps_agree_rejects_subject_mismatch():
    population = synthetic_population(6, n_archetypes=2, seed=1)
    ledger = _ledger(population, DynamicContractPolicy(mu=1.0), True, n_rounds=1)
    record = ledger.records[0]
    full = StepOutcomes(
        outcomes=record.outcomes,
        benefit=record.benefit,
        total_compensation=record.total_compensation,
    )
    partial = StepOutcomes(
        outcomes={
            k: v for i, (k, v) in enumerate(record.outcomes.items()) if i
        },
        benefit=record.benefit,
        total_compensation=record.total_compensation,
    )
    with pytest.raises(InvariantViolation):
        require_steps_agree(partial, full)


@settings(max_examples=25, deadline=None)
@given(
    n_subjects=st.integers(min_value=3, max_value=24),
    population_seed=st.integers(min_value=0, max_value=50),
    engine_seed=st.integers(min_value=0, max_value=50),
    feedback_noise=st.sampled_from([0.0, 0.2, 0.6]),
    rating_noise=st.sampled_from([0.0, 0.35]),
    lagged=st.booleans(),
    redesign_every=st.integers(min_value=1, max_value=3),
    policy_index=st.integers(min_value=0, max_value=3),
)
def test_fast_step_equals_legacy_step_property(
    n_subjects,
    population_seed,
    engine_seed,
    feedback_noise,
    rating_noise,
    lagged,
    redesign_every,
    policy_index,
):
    """Property: the kernel equals the legacy loop over random setups."""
    population = synthetic_population(
        n_subjects,
        n_archetypes=max(2, n_subjects // 3),
        seed=population_seed,
        feedback_noise=feedback_noise,
        rating_noise=rating_noise,
    )
    make_policy = _policies()[policy_index][1]
    fast = _ledger(
        population, make_policy(), True,
        lagged=lagged, n_rounds=3,
        redesign_every=redesign_every, seed=engine_seed,
    )
    legacy = _ledger(
        population, make_policy(), False,
        lagged=lagged, n_rounds=3,
        redesign_every=redesign_every, seed=engine_seed,
    )
    require_ledgers_agree(fast, legacy)


def test_invariants_cross_check_runs_every_fast_round(monkeypatch):
    """Under REPRO_CHECK_INVARIANTS=1 the engine replays the legacy loop
    in-line; a full run passing means every round verified."""
    monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
    population = synthetic_population(
        12, n_archetypes=3, seed=2, feedback_noise=0.4
    )
    ledger = _ledger(
        population, DynamicContractPolicy(mu=1.0), True, lagged=True
    )
    assert ledger.n_rounds == 4
