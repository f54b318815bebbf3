"""StreamingLedger: streamed aggregates equal the eager ledger's."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import RequesterObjective
from repro.errors import SimulationError
from repro.simulation import (
    DynamicContractPolicy,
    FixedPaymentPolicy,
    MarketplaceSimulation,
    OutcomeSpill,
    SimulationLedger,
    StreamingHistogram,
    StreamingLedger,
    require_ledger_views_agree,
)
from repro.simulation.streaming import SPILL_DTYPE
from repro.types import WorkerType
from repro.workers import synthetic_population
from repro.workers.columnar import ColumnarPopulation


def _run_pair(n_subjects, seed, n_rounds, lagged, spill_path=None):
    """One eager object run and one streamed columnar run, same seed."""

    def population():
        return synthetic_population(
            n_subjects=n_subjects,
            n_archetypes=min(4, n_subjects),
            seed=seed,
            feedback_noise=0.3,
        )

    def policy():
        return DynamicContractPolicy(mu=1.0)

    eager = MarketplaceSimulation(
        population(),
        RequesterObjective(),
        policy(),
        seed=seed,
        lagged_payment=lagged,
    ).run(n_rounds)
    spill = OutcomeSpill(spill_path) if spill_path is not None else None
    streaming = StreamingLedger(spill=spill)
    MarketplaceSimulation(
        ColumnarPopulation.from_population(population()),
        RequesterObjective(),
        policy(),
        seed=seed,
        lagged_payment=lagged,
        ledger=streaming,
    ).run(n_rounds)
    assert isinstance(eager, SimulationLedger)
    return streaming, eager


@settings(max_examples=12, deadline=None)
@given(
    n_subjects=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=50),
    n_rounds=st.integers(min_value=1, max_value=5),
    lagged=st.booleans(),
)
def test_streamed_aggregates_equal_eager(n_subjects, seed, n_rounds, lagged):
    """Hypothesis property: on random small runs, every streamed view
    (series, per-type compensation, effort means, quantiles) matches the
    eager ledger computed from full per-subject outcomes."""
    streaming, eager = _run_pair(n_subjects, seed, n_rounds, lagged)
    require_ledger_views_agree(streaming, eager, quantiles=(0.25, 0.5, 0.9))
    assert streaming.n_rounds == eager.n_rounds
    assert np.array_equal(streaming.utility_series(), eager.utility_series())
    assert np.array_equal(
        streaming.cumulative_utility(), eager.cumulative_utility()
    )
    assert streaming.total_utility() == eager.total_utility()
    assert streaming.summary() == eager.summary()
    assert streaming.mean_reuse_rate() == eager.mean_reuse_rate()
    for worker_type in WorkerType:
        assert np.array_equal(
            streaming.compensation_by_type(worker_type)[worker_type],
            eager.compensation_by_type(worker_type)[worker_type],
        )


def test_spill_makes_views_exact(tmp_path):
    streaming, eager = _run_pair(
        10, seed=4, n_rounds=5, lagged=True, spill_path=tmp_path / "spill.bin"
    )
    require_ledger_views_agree(streaming, eager, quantiles=(0.0, 0.5, 1.0))
    # With a spill the run-level effort means and quantiles are exact.
    assert streaming.mean_effort_by_type() == eager.mean_effort_by_type()
    values = np.array(
        [
            outcome.per_member_compensation
            for record in eager.records
            for outcome in record.outcomes.values()
        ]
    )
    for q in (0.0, 0.1, 0.5, 0.99, 1.0):
        assert streaming.compensation_quantile(q) == float(
            np.quantile(values, q)
        )
    streaming.close()


def test_spill_round_trip(tmp_path):
    path = tmp_path / "outcomes.bin"
    spill = OutcomeSpill(path, buffer_rounds=2)
    rounds = []
    rng = np.random.default_rng(0)
    for _ in range(5):
        rows = np.zeros(7, dtype=SPILL_DTYPE)
        rows["effort"] = rng.random(7)
        rows["feedback"] = rng.random(7)
        rows["compensation"] = rng.random(7)
        rows["rating_deviation"] = rng.random(7)
        rows["worker_utility"] = rng.standard_normal(7)
        rows["excluded"] = rng.random(7) < 0.3
        spill.append_round(rows)
        rounds.append(rows.copy())
    assert spill.n_rounds == 5
    assert spill.n_subjects == 7
    history = spill.as_array()
    assert history.shape == (5, 7)
    for index, rows in enumerate(rounds):
        assert np.array_equal(history[index], rows)
        assert np.array_equal(spill.round_outcomes(index), rows)
    spill.close()
    spill.close()  # idempotent
    with pytest.raises(SimulationError):
        spill.append_round(rounds[0])
    # The file itself round-trips without the writer object.
    reloaded = np.fromfile(path, dtype=SPILL_DTYPE).reshape(5, 7)
    for index, rows in enumerate(rounds):
        assert np.array_equal(reloaded[index], rows)


def test_spill_rejects_ragged_rounds(tmp_path):
    spill = OutcomeSpill(tmp_path / "ragged.bin")
    spill.append_round(np.zeros(3, dtype=SPILL_DTYPE))
    with pytest.raises(SimulationError, match="3 subjects"):
        spill.append_round(np.zeros(4, dtype=SPILL_DTYPE))


def test_object_mode_absorption():
    """A streaming ledger fed plain object-path records (no staged
    arrays) reduces record.outcomes itself."""
    population = synthetic_population(
        n_subjects=8, n_archetypes=3, seed=6, feedback_noise=0.3
    )
    eager_sim = MarketplaceSimulation(
        population,
        RequesterObjective(),
        FixedPaymentPolicy(pay_per_member=0.4),
        seed=2,
    )
    eager = eager_sim.run(4)
    assert isinstance(eager, SimulationLedger)
    streaming = StreamingLedger()
    for record in eager.records:
        streaming.append(record)
    require_ledger_views_agree(streaming, eager, quantiles=(0.5,))


def test_append_enforces_round_order():
    population = synthetic_population(
        n_subjects=4, n_archetypes=2, seed=1, feedback_noise=0.0
    )
    ledger = MarketplaceSimulation(
        population,
        RequesterObjective(),
        FixedPaymentPolicy(pay_per_member=0.4),
        seed=2,
    ).run(2)
    assert isinstance(ledger, SimulationLedger)
    streaming = StreamingLedger()
    with pytest.raises(SimulationError, match="expected round 0"):
        streaming.append(ledger.records[1])


def test_histogram_quantile_error_bounded():
    histogram = StreamingHistogram(n_bins=32)
    rng = np.random.default_rng(5)
    batches = [rng.random(50) * scale for scale in (1.0, 4.0, 16.0)]
    for batch in batches:
        histogram.observe(batch)
    merged = np.concatenate(batches)
    for q in (0.1, 0.5, 0.9):
        approx = histogram.quantile(q)
        exact = float(np.quantile(merged, q, method="inverted_cdf"))
        assert abs(approx - exact) <= histogram.bin_width + 1e-12
    with pytest.raises(SimulationError):
        histogram.quantile(1.5)
    with pytest.raises(SimulationError):
        StreamingHistogram(n_bins=3)


def test_empty_ledger_views():
    streaming = StreamingLedger()
    assert streaming.n_rounds == 0
    assert streaming.total_utility() == 0.0
    assert streaming.mean_reuse_rate() is None
    assert streaming.cache_hit_rate() is None
    assert streaming.summary()["n_rounds"] == 0.0
    with pytest.raises(SimulationError):
        streaming.compensation_quantile(0.5)
