"""StreamingLedger: the ledger with retention off answers like a retaining one."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.utility import RequesterObjective
from repro.errors import SimulationError
from repro.numerics import close
from repro.simulation import (
    DynamicContractPolicy,
    FixedPaymentPolicy,
    MarketplaceSimulation,
    OutcomeSpill,
    SimulationLedger,
    StreamingHistogram,
    StreamingLedger,
)
from repro.simulation.streaming import SPILL_DTYPE
from repro.types import WorkerType
from repro.workers import synthetic_population
from repro.workers.columnar import ColumnarPopulation


def _run_pair(n_subjects, seed, n_rounds, lagged, spill_path=None):
    """One run into a retaining ledger and the same seeded run into a
    bounded one."""

    def population():
        return synthetic_population(
            n_subjects=n_subjects,
            n_archetypes=min(4, n_subjects),
            seed=seed,
            feedback_noise=0.3,
        )

    def policy():
        return DynamicContractPolicy(mu=1.0)

    retaining = MarketplaceSimulation(
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
    assert type(retaining) is SimulationLedger
    return streaming, retaining


def _per_member_compensation(ledger):
    return np.array(
        [
            outcome.per_member_compensation
            for record in ledger.records
            for outcome in record.outcomes.values()
        ]
    )


def _object_views(ledger):
    """Per-type compensation series and effort means computed outcome by
    outcome: the reference the columnar views must match bit for bit."""
    series = {worker_type: [] for worker_type in WorkerType}
    efforts = {worker_type: [] for worker_type in WorkerType}
    for record in ledger.records:
        per_type = {worker_type: [] for worker_type in WorkerType}
        for outcome in record.outcomes.values():
            per_type[outcome.worker_type].append(outcome.per_member_compensation)
            efforts[outcome.worker_type].append(outcome.effort / outcome.n_members)
        for worker_type, values in per_type.items():
            series[worker_type].append(float(np.mean(values)) if values else 0.0)
    return (
        {worker_type: np.array(values) for worker_type, values in series.items()},
        {
            worker_type: float(np.mean(values)) if values else 0.0
            for worker_type, values in efforts.items()
        },
    )


def _assert_series_identical(streaming, retaining):
    assert streaming.n_rounds == retaining.n_rounds
    for view in (
        "utility_series",
        "benefit_series",
        "compensation_series",
        "cumulative_utility",
    ):
        assert np.array_equal(
            getattr(streaming, view)(), getattr(retaining, view)()
        ), view
    assert streaming.total_utility() == retaining.total_utility()
    assert streaming.summary() == retaining.summary()
    assert streaming.mean_reuse_rate() == retaining.mean_reuse_rate()
    assert streaming.cache_hit_rate() == retaining.cache_hit_rate()
    for worker_type in WorkerType:
        assert np.array_equal(
            streaming.compensation_by_type(worker_type)[worker_type],
            retaining.compensation_by_type(worker_type)[worker_type],
        )


@settings(max_examples=12, deadline=None)
@given(
    n_subjects=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=50),
    n_rounds=st.integers(min_value=1, max_value=5),
    lagged=st.booleans(),
)
def test_streamed_aggregates_equal_eager(n_subjects, seed, n_rounds, lagged):
    """Hypothesis property: on random small runs, a retaining ledger's
    views equal the outcome-by-outcome formulas bit for bit, a bounded
    ledger's series match the retaining one's bit for bit, its running
    effort means match at repro.numerics tolerance, and its histogram
    quantiles lie within one bin width of the exact order statistic."""
    streaming, retaining = _run_pair(n_subjects, seed, n_rounds, lagged)
    _assert_series_identical(streaming, retaining)
    series, efforts = _object_views(retaining)
    for worker_type in WorkerType:
        assert np.array_equal(
            retaining.compensation_by_type()[worker_type], series[worker_type]
        )
    assert retaining.mean_effort_by_type() == efforts
    streamed_effort = streaming.mean_effort_by_type()
    for worker_type, exact in retaining.mean_effort_by_type().items():
        assert close(streamed_effort[worker_type], exact)
    values = _per_member_compensation(retaining)
    # The histogram's bound is stated against the empirical inverted
    # CDF (the order statistic itself); linear interpolation can land
    # far from any sample on sparse data.
    width = streaming._histogram.bin_width
    for q in (0.25, 0.5, 0.9):
        reference = float(np.quantile(values, q, method="inverted_cdf"))
        assert abs(streaming.compensation_quantile(q) - reference) <= (
            width + 1e-12
        )
        assert retaining.compensation_quantile(q) == float(
            np.quantile(values, q)
        )


def test_spill_makes_views_exact(tmp_path):
    streaming, retaining = _run_pair(
        10, seed=4, n_rounds=5, lagged=True, spill_path=tmp_path / "spill.bin"
    )
    _assert_series_identical(streaming, retaining)
    # With a spill the run-level effort means and quantiles are exact.
    assert streaming.mean_effort_by_type() == retaining.mean_effort_by_type()
    values = _per_member_compensation(retaining)
    for q in (0.0, 0.1, 0.5, 0.99, 1.0):
        assert streaming.compensation_quantile(q) == float(
            np.quantile(values, q)
        )
        assert streaming.compensation_quantile(
            q
        ) == retaining.compensation_quantile(q)
    streaming.close()


def test_streaming_records_keep_no_columns():
    """The record a bounded ledger keeps (and step returns) holds the
    round's reductions but no per-subject outcomes."""
    simulation = MarketplaceSimulation(
        synthetic_population(n_subjects=6, n_archetypes=2, seed=3),
        RequesterObjective(),
        FixedPaymentPolicy(pay_per_member=0.4),
        seed=2,
        ledger=StreamingLedger(),
    )
    record = simulation.step()
    assert len(record.outcomes) == 0
    assert simulation.ledger.records == (record,)
    assert record.total_compensation > 0.0


def test_spill_round_trip(tmp_path):
    path = tmp_path / "outcomes.bin"
    spill = OutcomeSpill(path)
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
    spill.close()


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


class _SearchHistogram(StreamingHistogram):
    """The oracle: bins every value by ``searchsorted`` over the edges."""

    def _bins(self, values):
        return np.clip(
            np.searchsorted(self.edges, values, side="right") - 1,
            0,
            self.n_bins - 1,
        )


def _edge_probes(edges, picks):
    """Edges at ``picks`` and their neighbouring doubles."""
    chosen = edges[np.asarray(picks) % edges.size]
    return np.concatenate(
        [chosen, np.nextafter(chosen, -np.inf), np.nextafter(chosen, np.inf)]
    )


@settings(max_examples=150, deadline=None)
@given(
    n_bins=st.sampled_from([2, 4, 64]),
    exponent=st.integers(-300, 300),
    negative=st.booleans(),
    spread=st.sampled_from([1.0, 1e-3, 0.0]),
    first=st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=40
    ),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["edges", "below", "double", "fresh"]),
            st.lists(st.integers(0, 10_000), min_size=1, max_size=12),
            st.floats(1.5, 9.0),
        ),
        max_size=5,
    ),
)
# A range a few doubles wide at magnitude 1 and 1e100, where rounded
# edges collapse, and a doubling followed by probes of the new edges.
@example(64, 0, True, 0.0, [0.0, 0.3, 0.7, 1.0], [])
@example(64, 100, True, 0.0, [0.0, 0.3, 0.7, 1.0], [("edges", [1, 7, 33], 2.0)])
@example(4, 2, False, 1.0, [0.5, 1.0], [("double", [0, 3], 3.0), ("edges", [1, 2, 5], 2.0)])
def test_histogram_bins_equal_the_searchsorted_oracle(
    n_bins, exponent, negative, spread, first, steps
):
    """Arithmetic bins (one correction each way) equal ``searchsorted``
    on exact edges and their neighbours, below the low edge, after a
    range doubling, and on wide and narrow ranges: counts and every
    quantile answer are identical."""
    scale = 10.0**exponent
    # spread 0.0 packs the batch within a few doubles of +-scale: a
    # range narrow for its magnitude, which bins by search.
    base = np.asarray(first) * (spread or 16.0 * np.spacing(1.0)) + 1.0
    first_batch = (-base if negative else base) * scale
    fast = StreamingHistogram(n_bins=n_bins)
    oracle = _SearchHistogram(n_bins=n_bins)
    batches = [first_batch]
    for kind, picks, factor in steps:
        fast.observe(batches[-1])
        oracle.observe(batches[-1])
        edges = fast.edges
        if kind == "edges":
            batch = _edge_probes(edges, picks)
        elif kind == "below":
            batch = edges[0] - np.abs(_edge_probes(edges, picks)) - scale
        elif kind == "double":
            # Past the top edge: the range doubles, then probe the new
            # edges in the next step.
            batch = np.concatenate([_edge_probes(edges, picks), [edges[-1] * factor + scale]])
        else:
            batch = np.abs(first_batch[np.asarray(picks) % first_batch.size]) * factor
        batches.append(batch[np.isfinite(batch)])
    fast.observe(batches[-1])
    oracle.observe(batches[-1])
    assert np.array_equal(fast.edges, oracle.edges)
    assert np.array_equal(fast.counts, oracle.counts)
    assert fast.total == oracle.total
    for q in (0.0, 0.1, 0.25, 0.5, 0.9, 1.0):
        assert fast.quantile(q) == oracle.quantile(q)


def test_histogram_bins_arithmetically_on_compensation_ranges():
    """Non-negative values, as compensations are, take the arithmetic
    path (the search fallback is for ranges narrow for their
    magnitude)."""
    histogram = StreamingHistogram()
    histogram.observe(np.random.default_rng(3).random(100) * 40.0)
    assert histogram._scale is not None
    narrow = StreamingHistogram()
    narrow.observe(np.array([-1e16, -1e16 + 2.0]))
    assert narrow._scale is None


def test_empty_ledger_views():
    streaming = StreamingLedger()
    assert streaming.n_rounds == 0
    assert streaming.total_utility() == 0.0
    assert streaming.mean_reuse_rate() is None
    assert streaming.cache_hit_rate() is None
    assert streaming.summary()["n_rounds"] == 0.0
    with pytest.raises(SimulationError):
        streaming.compensation_quantile(0.5)
