"""Bench: Table III — polynomial order sweep per worker class."""

from __future__ import annotations

from repro.experiments import table3_fitting
from repro.fitting import sweep_orders
from repro.types import WorkerType


def test_bench_table3_experiment(benchmark, context):
    """Time the full Table III driver (three class sweeps)."""
    result = benchmark(table3_fitting.run, context)
    assert result.all_checks_pass, result.format()


def test_bench_table3_honest_sweep(benchmark, context):
    """Time one order-1..6 sweep over the honest class points."""
    efforts, feedbacks = context.proxy.class_points(
        context.trace, context.trace.worker_ids(WorkerType.HONEST)
    )
    sweep = benchmark(sweep_orders, efforts, feedbacks)
    row = sweep.nor_row()
    assert all(b <= a + 1e-9 for a, b in zip(row, row[1:]))
