"""Benchmarks and speedup gates for the vectorized candidate sweep.

The fast path's pitch is quantitative (O(K) shared-prefix batching vs
the legacy per-candidate O(K^2)-and-worse sweep), so the thresholds are
asserted, not just reported:

* the vectorized sweep is >= 3x faster than the legacy sweep at
  ``K = 100`` on the reference effort function (measured headroom is
  two orders of magnitude; the gate is deliberately conservative for
  noisy CI runners),
* a cold-cache end-to-end design pass over a synthetic population is
  >= 1.5x faster than the same pass with the designer's sweep swapped
  for the legacy one,
* both paths agree to :mod:`repro.numerics` tolerance on everything the
  gate measures (equivalence is re-asserted here so a speedup can never
  be bought with a wrong answer).

The gate test also writes a ``BENCH_sweep.json`` artifact (path
overridable via ``REPRO_BENCH_OUT``) with the measured timings so CI
runs leave a machine-readable record (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import platform
import time

import numpy as np

from repro.core import solve_subproblems
from repro.core.sweep import legacy_sweep, require_sweeps_agree, vectorized_sweep
from repro.serving.workload import synthetic_subproblems
from repro.types import DiscretizationGrid

_GATE_K = 100
_GATE_SPEEDUP = 3.0
_E2E_SPEEDUP = 1.5
_N_SUBJECTS = 120
_N_ARCHETYPES = 24
_SEED = 11


def _gate_grid(psi, n_intervals: int) -> DiscretizationGrid:
    return DiscretizationGrid.for_max_effort(
        0.95 * psi.max_increasing_effort, n_intervals
    )


def _best_of(callable_, repeats: int = 3) -> float:
    """Best-of-N wall time: robust to one-off scheduler hiccups."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - started)
    return best


def test_bench_sweep_vectorized(benchmark, psi, honest_params):
    """Time the vectorized sweep at the gate size."""
    grid = _gate_grid(psi, _GATE_K)
    pairs, stats = benchmark(vectorized_sweep, psi, grid, honest_params)
    assert stats.n_vectorized > 0
    assert len(pairs) == _GATE_K


def test_bench_sweep_legacy(benchmark, psi, honest_params):
    """Time the legacy per-candidate sweep at the gate size."""
    grid = _gate_grid(psi, _GATE_K)
    pairs, stats = benchmark(legacy_sweep, psi, grid, honest_params)
    assert stats.n_vectorized == 0
    assert len(pairs) == _GATE_K


def test_bench_sweep_vectorized_k20(benchmark, psi, grid, honest_params):
    """Time the vectorized sweep at the default experiment grid size."""
    pairs, _ = benchmark(vectorized_sweep, psi, grid, honest_params)
    assert len(pairs) == grid.n_intervals


def test_sweep_speedup_gates(psi, honest_params, monkeypatch):
    """The ISSUE acceptance gates, asserted on one measured run."""
    grid = _gate_grid(psi, _GATE_K)

    # Equivalence first: a speedup never excuses a wrong answer.
    fast_pairs, _ = vectorized_sweep(psi, grid, honest_params)
    legacy_pairs, _ = legacy_sweep(psi, grid, honest_params)
    require_sweeps_agree(fast_pairs, legacy_pairs)

    # Gate 1: microbenchmark speedup at K = 100.
    fast_elapsed = _best_of(lambda: vectorized_sweep(psi, grid, honest_params))
    legacy_elapsed = _best_of(lambda: legacy_sweep(psi, grid, honest_params))
    sweep_speedup = legacy_elapsed / fast_elapsed
    assert sweep_speedup >= _GATE_SPEEDUP, (
        f"vectorized sweep only {sweep_speedup:.1f}x faster than legacy at "
        f"K={_GATE_K}; gate is {_GATE_SPEEDUP}x"
    )

    # Gate 2: cold-cache end-to-end design pass over a population (the
    # Fig. 8b-style workload shape: many subjects, shared archetypes).
    workload = synthetic_subproblems(
        n_subjects=_N_SUBJECTS, n_archetypes=_N_ARCHETYPES, seed=_SEED
    )

    def solve_all() -> None:
        solve_subproblems(workload, mu=1.0)

    e2e_fast = _best_of(solve_all)
    monkeypatch.setattr("repro.core.designer.sweep_candidates_with_stats", legacy_sweep)
    e2e_legacy = _best_of(solve_all)
    e2e_speedup = e2e_legacy / e2e_fast
    assert e2e_speedup >= _E2E_SPEEDUP, (
        f"end-to-end cold-cache design pass only {e2e_speedup:.2f}x faster "
        f"than with the legacy sweep; gate is {_E2E_SPEEDUP}x"
    )

    artifact = {
        "gate_k": _GATE_K,
        "sweep_fast_seconds": fast_elapsed,
        "sweep_legacy_seconds": legacy_elapsed,
        "sweep_speedup": sweep_speedup,
        "e2e_subjects": _N_SUBJECTS,
        "e2e_fast_seconds": e2e_fast,
        "e2e_legacy_seconds": e2e_legacy,
        "e2e_speedup": e2e_speedup,
        "gates": {"sweep": _GATE_SPEEDUP, "end_to_end": _E2E_SPEEDUP},
        # The figures docs/PERFORMANCE.md quotes are only comparable
        # with the host and library versions that produced them.
        "host": {
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    out_path = os.environ.get("REPRO_BENCH_OUT", "BENCH_sweep.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)
