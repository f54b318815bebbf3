"""Ablation: nominal vs pessimistic-curve (robust) contract design.

Quantifies the knife-edge finding of :mod:`repro.core.sensitivity`: the
paper's minimal-slope contract loses ~all utility under a 10% adverse
misfit of the fitted effort curve, while the robust variant holds a
guaranteed level at a bounded nominal premium.  Also times both (the
robust design is one extra designer call plus a replay grid).
"""

from __future__ import annotations

from repro.core import misfit_sweep, robust_design

_CURVATURES = (0.8, 0.9, 1.0, 1.1, 1.2)
_SLOPES = (0.9, 1.0, 1.1)


def test_bench_nominal_design_under_misfit(benchmark, psi, honest_params):
    """Time the misfit sweep of the nominal design; record fragility."""
    report = benchmark(
        misfit_sweep,
        psi,
        honest_params,
        1.0,
        1.0,
        _CURVATURES,
        _SLOPES,
    )
    assert report.max_degradation() > 0.5
    benchmark.extra_info["nominal_utility"] = report.nominal_utility
    benchmark.extra_info["worst_case"] = report.worst_case().requester_utility


def test_bench_robust_design(benchmark, psi, honest_params):
    """Time the robust design; assert it dominates nominal worst case."""
    result, guaranteed = benchmark(
        robust_design,
        psi,
        honest_params,
        1.0,
        1.0,
        _CURVATURES,
        _SLOPES,
    )
    report = misfit_sweep(
        psi,
        honest_params,
        curvature_factors=_CURVATURES,
        slope_factors=_SLOPES,
    )
    assert guaranteed > report.worst_case().requester_utility
    # The robustness premium is bounded: the guaranteed level retains a
    # substantial fraction of the nominal optimum.
    assert guaranteed >= 0.5 * report.nominal_utility
    benchmark.extra_info["guaranteed_utility"] = guaranteed
