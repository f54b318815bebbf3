"""Robustness: what effort-function misfit does to a live contract.

Run with::

    python examples/robust_contracts.py

The designer optimizes against a *fitted* effort curve; real workers
respond to the contract with their *true* one.  This example quantifies
the exposure — the paper's minimal-slope construction is knife-edge, so
slightly weaker true marginals collapse participation — and shows the
robust variant that designs against the pessimistic member of the
uncertainty set.
"""

from __future__ import annotations

from repro.core import (
    QuadraticEffort,
    misfit_sweep,
    robust_design,
    solve_best_response,
)
from repro.core.utility import per_worker_utility
from repro.types import WorkerParameters


def main() -> None:
    fitted = QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)
    params = WorkerParameters.honest(beta=1.0)
    curvature_factors = (0.8, 0.9, 1.0, 1.1, 1.2)
    slope_factors = (0.9, 1.0, 1.1)

    print("=== nominal (paper) design under misfit ===")
    report = misfit_sweep(
        fitted,
        params,
        curvature_factors=curvature_factors,
        slope_factors=slope_factors,
    )
    print(f"nominal utility (perfect fit): {report.nominal_utility:8.3f}")
    print(f"{'curv x':>7} {'slope x':>8} {'effort':>8} {'utility':>9}")
    for point in report.points:
        if point.slope_factor in (0.9, 1.0) and point.curvature_factor in (
            0.9,
            1.0,
            1.1,
        ):
            print(
                f"{point.curvature_factor:>7.2f} {point.slope_factor:>8.2f} "
                f"{point.effort:>8.3f} {point.requester_utility:>9.3f}"
            )
    worst = report.worst_case()
    print(
        f"worst case: utility {worst.requester_utility:.3f} at "
        f"(curv x{worst.curvature_factor}, slope x{worst.slope_factor}) — "
        f"{100 * report.max_degradation():.0f}% degradation"
    )
    print(
        "\nwhy: the Eq. (39) slopes give the worker *barely* positive "
        "marginal utility; any true curve with weaker marginals makes the "
        "worker quit to zero effort."
    )

    print("\n=== robust design (pessimistic-curve) ===")
    result, guaranteed = robust_design(
        fitted,
        params,
        curvature_factors=curvature_factors,
        slope_factors=slope_factors,
    )
    response_under_truth = solve_best_response(
        result.contract, params, effort_function=fitted
    )
    utility_under_truth = per_worker_utility(
        1.0, response_under_truth.feedback, response_under_truth.compensation, 1.0
    )
    print(f"guaranteed worst-case utility: {guaranteed:8.3f}")
    print(f"utility if the fit was exact:  {utility_under_truth:8.3f}")
    print(
        f"robustness premium: {report.nominal_utility - utility_under_truth:.3f} "
        f"utility given up to avoid the {report.nominal_utility - report.worst_case().requester_utility:.1f}-point crash"
    )


if __name__ == "__main__":
    main()
