"""Property tests for the shared-prefix structure and sweep equivalence.

Two claims carry the whole fast path:

1. **Prefix sharing** — the Eq. (39)-(40) recursion is target-
   independent, so ``build_candidate(k)`` and ``build_candidate(k + 1)``
   agree on their first ``k`` slopes.  If this ever broke, batching the
   recursion would be unsound.
2. **Fast/legacy equivalence** — the vectorized engine reaches the same
   ``k_opt``, utilities and compensations as the per-candidate
   reference on *random* design instances, including the clamped-piece
   (large ``omega``) branch.

Closed-form unit tests probe a few points; here we sweep seeded random
``(psi, beta, omega, K)`` draws (``derandomize=True`` keeps CI
reproducible).
"""

from __future__ import annotations

from typing import Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    QuadraticEffort,
    build_candidate,
    legacy_sweep,
    prefix_tables,
    vectorized_sweep,
)
from repro.core.sweep import require_sweeps_agree
from repro.numerics import close
from repro.types import DiscretizationGrid, WorkerParameters, WorkerType


@st.composite
def sweep_problems(
    draw: st.DrawFn,
) -> Tuple[QuadraticEffort, DiscretizationGrid, WorkerParameters]:
    """A random (psi, grid, params) design instance.

    The grid stays strictly inside the increasing range of ``psi`` (the
    construction's precondition); ``omega`` spans zero through the
    clamping regime where the Eq. (39) recursion goes negative.
    """
    r2 = draw(st.floats(min_value=-2.0, max_value=-0.05))
    r1 = draw(st.floats(min_value=0.5, max_value=5.0))
    r0 = draw(st.floats(min_value=0.0, max_value=1.0))
    psi = QuadraticEffort(r2=r2, r1=r1, r0=r0)
    n_intervals = draw(st.integers(min_value=1, max_value=12))
    coverage = draw(st.floats(min_value=0.3, max_value=0.95))
    grid = DiscretizationGrid.for_max_effort(
        coverage * psi.max_increasing_effort, n_intervals
    )
    beta = draw(st.floats(min_value=0.1, max_value=3.0))
    # Either a tame omega or one large enough (relative to beta) to
    # force slope clamping — the branch most likely to desynchronize.
    omega = draw(
        st.one_of(
            st.floats(min_value=0.0, max_value=0.5),
            st.floats(min_value=5.0, max_value=60.0),
        )
    )
    worker_type = (
        WorkerType.HONEST if omega == 0.0 else WorkerType.NONCOLLUSIVE_MALICIOUS
    )
    params = WorkerParameters(beta=beta, omega=omega, worker_type=worker_type)
    return psi, grid, params


@given(problem=sweep_problems())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_property_prefix_sharing(problem):
    """build_candidate(k).slopes[:k] == build_candidate(k+1).slopes[:k]."""
    psi, grid, params = problem
    candidates = [
        build_candidate(
            effort_function=psi, grid=grid, params=params, target_piece=k
        )
        for k in range(1, grid.n_intervals + 1)
    ]
    for smaller, larger in zip(candidates, candidates[1:]):
        k = smaller.target_piece
        assert larger.slopes[:k] == smaller.slopes[:k]
        assert larger.epsilons[:k] == smaller.epsilons[:k]
    tables = prefix_tables(psi, grid, params)
    for candidate in candidates:
        k = candidate.target_piece
        assert candidate.slopes[:k] == tuple(tables.slopes[:k])


@given(problem=sweep_problems())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_property_fast_legacy_agreement(problem):
    """Fast and legacy sweeps agree on k_opt, utilities, compensations."""
    psi, grid, params = problem
    fast, _ = vectorized_sweep(psi, grid, params)
    reference, _ = legacy_sweep(psi, grid, params)
    require_sweeps_agree(fast, reference)

    # The selection argmax must coincide: the best target piece under
    # the fast path is the best target piece under the reference.
    def argmax(pairs):
        best = max(range(len(pairs)), key=lambda i: pairs[i][1].utility)
        return pairs[best][0].target_piece

    fast_best = argmax(fast)
    ref_best = argmax(reference)
    if fast_best != ref_best:
        # Only acceptable when the two pieces tie to tolerance.
        assert close(
            fast[fast_best - 1][1].utility, reference[ref_best - 1][1].utility
        )


@given(problem=sweep_problems(), base_pay=st.floats(min_value=0.0, max_value=5.0))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_property_fast_legacy_agreement_with_base_pay(problem, base_pay):
    """Equivalence holds with a nonzero compensation floor (x_0 > 0)."""
    psi, grid, params = problem
    fast, _ = vectorized_sweep(psi, grid, params, base_pay=base_pay)
    reference, _ = legacy_sweep(psi, grid, params, base_pay=base_pay)
    require_sweeps_agree(fast, reference)
