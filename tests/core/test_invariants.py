"""Cross-cutting property tests: designer invariants under fuzzing.

These tie the core pieces together: for random effort functions, worker
parameters, requester preferences and weights, the full design pipeline
must uphold its structural guarantees.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ContractDesigner,
    DesignerConfig,
    QuadraticEffort,
    solve_best_response,
)
from repro.core.utility import per_worker_utility
from repro.types import WorkerParameters


@st.composite
def _design_instance(draw):
    psi = QuadraticEffort(
        r2=draw(st.floats(min_value=-2.0, max_value=-0.05)),
        r1=draw(st.floats(min_value=1.0, max_value=30.0)),
        r0=draw(st.floats(min_value=0.0, max_value=5.0)),
    )
    omega = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))
    params = (
        WorkerParameters.honest(beta=draw(st.floats(min_value=0.3, max_value=3.0)))
        if omega == 0.0
        else WorkerParameters.malicious(
            beta=draw(st.floats(min_value=0.3, max_value=3.0)), omega=omega
        )
    )
    mu = draw(st.floats(min_value=0.3, max_value=3.0))
    weight = draw(st.floats(min_value=-1.0, max_value=5.0))
    m = draw(st.integers(min_value=2, max_value=12))
    return psi, params, mu, weight, m


@given(instance=_design_instance())
@settings(max_examples=150, deadline=None)
def test_property_design_structural_invariants(instance):
    """Every design result is internally consistent."""
    psi, params, mu, weight, m = instance
    designer = ContractDesigner(mu=mu, config=DesignerConfig(n_intervals=m))
    result = designer.design(psi, params, feedback_weight=weight)

    # 1. The posted contract is monotone and non-negative.
    pay = result.contract.compensations
    assert all(later >= earlier - 1e-9 for earlier, later in zip(pay, pay[1:]))
    assert all(value >= 0.0 for value in pay)

    # 2. The reported utility recomputes from the reported response.
    recomputed = per_worker_utility(
        weight, result.response.feedback, result.response.compensation, mu
    )
    assert result.requester_utility == pytest.approx(recomputed, abs=1e-9)

    # 3. Non-positive weights are never hired.
    if weight <= 0.0:
        assert not result.hired
        assert result.compensation == pytest.approx(0.0)

    # 4. Hired results carry a bounds certificate with LB <= UB.
    if result.hired:
        assert result.bounds is not None
        assert result.bounds.lower <= result.bounds.upper + 1e-9

    # 5. The reported response really is the worker's best response.
    replay = solve_best_response(result.contract, params)
    assert replay.utility == pytest.approx(result.response.utility, abs=1e-9)


@given(instance=_design_instance())
@settings(max_examples=100, deadline=None)
def test_property_selected_candidate_is_argmax(instance):
    """The designer's pick maximizes requester utility over candidates."""
    psi, params, mu, weight, m = instance
    designer = ContractDesigner(mu=mu, config=DesignerConfig(n_intervals=m))
    result = designer.design(psi, params, feedback_weight=weight)
    if not result.evaluations:
        return
    best = max(e.requester_utility for e in result.evaluations)
    if result.hired:
        assert result.requester_utility == pytest.approx(best)
    else:
        # Not hired means even the best candidate fell below min_utility.
        assert best < designer.config.min_utility


@given(
    instance=_design_instance(),
    scale=st.floats(min_value=0.5, max_value=2.0),
)
@settings(max_examples=80, deadline=None)
def test_property_feedback_scale_invariance_of_participation(instance, scale):
    """Scaling feedback units (and the weight inversely) preserves the
    worker's induced effort up to grid effects.

    The contract lives in feedback space; measuring feedback in
    different units while adjusting the weight inversely describes the
    same economy.
    """
    psi, params, mu, weight, m = instance
    if weight <= 0.0:
        return
    designer = ContractDesigner(mu=mu, config=DesignerConfig(n_intervals=m))
    base = designer.design(psi, params, feedback_weight=weight)

    # Honest workers only: for omega > 0 the influence term breaks the
    # scale symmetry (omega multiplies raw feedback units).
    if params.omega != 0.0:
        return
    scaled_psi = psi.scaled(scale)
    scaled_designer = ContractDesigner(
        mu=mu, config=DesignerConfig(n_intervals=m)
    )
    scaled = scaled_designer.design(
        scaled_psi, params, feedback_weight=weight / scale
    )
    assert scaled.effort == pytest.approx(base.effort, rel=1e-6, abs=1e-9)
    assert scaled.requester_utility == pytest.approx(
        base.requester_utility, rel=1e-6, abs=1e-6
    )
