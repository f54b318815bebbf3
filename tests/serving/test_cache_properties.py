"""Property sweep: cached solves equal fresh solves, bounds included.

Satellite of the serving subsystem: over seeded random populations the
contract cache must be *transparent* — a cached design is byte-identical
to a fresh solve — and every design it serves must still carry valid
Lemma 4.2/4.3 certificates.  The sweep runs with
``REPRO_CHECK_INVARIANTS`` forced on, so every cache hit additionally
re-solves and asserts the cache invariant inside
:func:`repro.serving.cache.maybe_verify_cached` itself.
"""

from __future__ import annotations

import os
import pickle
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DesignerConfig
from repro.core.bounds import compensation_lower_bound, compensation_upper_bound
from repro.serving import ContractCache, SolverPool
from repro.serving.workload import synthetic_subproblems

_SLACK = 1e-7


@pytest.fixture(autouse=True, scope="module")
def _invariants_on() -> Iterator[None]:
    previous = os.environ.get("REPRO_CHECK_INVARIANTS")
    os.environ["REPRO_CHECK_INVARIANTS"] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ["REPRO_CHECK_INVARIANTS"]
        else:
            os.environ["REPRO_CHECK_INVARIANTS"] = previous


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_archetypes=st.integers(min_value=1, max_value=4),
    mu=st.floats(min_value=0.5, max_value=2.0),
)
def test_cached_equals_fresh_and_bounds_hold(
    seed: int, n_archetypes: int, mu: float
) -> None:
    subproblems = synthetic_subproblems(
        n_subjects=3 * n_archetypes, n_archetypes=n_archetypes, seed=seed
    )
    cache = ContractCache()
    config = DesignerConfig()
    pool = SolverPool(mu=mu, config=config, cache=cache)
    cold, cold_diag = pool.solve_with_diagnostics(subproblems)
    # The warm round serves every subject from the cache; with
    # invariants on, maybe_verify_cached re-solves each hit and
    # raises if the cached design drifted from a fresh solve.
    warm, warm_diag = pool.solve_with_diagnostics(subproblems)

    assert not any(d.cache_hit for d in cold_diag.values())
    assert all(d.cache_hit for d in warm_diag.values())
    assert cache.stats.verifications == n_archetypes

    for subject_id, cold_solution in cold.items():
        cold_result = cold_solution.result
        warm_result = warm[subject_id].result

        # Cache transparency: the served bytes are the solved bytes.
        assert pickle.dumps(warm_result.contract.compensations) == pickle.dumps(
            cold_result.contract.compensations
        )
        assert warm_result.k_opt == cold_result.k_opt

        # Every served design still satisfies the paper's certificates.
        for result in (cold_result, warm_result):
            if not result.hired or result.bounds is None:
                continue
            subproblem = cold_solution.subproblem
            psi = subproblem.effort_function
            params = subproblem.params
            grid = config.grid_for(psi, max_effort=subproblem.max_effort)
            ceiling = compensation_upper_bound(
                psi, grid, params.beta, result.k_opt, omega=params.omega
            )
            pay = result.response.compensation
            assert pay <= ceiling * (1.0 + _SLACK) + _SLACK
            if result.bounds.certified:
                # Theorem 4.1 sandwich and the Lemma 4.3 participation
                # floor only apply when the bound preconditions held.
                assert result.bounds.is_consistent
                floor = compensation_lower_bound(
                    grid,
                    params.beta,
                    result.k_opt,
                    effort_function=psi,
                    omega=params.omega,
                )
                assert pay >= floor - _SLACK * max(1.0, abs(floor))
