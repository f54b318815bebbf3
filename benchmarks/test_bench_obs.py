"""Observability overhead gates.

The tracer's contract is that *disabled* instrumentation is free enough
to leave compiled into the hot path permanently.  A naive A/B wall-clock
comparison of a full solve with tracing on vs off is too noisy to gate
on (the solve itself varies by more than the overhead), so the gate is
deterministic instead: measure the per-call cost of the disabled span
machinery directly, project it onto the span count an instrumented
solve actually emits, and require the projection to stay under 3% of
the measured solve time.
"""

from __future__ import annotations

import timeit


from repro.core import ContractDesigner, DesignerConfig
from repro.obs.trace import Tracer

OVERHEAD_BUDGET = 0.03
_CALLS = 50_000


def _disabled_span_cost_s() -> float:
    """Mean seconds per disabled instrumentation site.

    Every span site on the per-solve hot path (``core.design``,
    ``core.candidate_sweep``, ``core.candidate_build``, ``core.select``)
    guards with ``get_tracer().enabled`` before touching the span
    machinery, so the disabled cost per site is one global lookup plus
    one attribute branch — exactly what this probe measures.
    """
    from repro.obs.trace import get_tracer, set_tracer

    previous = set_tracer(Tracer(enabled=False))

    def probe() -> None:
        tracer = get_tracer()
        if tracer.enabled:  # pragma: no cover - tracer is disabled
            raise AssertionError

    try:
        # Best of several repeats: the *capability* cost, insulated
        # from scheduler noise inflating a single run.
        best = min(timeit.repeat(probe, number=_CALLS, repeat=5))
    finally:
        set_tracer(previous)
    return best / _CALLS


def _spans_per_solve(psi, honest_params) -> int:
    """How many spans one designer solve emits when tracing is on."""
    tracer = Tracer(enabled=True)
    from repro.obs.trace import set_tracer

    previous = set_tracer(tracer)
    try:
        designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=20))
        designer.design(psi, honest_params, feedback_weight=1.0)
    finally:
        set_tracer(previous)
    return len(tracer.spans())


def _solve_time_s(psi, honest_params) -> float:
    """Seconds per untraced designer solve (global tracer disabled)."""
    designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=20))

    def solve() -> None:
        designer.design(psi, honest_params, feedback_weight=1.0)

    best = min(timeit.repeat(solve, number=20, repeat=3))
    return best / 20


def test_disabled_overhead_under_budget(psi, honest_params):
    """Projected disabled-tracing cost of a solve stays under 3%."""
    per_span = _disabled_span_cost_s()
    n_spans = _spans_per_solve(psi, honest_params)
    solve = _solve_time_s(psi, honest_params)
    assert n_spans > 0
    projected = per_span * n_spans
    ratio = projected / solve
    assert ratio < OVERHEAD_BUDGET, (
        f"disabled tracing projects to {ratio:.2%} of a solve "
        f"({per_span * 1e9:.0f} ns/span x {n_spans} spans vs "
        f"{solve * 1e3:.2f} ms solve); budget is {OVERHEAD_BUDGET:.0%}"
    )


def test_bench_disabled_span_entry(benchmark):
    """Raw cost of the disabled span path (nanoseconds per call)."""
    tracer = Tracer(enabled=False)

    def enter_exit() -> None:
        with tracer.span("bench", K=20):
            pass

    benchmark(enter_exit)


def test_bench_enabled_span_entry(benchmark):
    """Raw cost of an enabled span (bounded buffer, no CPU sampling)."""
    tracer = Tracer(enabled=True, max_spans=1024)
    tracer.profile_cpu = False

    def enter_exit() -> None:
        with tracer.span("bench", K=20):
            pass

    benchmark(enter_exit)


def test_bench_traced_solve(benchmark, psi, honest_params):
    """A full designer solve with tracing enabled (for the curious)."""
    from repro.obs.trace import set_tracer

    tracer = Tracer(enabled=True, max_spans=4096)
    tracer.profile_cpu = False
    previous = set_tracer(tracer)
    designer = ContractDesigner(mu=1.0, config=DesignerConfig(n_intervals=20))
    try:
        benchmark(
            lambda: designer.design(psi, honest_params, feedback_weight=1.0)
        )
    finally:
        set_tracer(previous)
