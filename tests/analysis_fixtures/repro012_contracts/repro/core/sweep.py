"""Seeded REPRO012 corpus: fast kernels with broken contract coverage.

Never imported at runtime — parsed by the flow analyzer in
``tests/analysis_flow/test_flow_passes.py``.  ``vectorized_sweep`` has
no legacy twin and no contract; ``fast_solve`` has a twin and a router
but no ``require_*_agree`` call anywhere near it; and
``require_orphans_agree`` is a dead contract no one calls.
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = [
    "fast_solve",
    "fastpath_enabled",
    "legacy_solve",
    "require_orphans_agree",
    "route",
    "vectorized_sweep",
]


def fastpath_enabled() -> bool:
    """Fixture stand-in for an environment switch picking the fast path."""
    return True


def vectorized_sweep(grid: Sequence[float]) -> List[float]:
    """Fast kernel with no legacy twin and no equivalence contract."""
    return [g * 2.0 for g in grid]


def fast_solve(x: float) -> float:
    """Fast kernel whose router never cross-verifies against the twin."""
    return x * x


def legacy_solve(x: float) -> float:
    """Reference twin of :func:`fast_solve`."""
    total = 0.0
    for _ in range(2):
        total += x * x / 2.0
    return total


def route(x: float) -> float:
    """Routes to the fast path without calling any require_*_agree."""
    if fastpath_enabled():
        return fast_solve(x)
    return legacy_solve(x)


def require_orphans_agree(produced: float, reference: float) -> None:
    """Dead equivalence contract: defined but never called anywhere."""
    if produced != reference:  # noqa: REPRO001
        raise AssertionError("orphan mismatch")
