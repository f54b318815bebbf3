"""Seeded REPRO011 corpus: kernels whose draws disagree with the manifest.

Never imported at runtime — parsed by the flow analyzer in
``tests/analysis_flow/test_flow_passes.py``.  ``fast_columnar_step`` draws one
extra ``rng.normal`` block the sibling manifest does not pin;
``fast_shuffle`` consumes draws without any manifest entry at all.
"""

from __future__ import annotations

from typing import Any, List, Sequence

__all__ = ["fast_columnar_step", "fast_shuffle"]


def fast_columnar_step(efforts: Sequence[float], rng: Any) -> List[float]:
    """Draws standard_normal (manifested) then normal (not manifested)."""
    draws = rng.standard_normal(len(efforts))
    jitter = rng.normal(0.0, 1.0, size=len(efforts))
    return [e + z + j for e, z, j in zip(efforts, draws, jitter)]


def fast_shuffle(subjects: Sequence[str], rng: Any) -> List[str]:
    """Consumes generator draws but has no manifest entry."""
    order = rng.permutation(len(subjects))
    return [subjects[i] for i in order]
