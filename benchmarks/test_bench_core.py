"""Micro-benchmarks of the core primitives.

These pin the costs the DESIGN.md complexity story quotes: candidate
construction and exact best response are O(m); a full design sweep is
O(m^2); trace generation is linear in reviews.
"""

from __future__ import annotations

from repro.core import build_candidate, solve_best_response
from repro.data import AmazonTraceGenerator, TraceConfig


def test_bench_build_candidate(benchmark, psi, grid, honest_params):
    """Time one candidate-contract construction (m = 20)."""
    candidate = benchmark(
        build_candidate, psi, grid, honest_params, grid.n_intervals // 2
    )
    assert candidate.target_piece == grid.n_intervals // 2


def test_bench_best_response(benchmark, psi, grid, honest_params):
    """Time one exact best-response solve (m = 20)."""
    candidate = build_candidate(psi, grid, honest_params, grid.n_intervals // 2)
    response = benchmark(solve_best_response, candidate.contract, honest_params)
    assert response.piece == grid.n_intervals // 2


def test_bench_trace_generation_small(benchmark):
    """Time the full synthetic-trace generation at test scale."""
    config = TraceConfig.small()

    def generate():
        return AmazonTraceGenerator(config, seed=0).generate()

    trace = benchmark(generate)
    assert trace.n_reviews == config.n_reviews
