"""Shared fixtures for the benchmark harness.

Benchmarks run the same experiment drivers as the tests, at the small
(structurally identical) scale so a full ``pytest benchmarks/
--benchmark-only`` sweep stays in CI-friendly territory; the trace
generator itself is additionally benchmarked at full paper scale.
"""

from __future__ import annotations

import pytest

from repro.core import QuadraticEffort
from repro.core.utility import RequesterObjective
from repro.experiments import ExperimentConfig, build_context
from repro.types import DiscretizationGrid, RequesterParameters, WorkerParameters

@pytest.fixture(scope="session")
def context():
    """The small-scale experiment context shared by all benchmarks."""
    return build_context(ExperimentConfig.small(seed=11))


@pytest.fixture(scope="session")
def psi() -> QuadraticEffort:
    return QuadraticEffort(r2=-0.5, r1=10.0, r0=1.0)


@pytest.fixture(scope="session")
def grid(psi) -> DiscretizationGrid:
    return DiscretizationGrid.for_max_effort(0.95 * psi.max_increasing_effort, 20)


@pytest.fixture(scope="session")
def honest_params() -> WorkerParameters:
    return WorkerParameters.honest(beta=1.0)


@pytest.fixture(scope="session")
def objective() -> RequesterObjective:
    return RequesterObjective(RequesterParameters(mu=1.0))
