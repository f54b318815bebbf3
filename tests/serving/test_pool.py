"""Tests for the batched, cached solver pool."""

from __future__ import annotations

import pickle

import pytest

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.serving import ContractCache, ServingStats, SolverPool
from repro.serving.workload import synthetic_subproblems


@pytest.fixture(scope="module")
def workload():
    return synthetic_subproblems(n_subjects=24, n_archetypes=6, seed=11)


@pytest.fixture(scope="module")
def serial_solutions(workload):
    return solve_subproblems(workload, mu=1.0)


def _compensation_bytes(solution):
    return pickle.dumps(solution.result.contract.compensations)


class TestSolverPoolSerialPath:
    def test_matches_serial_byte_identically(self, workload, serial_solutions):
        pooled = SolverPool().solve(workload)
        assert list(pooled) == list(serial_solutions)
        for subject_id in serial_solutions:
            assert _compensation_bytes(pooled[subject_id]) == _compensation_bytes(
                serial_solutions[subject_id]
            )

    def test_results_in_input_order(self, workload):
        solutions = SolverPool().solve(workload)
        assert list(solutions) == [entry.subject_id for entry in workload]

    def test_dedupe_solves_each_archetype_once(self, workload):
        stats = ServingStats()
        SolverPool(stats=stats).solve(workload)
        assert stats.requests == len(workload)
        assert stats.cache_misses == 6
        assert stats.dedup_rate == pytest.approx(1.0 - 6 / len(workload))

    def test_rejects_duplicate_subject_ids(self, workload):
        pool = SolverPool()
        with pytest.raises(ServingError):
            pool.solve([workload[0], workload[0]])

    def test_solve_designs_accepts_repeated_requests(self, workload):
        """A caller may batch the same subject twice."""
        repeated = [workload[0], workload[0], workload[1]]
        designs, hits = SolverPool().solve_designs(repeated)
        assert len(designs) == 3
        assert designs[0] is designs[1]
        assert hits == [False, False, False]


class TestSolverPoolCache:
    def test_warm_rounds_hit_the_cache(self, workload):
        cache = ContractCache()
        stats = ServingStats()
        pool = SolverPool(cache=cache, stats=stats)
        _, cold = pool.solve_with_diagnostics(workload)
        _, warm = pool.solve_with_diagnostics(workload)
        assert not any(d.cache_hit for d in cold.values())
        assert all(d.cache_hit for d in warm.values())
        assert stats.cache_hits == 6
        assert cache.stats.hits == 6

    def test_cached_round_matches_serial(self, workload, serial_solutions):
        pool = SolverPool(cache=ContractCache())
        pool.solve(workload)
        warm = pool.solve(workload)
        for subject_id in serial_solutions:
            assert _compensation_bytes(warm[subject_id]) == _compensation_bytes(
                serial_solutions[subject_id]
            )

    def test_diagnostics_fingerprints_align(self, workload):
        pool = SolverPool()
        fingerprints = pool.fingerprints(workload)
        _, diagnostics = pool.solve_with_diagnostics(workload)
        assert [
            diagnostics[entry.subject_id].fingerprint for entry in workload
        ] == fingerprints

    def test_verification_runs_on_hits_under_invariants(
        self, workload, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "1")
        cache = ContractCache()
        pool = SolverPool(cache=cache)
        pool.solve(workload)
        pool.solve(workload)
        assert cache.stats.verifications == 6


class TestSolverPoolValidation:
    def test_fingerprint_count_mismatch(self, workload):
        pool = SolverPool()
        with pytest.raises(ServingError):
            pool.solve_designs(workload, fingerprints=["cd1:00"])


class TestWorkload:
    def test_deterministic_under_seed(self):
        a = synthetic_subproblems(n_subjects=10, n_archetypes=3, seed=5)
        b = synthetic_subproblems(n_subjects=10, n_archetypes=3, seed=5)
        assert [s.subject_id for s in a] == [s.subject_id for s in b]
        assert [s.params for s in a] == [s.params for s in b]
        assert [s.effort_function.coefficients() for s in a] == [
            s.effort_function.coefficients() for s in b
        ]

    def test_archetype_count_bounds_unique_fingerprints(self):
        subproblems = synthetic_subproblems(n_subjects=30, n_archetypes=5, seed=2)
        unique = set(SolverPool().fingerprints(subproblems))
        assert len(unique) == 5
