"""Tests for the batched, cached solver pool."""

from __future__ import annotations

import collections
import pickle
import sys
import threading
import time

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


class _CountingPool(SolverPool):
    """A pool whose miss solver counts the fingerprints it solves, takes
    ``delay`` seconds per call and raises on its first ``failures``
    calls."""

    def __init__(self, delay: float, failures: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        self.delay = delay
        self.failures = failures
        self.solved = collections.Counter()
        self.failed = collections.Counter()
        self._calls = threading.Lock()

    def _solve_misses(self, subproblems, fingerprints):
        time.sleep(self.delay)
        with self._calls:
            failing = self.failures > 0
            self.failures -= failing
            (self.failed if failing else self.solved).update(fingerprints)
        if failing:
            raise RuntimeError("injected miss-solver failure")
        return super()._solve_misses(subproblems, fingerprints)


def _batch_concurrently(pool, workload, n_threads=8):
    """Every thread batches the whole workload at once; returns each
    thread's designs (or the exception it raised)."""
    outcomes = [None] * n_threads
    barrier = threading.Barrier(n_threads)

    def requester(index):
        barrier.wait(timeout=30.0)
        try:
            outcomes[index] = pool.solve_designs(workload)[0]
        except Exception as error:  # noqa: BLE001 - asserted by the caller
            outcomes[index] = error

    threads = [
        threading.Thread(target=requester, args=(index,))
        for index in range(n_threads)
    ]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


class TestConcurrentMisses:
    def test_concurrent_batches_solve_each_fingerprint_once(
        self, workload, serial_solutions
    ):
        """Batches that miss a fingerprint another batch is solving wait
        for it: each is solved once, and the waiters book hits."""
        stats = ServingStats()
        pool = _CountingPool(delay=0.05, cache=ContractCache(), stats=stats)
        outcomes = _batch_concurrently(pool, workload)
        fingerprints = set(pool.fingerprints(workload))
        assert len(fingerprints) == 6
        assert pool.solved == {key: 1 for key in fingerprints}
        assert stats.cache_misses == 6
        assert stats.cache_hits == 8 * 6 - 6
        for designs in outcomes:
            assert not isinstance(designs, Exception), designs
            for subproblem, design in zip(workload, designs):
                assert pickle.dumps(design.contract.compensations) == (
                    _compensation_bytes(serial_solutions[subproblem.subject_id])
                )

    def test_a_failed_owner_hands_its_fingerprints_to_a_waiter(
        self, workload, serial_solutions
    ):
        """When the owning solve raises, its batch gets the error and one
        waiting batch solves the fingerprints instead; nobody hangs."""
        pool = _CountingPool(delay=0.05, failures=1, cache=ContractCache())
        outcomes = _batch_concurrently(pool, workload)
        errors = [outcome for outcome in outcomes if isinstance(outcome, Exception)]
        assert [str(error) for error in errors] == ["injected miss-solver failure"]
        fingerprints = set(pool.fingerprints(workload))
        assert pool.solved == {key: 1 for key in fingerprints}
        for designs in outcomes:
            if isinstance(designs, Exception):
                continue
            for subproblem, design in zip(workload, designs):
                assert pickle.dumps(design.contract.compensations) == (
                    _compensation_bytes(serial_solutions[subproblem.subject_id])
                )
        # Nothing stays claimed: a later batch is answered from the cache.
        _, hits = pool.solve_designs(workload)
        assert all(hits)


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
