"""Tests for the cluster router: one cache, miss frames, retries, supervision."""

from __future__ import annotations

import pickle
import sys
import threading
import time

import pytest

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.serving import (
    ShardProcess,
    ShardRouter,
    ShardSpec,
    synthetic_request_batches,
)
from repro.serving.cluster import router as router_module
from repro.serving.cluster.codec import columnar_frame
from repro.serving.cluster.shard import ShardTransportError
from repro.serving.workload import synthetic_subproblems


@pytest.fixture(scope="module")
def workload():
    return synthetic_subproblems(n_subjects=30, n_archetypes=6, seed=23)


@pytest.fixture(scope="module")
def diverse_workload():
    # Fully heterogeneous: 40 unique fingerprints, so a cold batch has
    # more misses than any router here has shards.
    return synthetic_subproblems(n_subjects=40, n_archetypes=40, seed=29)


@pytest.fixture()
def router():
    # Supervisor disabled: tests drive revival explicitly for determinism.
    with ShardRouter(n_shards=2, supervise_interval=0.0) as instance:
        yield instance


def _compensation_bytes(design):
    return pickle.dumps(design.contract.compensations)


@pytest.fixture()
def round_trips(monkeypatch):
    """Counts ``solve_columnar`` pipe round trips to any shard."""
    calls = []
    original = ShardProcess.request

    def counting(self, op, *args, **kwargs):
        if op == "solve_columnar":
            calls.append(self.shard_id)
        return original(self, op, *args, **kwargs)

    monkeypatch.setattr(ShardProcess, "request", counting)
    return calls


class TestShardProcess:
    def test_solve_health_and_stats(self, workload):
        serial = solve_subproblems(workload[:3], mu=1.0)
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        try:
            # The shard trusts the fingerprints it is sent (the router
            # computed them), so distinct labels give three frame rows.
            frame = columnar_frame(workload[:3], [f"fp{i}" for i in range(3)])
            for _ in range(2):
                designs = shard.solve_columnar(frame)
                assert len(designs) == 3
                for subproblem, design in zip(workload[:3], designs):
                    assert _compensation_bytes(design) == _compensation_bytes(
                        serial[subproblem.subject_id].result
                    )
            health = shard.health()
            assert health["shard_id"] == "s0"
            assert health["pid"] == shard.pid
            # Stateless: no cache to report, and a repeat is solved again.
            assert "cache_entries" not in health
            snapshot = shard.stats_snapshot()
            assert snapshot["requests"] == 6.0
            # Pipe-op solves book per-request latencies, so /stats
            # consumers (repro obs top) get live p50/p99 columns.
            assert snapshot["request_latency_p50_s"] > 0.0
            assert snapshot["request_latency_p99_s"] >= (
                snapshot["request_latency_p50_s"]
            )
        finally:
            shard.stop()
        assert not shard.alive

    def test_stop_is_a_clean_exit(self):
        # Regression: the shutdown frame must match the 3-tuple
        # (op, payload, meta) protocol — a malformed frame kills the
        # shard with an unpack error instead of a clean exit 0.
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        process = shard._process
        shard.stop()
        assert process is not None
        assert process.exitcode == 0

    def test_wire_format_trims_the_candidate_sweep(self, workload):
        # The per-candidate evaluations table is O(m^2) introspection
        # data; the pipe ships the contract without it.
        serial = solve_subproblems(workload[:2], mu=1.0)
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        try:
            designs = shard.solve_columnar(
                columnar_frame(workload[:2], ["fpA", "fpB"])
            )
        finally:
            shard.stop()
        for subproblem, design in zip(workload[:2], designs):
            assert design.evaluations == ()
            expected = serial[subproblem.subject_id].result
            assert _compensation_bytes(design) == _compensation_bytes(expected)
            assert design.k_opt == expected.k_opt

    def test_application_error_keeps_shard_alive(self, workload):
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        try:
            with pytest.raises(ServingError) as excinfo:
                shard.request("no_such_op")
            assert not isinstance(excinfo.value, ShardTransportError)
            assert shard.alive
            designs = shard.solve_columnar(columnar_frame(workload[:1], ["fp"]))
            assert len(designs) == 1
        finally:
            shard.stop()

    def test_pickled_solve_op_is_gone(self, workload):
        # Frames are the only solve payload on the pipe.
        assert not hasattr(ShardProcess, "solve")
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        try:
            with pytest.raises(ServingError, match="unknown shard op 'solve'"):
                shard.request("solve", (tuple(workload[:1]), ("fp",)))
            assert shard.alive
        finally:
            shard.stop()

    def test_dead_shard_raises_transport_error(self, workload):
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        shard.kill()
        with pytest.raises(ShardTransportError):
            shard.solve_columnar(columnar_frame(workload[:1], ["fp"]))

    def test_restart_after_kill(self):
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        first_pid = shard.pid
        shard.kill()
        shard.start()
        try:
            assert shard.alive
            assert shard.pid != first_pid
            assert shard.restarts == 1
        finally:
            shard.stop()

    def test_spec_validation(self):
        with pytest.raises(ServingError):
            ShardSpec(shard_id="")


class TestRouting:
    def test_matches_serial_and_reports_hits(self, router, workload):
        serial = solve_subproblems(workload, mu=1.0)
        designs, hits = router.solve_designs(workload)
        assert not any(hits)
        for subproblem, design in zip(workload, designs):
            assert pickle.dumps(design.contract.compensations) == pickle.dumps(
                serial[subproblem.subject_id].result.contract.compensations
            )
        _, warm_hits = router.solve_designs(workload)
        assert all(warm_hits)

    def test_router_cache_holds_each_fingerprint_once(self, router, workload):
        router.solve_designs(workload)
        router.solve_designs(workload)
        snapshot = router.stats_snapshot()
        # The one cache holds each fingerprint once, and the shards
        # solved each exactly once between them (no duplicated solving).
        unique = len(set(router.fingerprints(workload)))
        assert snapshot["totals"]["cache_entries"] == unique
        assert sum(
            shard["requests"] for shard in snapshot["shards"].values()
        ) == unique

    def test_warm_router_answers_a_repeated_batch_without_shard_round_trips(
        self, router, workload, round_trips
    ):
        router.solve_designs(workload)
        # The cold batch's misses went out in at most one frame per shard.
        assert 1 <= len(round_trips) <= 2
        assert len(set(round_trips)) == len(round_trips)
        del round_trips[:]
        designs, hits = router.solve_designs(workload)
        assert all(hits)
        assert round_trips == []
        serial = solve_subproblems(workload, mu=1.0)
        for subproblem, design in zip(workload, designs):
            assert _compensation_bytes(design) == _compensation_bytes(
                serial[subproblem.subject_id].result
            )

    def test_concurrent_batches_book_every_row_once(self, diverse_workload):
        """More requester threads than cores share the one cache, with a
        short switch interval: every row is booked once, as a hit or a
        miss, the shards solve exactly the misses, and every contract
        equals serial."""
        serial = solve_subproblems(diverse_workload, mu=1.0)
        expected = {
            subject_id: _compensation_bytes(solution.result)
            for subject_id, solution in serial.items()
        }
        batches = synthetic_request_batches(
            diverse_workload, n_requests=160, batch_size=5, seed=3
        )
        failures = []
        # 2 x 8 entries for 40 archetypes: lookups, evictions and miss
        # frames interleave for the whole run.
        with ShardRouter(
            n_shards=2, cache_capacity=8, supervise_interval=0.0
        ) as router:
            n_rows = sum(len(set(router.fingerprints(batch))) for batch in batches)

            def requester(part):
                try:
                    for batch in batches[part::8]:
                        designs, _ = router.solve_designs(batch)
                        failures.extend(
                            subproblem.subject_id
                            for subproblem, design in zip(batch, designs)
                            if _compensation_bytes(design)
                            != expected[subproblem.subject_id]
                        )
                except Exception as error:  # noqa: BLE001 - reported below
                    failures.append(repr(error))

            threads = [
                threading.Thread(target=requester, args=(part,))
                for part in range(8)
            ]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120.0)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            snapshot = router.stats_snapshot()
        assert failures == []
        totals = snapshot["totals"]
        assert snapshot["router"]["cluster.requests"]["value"] == n_rows
        assert totals["cache_hits"] + totals["cache_misses"] == n_rows
        assert totals["cache_misses"] > 0
        assert sum(
            shard["requests"] for shard in snapshot["shards"].values()
        ) == totals["cache_misses"]

    def test_cache_is_n_shards_times_cache_capacity(self, workload):
        # Two shards of one entry each: the router's cache holds two.
        with ShardRouter(
            n_shards=2, cache_capacity=1, supervise_interval=0.0
        ) as router:
            router.solve_designs(workload)
            assert router.stats_snapshot()["totals"]["cache_entries"] == 2.0

    def test_empty_batch(self, router):
        assert router.solve_designs([]) == ([], [])

    def test_requires_start(self, workload):
        stopped = ShardRouter(n_shards=1)
        with pytest.raises(ServingError):
            stopped.solve_designs(workload[:1])


class TestFixedMembership:
    def test_unknown_shard_cannot_be_killed(self, router):
        with pytest.raises(ServingError):
            router.kill_shard("nope")

    def test_start_after_close_boots_and_supervises_the_same_shards(self):
        router = ShardRouter(n_shards=2, supervise_interval=0.1)
        router.start()
        router.close()
        router.start()
        try:
            assert router.shard_ids == ("shard-0", "shard-1")
            router.kill_shard("shard-0")
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if router.healthz()["status"] == "ok":
                    break
                time.sleep(0.05)
            report = router.healthz()
            assert report["status"] == "ok", report
            assert report["shards"]["shard-0"]["restarts"] == 1
        finally:
            router.close()
        assert router.shard_ids == ()


class TestFailover:
    def test_dead_shard_fails_over_without_losing_requests(
        self, router, diverse_workload, round_trips
    ):
        survivor = router.shard_ids[1]
        router.kill_shard(router.shard_ids[0])
        designs, hits = router.solve_designs(diverse_workload)
        assert len(designs) == len(diverse_workload)
        assert not any(hits)
        # The dead shard is skipped: every miss goes out in one frame to
        # the survivor, with no transport error and no local solving.
        assert round_trips == [survivor]
        assert router.stats.routed.value == 1
        assert router.stats.transport_errors.value == 0
        assert router.stats.local_fallbacks.value == 0

    def test_dead_shards_frame_is_served_by_a_live_one(self, diverse_workload):
        serial = solve_subproblems(diverse_workload, mu=1.0)
        with ShardRouter(n_shards=3, supervise_interval=0.0) as router:
            victim = next(
                process for process in router._shards
                if process.shard_id == "shard-0"
            )
            original = victim.solve_columnar

            def die_in_flight(*args, **kwargs):
                victim.kill()
                return original(*args, **kwargs)

            # The victim is alive at dispatch and dies with its frame in
            # flight, so the frame fails in transport.
            victim.solve_columnar = die_in_flight
            designs, hits = router.solve_designs(diverse_workload)
            assert not any(hits)
            for subproblem, design in zip(diverse_workload, designs):
                assert _compensation_bytes(design) == _compensation_bytes(
                    serial[subproblem.subject_id].result
                )
            # One frame per live shard; the victim's went to the next
            # live shard by index, and nothing was solved in-process.
            assert router.stats.transport_errors.value == 1
            assert router.stats.retries.value == 1
            assert router.stats.routed.value == 3
            assert router.stats.local_fallbacks.value == 0
            shards = router.stats_snapshot()["shards"]
            assert set(shards) == {"shard-1", "shard-2"}
            assert sum(shard["requests"] for shard in shards.values()) == len(
                set(router.fingerprints(diverse_workload))
            )

    def test_revive_restores_clean_health_and_keeps_every_hit(
        self, router, diverse_workload, round_trips
    ):
        serial = solve_subproblems(diverse_workload, mu=1.0)
        router.solve_designs(diverse_workload)
        victim = router.shard_ids[0]
        router.kill_shard(victim)
        assert router.healthz()["status"] == "degraded"
        revived = router.revive_dead_shards()
        assert revived == (victim,)
        report = router.healthz()
        assert report["status"] == "ok"
        assert report["shards"][victim]["alive"]
        # The cache lives in the router: the revived shard changes
        # nothing, so the batch is all hits, with no shard round trip,
        # and every contract equals serial.
        del round_trips[:]
        designs, hits = router.solve_designs(diverse_workload)
        assert all(hits)
        assert round_trips == []
        for subproblem, design in zip(diverse_workload, designs):
            assert _compensation_bytes(design) == _compensation_bytes(
                serial[subproblem.subject_id].result
            )

    def test_local_fallback_when_every_shard_is_down(self, workload, monkeypatch):
        monkeypatch.setattr(router_module, "BACKOFF", 0.0)
        with ShardRouter(n_shards=2, supervise_interval=0.0) as isolated:
            for shard_id in isolated.shard_ids:
                isolated.kill_shard(shard_id)
            designs, _ = isolated.solve_designs(workload[:5])
            assert len(designs) == 5
            assert isolated.stats.local_fallbacks.value > 0

    def test_validation(self):
        with pytest.raises(ServingError):
            ShardRouter(n_shards=-1)
        with pytest.raises(ServingError):
            ShardRouter(supervise_interval=-1.0)


class TestIntrospection:
    def test_healthz_shape(self, router):
        report = router.healthz()
        assert report["status"] == "ok"
        assert report["n_shards"] == 2
        assert report["n_healthy"] == 2
        for shard_id, info in report["shards"].items():
            assert info["alive"]
            assert info["shard_id"] == shard_id

    def test_stats_snapshot_shape(self, router, workload):
        router.solve_designs(workload)
        snapshot = router.stats_snapshot()
        # The router counts one row per distinct fingerprint.
        assert snapshot["router"]["cluster.requests"]["value"] == float(
            len(set(router.fingerprints(workload)))
        )
        assert set(snapshot["shards"]) == set(router.shard_ids)


class TestZeroShardRouter:
    """``n_shards=0``: the router's in-process pool serves every batch."""

    def test_contracts_are_bit_identical_to_serial(self, workload):
        serial = solve_subproblems(workload, mu=1.0)
        with ShardRouter(n_shards=0) as router:
            assert router.shard_ids == ()
            designs, hits = router.solve_designs(workload)
        assert not any(hits)
        for subproblem, design in zip(workload, designs):
            assert _compensation_bytes(design) == _compensation_bytes(
                serial[subproblem.subject_id].result
            )

    def test_later_rounds_hit_the_cache(self, workload):
        serial = solve_subproblems(workload, mu=1.0)
        with ShardRouter(n_shards=0) as router:
            router.solve_designs(workload)
            for _ in range(2):
                designs, hits = router.solve_designs(workload)
                assert all(hits)
                for subproblem, design in zip(workload, designs):
                    assert _compensation_bytes(design) == _compensation_bytes(
                        serial[subproblem.subject_id].result
                    )

    def test_batches_count_but_are_not_fallbacks(self, workload):
        with ShardRouter(n_shards=0) as router:
            router.solve_designs(workload)
            router.solve_designs(workload)
            n_rows = len(set(router.fingerprints(workload)))
            assert router.stats.requests.value == 2 * n_rows
            assert router.stats.batches.value == 2
            assert router.stats.local_fallbacks.value == 0
            router_metrics = router.stats_snapshot()["router"]
        # The pool's own counters publish beside the router's; it sees
        # the router's rows, not the subjects behind them.
        assert router_metrics["cluster.local.requests"]["value"] == 2 * n_rows
        assert router_metrics["cluster.local.cache_hits"]["value"] == n_rows

    def test_healthz_is_ok_while_running(self):
        router = ShardRouter(n_shards=0)
        assert router.healthz()["status"] == "degraded"
        with router:
            report = router.healthz()
            assert report["status"] == "ok"
            assert report["n_shards"] == 0
        assert router.healthz()["status"] == "degraded"
