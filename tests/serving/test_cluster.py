"""Tests for the sharded cluster router: routing, failover, supervision."""

from __future__ import annotations

import hashlib
import pickle
import time

import pytest

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.serving import ShardProcess, ShardRouter, ShardSpec
from repro.serving.cluster import router as router_module
from repro.serving.cluster.codec import columnar_frame
from repro.serving.cluster.shard import ShardTransportError
from repro.serving.workload import synthetic_subproblems


@pytest.fixture(scope="module")
def workload():
    return synthetic_subproblems(n_subjects=30, n_archetypes=6, seed=23)


@pytest.fixture(scope="module")
def diverse_workload():
    # Fully heterogeneous: 40 unique fingerprints, so every shard owns a
    # non-trivial slice of keys (6 archetypes could all land on one
    # shard by chance; 40 cannot, so shard-coverage assertions are
    # deterministic in practice).
    return synthetic_subproblems(n_subjects=40, n_archetypes=40, seed=29)


@pytest.fixture()
def router():
    # Supervisor disabled: tests drive revival explicitly for determinism.
    with ShardRouter(n_shards=2, supervise_interval=0.0) as instance:
        yield instance


def _compensation_bytes(design):
    return pickle.dumps(design.contract.compensations)


class TestShardProcess:
    def test_solve_health_and_stats(self, workload):
        serial = solve_subproblems(workload[:3], mu=1.0)
        shard = ShardProcess(ShardSpec(shard_id="s0"))
        shard.start()
        try:
            # The shard trusts the fingerprints it is sent (the router
            # computed them), so distinct labels give three frame rows.
            frame = columnar_frame(workload[:3], [f"fp{i}" for i in range(3)])
            designs, hits = shard.solve_columnar(frame)
            assert len(designs) == 3 and hits == [False, False, False]
            for subproblem, design in zip(workload[:3], designs):
                assert _compensation_bytes(design) == _compensation_bytes(
                    serial[subproblem.subject_id].result
                )
            _, hits_again = shard.solve_columnar(frame)
            assert hits_again == [True, True, True]
            health = shard.health()
            assert health["shard_id"] == "s0"
            assert health["cache_entries"] == 3
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
            designs, _ = shard.solve_columnar(
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
            designs, _ = shard.solve_columnar(columnar_frame(workload[:1], ["fp"]))
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
        with pytest.raises(ServingError):
            ShardSpec(shard_id="s", cache_capacity=0)


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

    def test_cache_affinity_keeps_each_fingerprint_on_one_shard(
        self, router, workload
    ):
        router.solve_designs(workload)
        router.solve_designs(workload)
        snapshot = router.stats_snapshot()
        # Unique archetypes split across shards; together they hold each
        # fingerprint exactly once (no duplicated solving across shards).
        total_entries = sum(
            shard["cache_entries"] for shard in snapshot["shards"].values()
        )
        unique = len(set(router.fingerprints(workload)))
        assert total_entries == unique

    def test_solve_keyed_by_subject(self, router, workload):
        solutions = router.solve(workload)
        assert set(solutions) == {entry.subject_id for entry in workload}
        with pytest.raises(ServingError):
            router.solve([workload[0], workload[0]])

    def test_empty_batch(self, router):
        assert router.solve_designs([]) == ([], [])

    def test_requires_start(self, workload):
        stopped = ShardRouter(n_shards=1)
        with pytest.raises(ServingError):
            stopped.solve_designs(workload[:1])


def _owner(fingerprint, n_shards):
    """The documented ownership rule: SHA-256's first 8 bytes, mod N."""
    digest = hashlib.sha256(fingerprint.encode("utf-8")).digest()
    return f"shard-{int.from_bytes(digest[:8], 'big') % n_shards}"


def _cached_counts(router):
    return {
        shard_id: shard["cache_entries"]
        for shard_id, shard in router.stats_snapshot()["shards"].items()
    }


def _observed_owners(router, subproblems):
    """Each fingerprint's shard, read off the shard that cached it."""
    owners = {}
    for subproblem, fingerprint in zip(
        subproblems, router.fingerprints(subproblems)
    ):
        if fingerprint in owners:
            continue
        before = _cached_counts(router)
        router.solve_designs([subproblem])
        after = _cached_counts(router)
        (owner,) = [sid for sid in after if after[sid] > before[sid]]
        owners[fingerprint] = owner
    return owners


class TestFixedMembership:
    def test_same_shard_count_assigns_every_fingerprint_alike(
        self, diverse_workload
    ):
        subproblems = diverse_workload[:12]
        observed = []
        for _ in range(2):
            with ShardRouter(n_shards=3, supervise_interval=0.0) as router:
                assert router.shard_ids == ("shard-0", "shard-1", "shard-2")
                observed.append(_observed_owners(router, subproblems))
        assert observed[0] == observed[1]
        assert len(set(observed[0].values())) == 3
        for fingerprint, owner in observed[0].items():
            assert owner == _owner(fingerprint, 3)

    def test_dead_owner_fails_over_to_the_next_shard_by_index(
        self, diverse_workload
    ):
        serial = solve_subproblems(diverse_workload, mu=1.0)
        with ShardRouter(n_shards=3, supervise_interval=0.0) as router:
            owned = [
                subproblem
                for subproblem, fingerprint in zip(
                    diverse_workload, router.fingerprints(diverse_workload)
                )
                if _owner(fingerprint, 3) == "shard-0"
            ]
            assert owned
            router.kill_shard("shard-0")
            designs, hits = router.solve_designs(owned)
            assert router.stats.failovers.value > 0
            assert not any(hits)
            for subproblem, design in zip(owned, designs):
                assert _compensation_bytes(design) == _compensation_bytes(
                    serial[subproblem.subject_id].result
                )
            n_rows = len(set(router.fingerprints(owned)))
            counts = _cached_counts(router)
        # shard-1 follows shard-0 by index; shard-2 is never asked.
        assert counts == {"shard-1": n_rows, "shard-2": 0}

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
        self, router, diverse_workload
    ):
        router.solve_designs(diverse_workload)
        router.kill_shard(router.shard_ids[0])
        designs, _ = router.solve_designs(diverse_workload)
        assert len(designs) == len(diverse_workload)
        # The dead owner is skipped, so its groups land on the survivor.
        # (transport_errors only fires when a request is in flight at
        # kill time, which a sequential test cannot guarantee.)
        assert router.stats.failovers.value > 0

    def test_revive_restores_clean_health_with_a_cold_cache(
        self, router, diverse_workload
    ):
        serial = solve_subproblems(diverse_workload, mu=1.0)
        router.solve_designs(diverse_workload)
        victim = router.shard_ids[0]
        router.kill_shard(victim)
        assert router.healthz()["status"] == "degraded"
        router.solve_designs(diverse_workload)
        revived = router.revive_dead_shards()
        assert revived == (victim,)
        report = router.healthz()
        assert report["status"] == "ok"
        assert report["shards"][victim]["alive"]
        # The victim restarts empty: its own fingerprints miss once, the
        # survivor's still hit, and every contract equals serial.
        designs, hits = router.solve_designs(diverse_workload)
        fingerprints = router.fingerprints(diverse_workload)
        victims = [_owner(fingerprint, 2) == victim for fingerprint in fingerprints]
        assert any(victims) and not all(victims)
        assert hits == [not owned for owned in victims]
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
            router.solve(workload)
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
