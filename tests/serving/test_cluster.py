"""Tests for the sharded cluster router: routing, handoff, failover."""

from __future__ import annotations

import pickle

import pytest

from repro.core import solve_subproblems
from repro.errors import ServingError
from repro.serving import ShardProcess, ShardRouter, ShardSpec
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

    def test_cache_export_import_round_trip(self, workload):
        source = ShardProcess(ShardSpec(shard_id="src"))
        sink = ShardProcess(ShardSpec(shard_id="dst"))
        source.start()
        sink.start()
        try:
            fingerprints = [f"fp{i}" for i in range(4)]
            frame = columnar_frame(workload[:4], fingerprints)
            source.solve_columnar(frame)
            entries = source.cache_export()
            assert sorted(fp for fp, _ in entries) == sorted(fingerprints)
            assert sink.cache_import(entries) == 4
            _, hits = sink.solve_columnar(frame)
            assert hits == [True, True, True, True]
        finally:
            source.stop()
            sink.stop()

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


class TestMembership:
    def test_add_shard_receives_warm_handoff(self, router, diverse_workload):
        router.solve_designs(diverse_workload)
        joined = router.add_shard()
        assert joined in router.shard_ids
        _, hits = router.solve_designs(diverse_workload)
        # The moved sliver was handed over warm: no shard re-solves.
        assert all(hits)
        assert router.stats.handoff_entries.value > 0

    def test_remove_shard_redistributes_its_cache(self, router, workload):
        router.solve_designs(workload)
        victim = router.shard_ids[0]
        router.remove_shard(victim)
        assert victim not in router.shard_ids
        _, hits = router.solve_designs(workload)
        assert all(hits)

    def test_cannot_remove_last_shard(self, workload):
        with ShardRouter(n_shards=1, supervise_interval=0.0) as single:
            with pytest.raises(ServingError):
                single.remove_shard(single.shard_ids[0])

    def test_membership_validation(self, router):
        with pytest.raises(ServingError):
            router.add_shard(router.shard_ids[0])
        with pytest.raises(ServingError):
            router.remove_shard("nope")
        with pytest.raises(ServingError):
            router.kill_shard("nope")


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

    def test_revive_restores_clean_health_and_warm_cache(
        self, router, workload
    ):
        router.solve_designs(workload)
        victim = router.shard_ids[0]
        router.kill_shard(victim)
        assert router.healthz()["status"] == "degraded"
        # Serving through the outage lands the victim's keys on the
        # surviving peer's cache (failover), which is what re-warms the
        # victim at revival.
        router.solve_designs(workload)
        revived = router.revive_dead_shards()
        assert revived == (victim,)
        report = router.healthz()
        assert report["status"] == "ok"
        assert report["shards"][victim]["alive"]
        _, hits = router.solve_designs(workload)
        assert all(hits)  # peers re-warmed the revived shard

    def test_local_fallback_when_every_shard_is_down(self, workload):
        with ShardRouter(
            n_shards=2, supervise_interval=0.0, backoff=0.0
        ) as isolated:
            for shard_id in isolated.shard_ids:
                isolated.kill_shard(shard_id)
            designs, _ = isolated.solve_designs(workload[:5])
            assert len(designs) == 5
            assert isolated.stats.local_fallbacks.value > 0

    def test_validation(self):
        with pytest.raises(ServingError):
            ShardRouter(n_shards=-1)
        with pytest.raises(ServingError):
            ShardRouter(max_retries=-1)
        with pytest.raises(ServingError):
            ShardRouter(backoff=-0.1)
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
        assert snapshot["router"]["cluster.requests"]["value"] == float(
            len(workload)
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
            assert router.stats.requests.value == 2 * len(workload)
            assert router.stats.batches.value == 2
            assert router.stats.local_fallbacks.value == 0
            router_metrics = router.stats_snapshot()["router"]
        # The pool's own counters publish beside the router's.
        assert router_metrics["cluster.local.requests"]["value"] == 2 * len(workload)
        assert router_metrics["cluster.local.cache_hits"]["value"] == len(
            set(router.fingerprints(workload))
        )

    def test_healthz_is_ok_while_running(self):
        router = ShardRouter(n_shards=0)
        assert router.healthz()["status"] == "degraded"
        with router:
            report = router.healthz()
            assert report["status"] == "ok"
            assert report["n_shards"] == 0
        assert router.healthz()["status"] == "degraded"
