"""Fault-injection acceptance: kill a shard mid-run, lose nothing.

The acceptance criterion for the cluster tier: a shard SIGKILLed in the
middle of a replayed workload must not lose a single request (the next
live shard, bounded retry, then in-process solving), the supervisor
must bring the cluster back to a clean ``/healthz``, and every contract
served — including those served during the outage — must be
byte-identical to serial solving.  The CI ``cluster-smoke`` job runs this module plus the
``repro bench-serve --kill-shard-at`` CLI path.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cli import main
from repro.core import solve_subproblems
from repro.serving import (
    LoadGenerator,
    ShardRouter,
    router_target,
    synthetic_request_batches,
)
from repro.serving.workload import synthetic_subproblems

_N_SUBJECTS = 48
_N_ARCHETYPES = 16
_N_REQUESTS = 200
_SEED = 41


@pytest.fixture(scope="module")
def population():
    return synthetic_subproblems(
        n_subjects=_N_SUBJECTS, n_archetypes=_N_ARCHETYPES, seed=_SEED
    )


@pytest.fixture(scope="module")
def serial_bytes(population):
    serial = solve_subproblems(population, mu=1.0)
    return {
        subject_id: pickle.dumps(solution.result.contract.compensations)
        for subject_id, solution in serial.items()
    }


def test_shard_kill_mid_run_loses_nothing(population, serial_bytes):
    batches = synthetic_request_batches(
        population, n_requests=_N_REQUESTS, batch_size=4, seed=_SEED
    )
    served = {}

    # A router cache of 2 x 4 entries for 16 archetypes keeps missing,
    # so miss frames keep reaching the shards through the outage.
    with ShardRouter(
        n_shards=2, cache_capacity=4, supervise_interval=0.1
    ) as router:
        victim = router.shard_ids[0]
        target = router_target(router)

        def solve_and_record(batch):
            designs, _ = target(batch)
            for subproblem, design in zip(batch, designs):
                served[subproblem.subject_id] = pickle.dumps(
                    design.contract.compensations
                )
            return designs

        routed_at_kill = []

        def kill_victim():
            routed_at_kill.append(router.stats.routed.value)
            router.kill_shard(victim)

        generator = LoadGenerator(solve_and_record, concurrency=4)
        report = generator.run(
            batches, checkpoints={_N_REQUESTS // 4: kill_victim}
        )

        # Zero lost requests: every round-trip completed.
        assert report.errors == 0, report.error_samples
        assert report.requests == _N_REQUESTS

        # The outage was real (shards kept solving misses after the
        # kill) and the live shards absorbed it: no frame was left to
        # in-process solving.
        assert router.stats.routed.value > routed_at_kill[0]
        assert router.stats.local_fallbacks.value == 0

        # Clean recovery: the supervisor revives the shard; poll a few
        # sweeps' worth of time.
        recovered = False
        for _ in range(100):
            router.revive_dead_shards()
            if router.healthz()["status"] == "ok":
                recovered = True
                break
        assert recovered, router.healthz()
        assert router.stats.restarts.value >= 1

        # Byte-identity through the fault: everything served during and
        # after the outage equals the serial design path.
        assert served, "loadgen recorded nothing"
        for subject_id, blob in served.items():
            assert blob == serial_bytes[subject_id], subject_id

        # And the recovered cluster still serves identical bytes.
        designs, _ = router.solve_designs(population)
        for subproblem, design in zip(population, designs):
            assert (
                pickle.dumps(design.contract.compensations)
                == serial_bytes[subproblem.subject_id]
            )


def test_bench_serve_reports_the_revived_shard(capsys):
    """``repro bench-serve --kill-shard-at`` prints its counters after
    the killed shard is revived, so the report counts the restart."""
    exit_code = main(
        ["bench-serve", "--shards", "2", "--requests", "300", "--kill-shard-at", "75"]
    )
    out = capsys.readouterr().out
    assert exit_code == 0, out
    assert "cluster.restarts: 1" in out, out
    assert out.index("healthz recovered") < out.index("cluster.restarts:")
