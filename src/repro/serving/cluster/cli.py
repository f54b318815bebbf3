"""Command-line front end for the sharded serving cluster.

Reused by the main ``repro`` CLI::

    repro bench-serve --shards 4 --requests 800          # closed-loop bench
    repro bench-serve --shards 2 --http --concurrency 8  # over HTTP
    repro bench-serve --shards 2 --kill-shard-at 100 --check

``repro bench-serve`` boots a shard cluster, replays synthetic-archetype
traffic through it with the closed-loop load generator, and prints the
throughput/latency report (p50/p99 via :mod:`repro.obs` histograms).
``--kill-shard-at N`` SIGKILLs one shard mid-run after N completed
requests — the run must still finish with zero failed round-trips
(retry on a live shard + supervisor restart), which is also what the CI
cluster-smoke job asserts.  Exit status: 0 on success, 1 when any round-trip failed,
``--check`` finds a contract mismatch, or the cluster does not report
a clean ``/healthz`` after recovery.
"""

from __future__ import annotations

import argparse
import pickle
import time
from typing import Any, Dict, List, Optional

from ...core.decomposition import Subproblem, solve_subproblems
from ...errors import ServingError
from ...obs.cli import add_obs_out_argument, obs_session
from ...obs.metrics import MetricsRegistry, get_registry
from ..loadgen import (
    LoadGenerator,
    LoadReport,
    http_target,
    router_target,
    synthetic_request_batches,
)
from ..workload import synthetic_subproblems
from .http import HTTPServerThread
from .router import ClusterStats, ShardRouter

__all__ = ["add_bench_serve_arguments", "run_bench_serve"]


def add_bench_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro bench-serve`` flags to a (sub)parser."""
    parser.add_argument(
        "--shards",
        type=int,
        default=2,
        help="shard processes in the cluster (default: 2)",
    )
    parser.add_argument(
        "--requests",
        type=int,
        default=400,
        help="total subproblem requests to replay (default: 400)",
    )
    parser.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="subproblems per round-trip (default: 8)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=4,
        help="closed-loop requester threads (default: 4)",
    )
    parser.add_argument(
        "--n-subjects",
        type=int,
        default=200,
        help="synthetic population size (default: 200)",
    )
    parser.add_argument(
        "--archetypes",
        type=int,
        default=16,
        help="distinct worker archetypes in the population (default: 16)",
    )
    parser.add_argument(
        "--cache-capacity",
        type=int,
        default=4096,
        help=(
            "contract-cache entries per shard; the router's one cache "
            "holds this times max(1, --shards) (default: 4096)"
        ),
    )
    parser.add_argument(
        "--mu", type=float, default=1.0, help="requester weight (default: 1.0)"
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    parser.add_argument(
        "--http",
        action="store_true",
        help="serve over the HTTP front end instead of in-process routing",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=0,
        help=(
            "bind port for the HTTP front end (default: 0 = pick a free "
            "one; a fixed port lets CI curl /metrics mid-run)"
        ),
    )
    parser.add_argument(
        "--kill-shard-at",
        type=int,
        default=None,
        metavar="N",
        help=(
            "SIGKILL one shard after N completed requests (fault "
            "injection; the run must still finish with zero failures)"
        ),
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify cluster contracts are byte-identical to serial solving",
    )
    add_obs_out_argument(parser)


def _registry_for(args: argparse.Namespace) -> MetricsRegistry:
    """The metrics registry of one serving CLI command.

    With ``--obs-out`` the counters publish into the process-global
    :mod:`repro.obs` registry, so the dump carries serving metrics next
    to the spans; without it they stay private to the command.
    """
    if getattr(args, "obs_out", None) is not None:
        return get_registry()
    return MetricsRegistry()


def _await_clean_health(router: ShardRouter, deadline_s: float = 15.0) -> bool:
    """Poll ``healthz`` until every shard answers (supervisor recovery)."""
    deadline = time.perf_counter() + deadline_s
    while time.perf_counter() < deadline:
        router.revive_dead_shards()
        if router.healthz()["status"] == "ok":
            return True
        time.sleep(0.1)
    return router.healthz()["status"] == "ok"


def _check_against_serial(
    router: ShardRouter, population: List[Subproblem], mu: float
) -> int:
    """Byte-compare cluster contracts with the serial design path."""
    serial = solve_subproblems(population, mu=mu)
    designs, _ = router.solve_designs(population)
    mismatches = 0
    for subproblem, design in zip(population, designs):
        cluster_bytes = pickle.dumps(design.contract.compensations)
        serial_bytes = pickle.dumps(
            serial[subproblem.subject_id].result.contract.compensations
        )
        if cluster_bytes != serial_bytes:
            print(
                f"CHECK FAILED: {subproblem.subject_id} differs from the "
                "serial path"
            )
            mismatches += 1
    if mismatches == 0:
        print(
            f"check passed: {len(population)} cluster contracts "
            "byte-identical to the serial path"
        )
    return mismatches


def _print_report(report: LoadReport, stats: ClusterStats) -> None:
    print(
        f"served {report.requests} requests in {report.duration_s:.3f}s "
        f"({report.throughput_rps:.1f} req/s, concurrency "
        f"{report.concurrency}, {report.errors} failed)"
    )
    print(
        f"latency p50 {report.p50_s * 1e3:.2f}ms  "
        f"p99 {report.p99_s * 1e3:.2f}ms  "
        f"mean {report.mean_s * 1e3:.2f}ms"
    )
    snapshot = stats.snapshot()
    for name in sorted(snapshot):
        fields = snapshot[name]
        if "value" in fields and fields["value"] > 0:
            print(f"{name:>28}: {int(fields['value'])}")
    for sample in report.error_samples:
        print(f"error: {sample}")


def run_bench_serve(args: argparse.Namespace) -> int:
    """Boot a cluster, replay closed-loop traffic, print the report."""
    # Shard-side records scraped over the pipes land here before the
    # cluster shuts down; obs_session merges them into the dump so
    # --obs-out yields ONE cross-process JSONL file.
    scraped: List[Dict[str, Any]] = []
    with obs_session(
        getattr(args, "obs_out", None), extra_records=lambda: scraped
    ):
        return _run_bench_serve(args, scraped)


def _scrape_into(router: ShardRouter, scraped: List[Dict[str, Any]]) -> None:
    """Collect shard span records into ``scraped`` (best effort)."""
    try:
        scrape = router.obs_scrape(include_spans=True)
    except Exception as error:  # noqa: BLE001 - dump what we have anyway
        print(f"obs scrape failed: {type(error).__name__}: {error}")
        return
    records = scrape.span_records()
    scraped.extend(records)
    print(
        f"scraped {len(records)} shard span record(s) from "
        f"{len(scrape.sources())} source(s)"
    )


def _run_bench_serve(
    args: argparse.Namespace, scraped: Optional[List[Dict[str, Any]]] = None
) -> int:
    if args.requests < 1:
        raise ServingError(f"--requests must be >= 1, got {args.requests!r}")
    population = synthetic_subproblems(
        n_subjects=args.n_subjects,
        n_archetypes=args.archetypes,
        seed=args.seed,
    )
    batches = synthetic_request_batches(
        population,
        n_requests=args.requests,
        batch_size=args.batch_size,
        seed=args.seed,
    )
    registry = _registry_for(args)
    stats = ClusterStats(registry=registry)
    router = ShardRouter(
        n_shards=args.shards,
        mu=args.mu,
        cache_capacity=args.cache_capacity,
        supervise_interval=0.2,
        stats=stats,
    )
    http_thread: Optional[HTTPServerThread] = None
    exit_code = 0
    with router:
        try:
            if args.http:
                http_thread = HTTPServerThread(router, port=args.port).start()
                host, port = http_thread.address
                target = http_target(host, port, mu=args.mu)
                print(f"cluster HTTP front end on http://{host}:{port}")
            else:
                target = router_target(router)

            checkpoints = None
            if args.kill_shard_at is not None:
                victim = router.shard_ids[0]

                def kill_victim() -> None:
                    print(
                        f"fault injection: killing {victim} after "
                        f"{args.kill_shard_at} requests"
                    )
                    router.kill_shard(victim)

                checkpoints = {args.kill_shard_at: kill_victim}

            generator = LoadGenerator(
                target,
                concurrency=args.concurrency,
                registry=registry,
            )
            report = generator.run(batches, checkpoints=checkpoints)
            if args.kill_shard_at is not None:
                # Recover before reporting, so the counters include the
                # killed shard's restart.
                if _await_clean_health(router):
                    print("healthz recovered: all shards answering")
                else:
                    print("FAILED: cluster did not recover a clean healthz")
                    exit_code = 1
            _print_report(report, stats)

            if report.errors:
                print(f"FAILED: {report.errors} round-trips failed")
                exit_code = 1
            if args.check and _check_against_serial(
                router, population, args.mu
            ):
                exit_code = 1
        finally:
            if scraped is not None and getattr(args, "obs_out", None):
                _scrape_into(router, scraped)
            if http_thread is not None:
                http_thread.stop()
    return exit_code
