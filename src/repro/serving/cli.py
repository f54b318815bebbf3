"""Command-line front end for the contract-serving layer.

Reused by the main ``repro`` CLI::

    repro solve --n-subjects 200                    # one pooled solve
    repro solve --rounds 5 --check                  # cached rounds + audit
    repro serve --rounds 3 --n-subjects 200         # marketplace rounds
    repro serve --rounds 3 --parallel 2             # ... over 2 shards

``repro solve`` drives the in-process
:class:`~repro.serving.pool.SolverPool` (this is also the CI serving
smoke test); ``repro serve`` drives the same rounds through the serving
tier's one front end, a
:class:`~repro.serving.cluster.router.ShardRouter` (``--parallel 0``:
no shards, the router solves its cache misses in-process).
Exit status: 0 on success, 1 when ``--check`` finds a mismatch.
"""

from __future__ import annotations

import argparse
import pickle
import time
from typing import Any, Dict, List

from ..core.decomposition import (
    Subproblem,
    SubproblemSolution,
    decomposition_report,
    solve_subproblems,
)
from ..errors import ServingError
from ..obs.cli import add_obs_out_argument, obs_session
from .cache import ContractCache
from .cluster.cli import _registry_for, _scrape_into
from .cluster.router import ClusterStats, ShardRouter
from .pool import SolverPool
from .stats import ServingStats
from .workload import synthetic_subproblems

__all__ = ["add_solve_arguments", "add_serve_arguments", "run_solve", "run_serve"]


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
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
        "--rounds",
        type=int,
        default=1,
        help="marketplace rounds to serve (default: 1)",
    )
    parser.add_argument(
        "--mu", type=float, default=1.0, help="requester weight (default: 1.0)"
    )
    parser.add_argument(
        "--seed", type=int, default=7, help="workload seed (default: 7)"
    )
    add_obs_out_argument(parser)


def add_solve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro solve`` flags to a (sub)parser."""
    _add_workload_arguments(parser)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify pooled/cached designs are byte-identical to serial",
    )


def add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro serve`` flags to a (sub)parser."""
    _add_workload_arguments(parser)
    parser.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="shard processes behind the router; 0 = in-process (default: 0)",
    )


def _workload(args: argparse.Namespace) -> List[Subproblem]:
    if args.rounds < 1:
        raise ServingError(f"--rounds must be >= 1, got {args.rounds!r}")
    return synthetic_subproblems(
        n_subjects=args.n_subjects,
        n_archetypes=args.archetypes,
        seed=args.seed,
    )


def run_solve(args: argparse.Namespace) -> int:
    """Solve a synthetic population through the pool; print a report."""
    with obs_session(getattr(args, "obs_out", None)):
        return _run_solve(args)


def _run_solve(args: argparse.Namespace) -> int:
    subproblems = _workload(args)
    stats = ServingStats(registry=_registry_for(args))
    pool = SolverPool(mu=args.mu, cache=ContractCache(), stats=stats)
    started = time.perf_counter()
    for _ in range(args.rounds):
        solutions = pool.solve(subproblems)
    elapsed = time.perf_counter() - started

    report = decomposition_report(solutions, mu=args.mu)
    print(f"solved {len(subproblems)} subjects x {args.rounds} round(s) "
          f"in {elapsed:.3f}s ({args.rounds * len(subproblems) / elapsed:.1f} designs/s)")
    for key, value in report.items():
        print(f"{key:>20}: {value:.4f}")
    print(stats.format())

    if args.check:
        serial = solve_subproblems(subproblems, mu=args.mu)
        for subject_id, solution in solutions.items():
            pooled_bytes = pickle.dumps(solution.result.contract.compensations)
            serial_bytes = pickle.dumps(
                serial[subject_id].result.contract.compensations
            )
            if pooled_bytes != serial_bytes:
                print(f"CHECK FAILED: {subject_id} differs from the serial path")
                return 1
        print(f"check passed: {len(solutions)} pooled/cached contracts "
              "byte-identical to the serial path")
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Serve synthetic marketplace rounds through the shard router."""
    # As in bench-serve: shard spans scraped before the router closes
    # join the router's own in one --obs-out dump.
    scraped: List[Dict[str, Any]] = []
    with obs_session(
        getattr(args, "obs_out", None), extra_records=lambda: scraped
    ):
        return _run_serve(args, scraped)


def _run_serve(args: argparse.Namespace, scraped: List[Dict[str, Any]]) -> int:
    subproblems = _workload(args)
    stats = ClusterStats(registry=_registry_for(args))
    with ShardRouter(n_shards=args.parallel, mu=args.mu, stats=stats) as router:
        for round_index in range(args.rounds):
            designs, hits = router.solve_designs(subproblems)
            report = decomposition_report(
                {
                    subproblem.subject_id: SubproblemSolution(subproblem, design)
                    for subproblem, design in zip(subproblems, designs)
                },
                mu=args.mu,
            )
            print(
                f"round {round_index}: utility "
                f"{report['total_utility']:.4f}, hired "
                f"{int(report['n_hired'])}/{int(report['n_subjects'])}, "
                f"{sum(hits)} served from cache"
            )
        snapshot = router.stats_snapshot()
        if args.parallel and getattr(args, "obs_out", None):
            _scrape_into(router, scraped)
    # Router counters (its pool's and cache's under cluster.local.*),
    # then the misses the shards solved.
    print(f"-- serving stats ({args.parallel} shard(s)) --")
    for name, fields in sorted(snapshot["router"].items()):
        if fields.get("value", 0.0) > 0:
            print(f"{name:>32}: {int(fields['value'])}")
    totals = snapshot["totals"]
    print(f"{'cache_entries':>32}: {int(totals['cache_entries'])}")
    print(f"{'cache_hit_rate':>32}: {totals['cache_hit_rate']:.4f}")
    if snapshot["shards"]:
        solved = sum(shard["requests"] for shard in snapshot["shards"].values())
        print(f"{'shards.requests':>32}: {int(solved)}")
    return 0
