"""Contract serving: batched, cached design at marketplace scale.

The Section IV-B decomposition makes contract design one independent
subproblem per worker / community; this package turns that observation
into a serving layer:

* :mod:`~repro.serving.fingerprint` — canonical, hash-stable subproblem
  fingerprints (the cache/batch keys).
* :mod:`~repro.serving.cache` — a bounded LRU contract cache with
  hit/miss/eviction counters and a cached==fresh invariant.
* :mod:`~repro.serving.pool` — fingerprint-dedup batch solving with an
  optional cross-batch cache, in input order.
* :mod:`~repro.serving.stats` — latency / throughput / cache counters.
* :mod:`~repro.serving.workload` — synthetic subproblem populations for
  benchmarks and smoke tests.
* :mod:`~repro.serving.replay` — ledger-level verification that cached
  contracts match recomputed ones.
* :mod:`~repro.serving.cluster` — the one serving front end: a router
  holding the one contract cache in front of a fixed set of stateless
  shard processes that solve its misses (with zero shards, it solves
  them in-process; shards are the one tier that solves in other
  processes), fronted by a stdlib HTTP/JSON server that takes columnar
  frames at ``/solve_batch`` (plus ``/healthz``, ``/stats``,
  ``/metrics``).
* :mod:`~repro.serving.loadgen` — a closed-loop load harness recording
  p50/p99 latency through :mod:`repro.obs` histograms
  (``repro bench-serve`` on the CLI).
"""

from __future__ import annotations

import importlib
from typing import Any

from .cache import CacheStats, ContractCache, LRUCache, require_results_agree
from .fingerprint import design_fingerprint, subproblem_fingerprint
from .pool import (
    RedesignStats,
    SolveDiagnostics,
    SolverPool,
    require_redesigns_agree,
)
from .replay import verify_ledger, verify_round
from .stats import ServingStats
from .workload import synthetic_subproblems

#: Names of the front end and the load harness, imported on first use:
#: the simulation imports this package for the pool, and needs neither
#: the HTTP server nor the shard processes.
_LAZY = {
    "ClusterHTTPServer": ".cluster",
    "ClusterStats": ".cluster",
    "HTTPServerThread": ".cluster",
    "ShardProcess": ".cluster",
    "ShardRouter": ".cluster",
    "ShardSpec": ".cluster",
    "LoadGenerator": ".loadgen",
    "LoadReport": ".loadgen",
    "http_target": ".loadgen",
    "pool_target": ".loadgen",
    "router_target": ".loadgen",
    "synthetic_request_batches": ".loadgen",
}


def __getattr__(name: str) -> Any:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "CacheStats",
    "ClusterHTTPServer",
    "ClusterStats",
    "ContractCache",
    "HTTPServerThread",
    "LRUCache",
    "LoadGenerator",
    "LoadReport",
    "RedesignStats",
    "ServingStats",
    "ShardProcess",
    "ShardRouter",
    "ShardSpec",
    "SolveDiagnostics",
    "SolverPool",
    "design_fingerprint",
    "http_target",
    "pool_target",
    "require_redesigns_agree",
    "require_results_agree",
    "router_target",
    "subproblem_fingerprint",
    "synthetic_request_batches",
    "synthetic_subproblems",
    "verify_ledger",
    "verify_round",
]
