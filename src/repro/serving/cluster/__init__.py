"""Sharded multi-process contract serving (`repro.serving.cluster`).

The serving tier's one front end.  One process tops out at one
GIL-bound interpreter and one cache's worth of warm contracts; this
package scales the serving layer out, and its router with
``n_shards=0`` is also the single-process deployment:

* :mod:`~repro.serving.cluster.shard` — one worker *process* per shard,
  each running its own :class:`~repro.serving.pool.SolverPool` +
  :class:`~repro.serving.cache.ContractCache`, spoken to over a pipe.
* :mod:`~repro.serving.cluster.router` — a fixed set of shards, each
  design fingerprint owned by one of them (a stable SHA-256 hash modulo
  the shard count), bounded retry/backoff failover to the following
  shards, a supervisor that restarts crashed shards in place with cold
  caches, and an in-process pool that is the last resort (no request
  is ever lost) or, without shards, the solver.
* :mod:`~repro.serving.cluster.http` — a minimal stdlib HTTP/JSON front
  end (``/solve_batch``, ``/healthz``, ``/stats``, ``/metrics``).
* :mod:`~repro.serving.cluster.codec` — the one wire format: columnar
  batch frames in, solved designs out.

The closed-loop load harness lives one level up in
:mod:`repro.serving.loadgen` (``repro bench-serve`` on the CLI).
"""

from __future__ import annotations

from .codec import design_to_json
from .http import ClusterHTTPServer, HTTPServerThread, run_http_in_thread
from .router import ClusterStats, ShardRouter
from .shard import ShardProcess, ShardSpec

__all__ = [
    "ClusterHTTPServer",
    "ClusterStats",
    "HTTPServerThread",
    "ShardProcess",
    "ShardRouter",
    "ShardSpec",
    "design_to_json",
    "run_http_in_thread",
]
