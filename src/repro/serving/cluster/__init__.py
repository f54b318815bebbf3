"""Sharded multi-process contract serving (`repro.serving.cluster`).

The serving tier's one front end.  One process tops out at one
GIL-bound interpreter; this package spends more processes on the one
part of serving that costs CPU, solving cache misses, and its router
with ``n_shards=0`` is also the single-process deployment:

* :mod:`~repro.serving.cluster.router` — the one contract cache: every
  row is answered from it, and only a batch's misses go out, at most
  one columnar frame per live shard.  A frame whose shard dies goes to
  the next live one with bounded retry/backoff, then is solved
  in-process (no request is ever lost); a supervisor restarts crashed
  shards in place.
* :mod:`~repro.serving.cluster.shard` — one stateless solver *process*
  per shard, spoken to over a pipe.
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
