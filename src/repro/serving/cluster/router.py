"""Fingerprint routing, failover and supervision over shard processes.

The :class:`ShardRouter` is the cluster's brain: it boots a fixed set of
shard processes (:class:`~repro.serving.cluster.shard.ShardProcess`),
``shard-0`` ... ``shard-{n-1}``, keeps exactly that membership until it
closes, and runs the request path that ties them together:

1. **route** — a batch is deduplicated to one row per design
   fingerprint, and each row goes to its owner shard,
   ``_hash64(fingerprint) % n_shards``, so repeats of the same
   subproblem always hit the same warm cache.  Section IV-B makes every
   design a pure function of its fingerprint, so the owner decides only
   which cache is warm, never which contract is served;
2. **retry / failover** — a shard that stops answering (transport
   failure, not an application error) is retried with linear backoff on
   the following shards by index, at most :data:`MAX_RETRIES` times;
3. **degrade, never drop** — when every shard attempt is exhausted the
   router solves locally in-process (its own small
   :class:`~repro.serving.pool.SolverPool`), so a request can slow down
   but never be lost.  A router built with ``n_shards=0`` serves every
   batch from that pool: the single-process deployment of the same
   request path;
4. **supervise** — a daemon thread restarts dead shards in place.  A
   revived shard starts with a cold cache; its first requests are
   misses, solved again to the same contracts.

Routing, retries and lifecycle transitions are all visible through
:mod:`repro.obs`: counters/histograms on :class:`ClusterStats` and
spans (``cluster.solve_batch``, ``cluster.solve_group``) when tracing
is enabled.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...core.decomposition import Subproblem, SubproblemSolution
from ...core.designer import DesignerConfig, DesignResult
from ...errors import ServingError
from ...obs.aggregate import ClusterScrape, ShardExport, federate, local_export
from ...obs.metrics import Counter, Histogram, MetricsRegistry
from ...obs.trace import NULL_SPAN, SpanContext, Tracer, get_tracer
from ..cache import ContractCache
from ..fingerprint import subproblem_fingerprint
from ..pool import SolverPool
from ..stats import ServingStats
from .codec import columnar_frame, expand_frame_results
from .shard import ShardProcess, ShardSpec, ShardTransportError

__all__ = ["ClusterStats", "ShardRouter"]

#: Seconds one shard attempt may take before it counts as a transport
#: failure.
REQUEST_TIMEOUT = 30.0

#: Shard attempts after the first before the local fallback pool takes
#: the group.
MAX_RETRIES = 2

#: Base seconds of the linear backoff between shard attempts.
BACKOFF = 0.05


def _hash64(payload: str) -> int:
    """A platform-stable 64-bit hash: the first 8 bytes of SHA-256."""
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class ClusterStats:
    """Obs-backed counters of the cluster router.

    A lock-free facade: every instrument below is an
    :mod:`repro.obs.metrics` primitive with its own internal lock, so
    the router can bump counters from any thread without coordination.

    Attributes:
        registry: the backing :class:`MetricsRegistry` (private unless
            one is injected — pass :func:`repro.obs.metrics.get_registry`
            to publish next to the rest of the process).
        requests: distinct design rows routed through the cluster (a
            batch counts one row per fingerprint, whoever sent it).
        batches: solve batches the router has served.
        routed: per-shard group dispatches (one per owner per batch).
        failovers: dispatches that landed on a non-owner shard.
        retries: shard attempts after the first, across all requests.
        transport_errors: shard attempts that died in transport.
        local_fallbacks: groups solved by the router's in-process pool.
        restarts: shard processes revived by the supervisor.
        request_latency: end-to-end seconds per routed group dispatch.

    The router's in-process pool (the fallback, or with zero shards the
    only solver) books its :class:`~repro.serving.stats.ServingStats`
    into the same registry under ``<namespace>.local.*``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "cluster",
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.namespace = namespace
        prefix = f"{namespace}." if namespace else ""
        self.requests: Counter = self.registry.counter(
            prefix + "requests", "distinct design rows routed through the cluster"
        )
        self.batches: Counter = self.registry.counter(
            prefix + "batches", "solve batches served by the router"
        )
        self.routed: Counter = self.registry.counter(
            prefix + "routed", "per-shard group dispatches"
        )
        self.failovers: Counter = self.registry.counter(
            prefix + "failovers", "dispatches served by a non-owner shard"
        )
        self.retries: Counter = self.registry.counter(
            prefix + "retries", "shard attempts after the first"
        )
        self.transport_errors: Counter = self.registry.counter(
            prefix + "transport_errors", "shard attempts that died in transport"
        )
        self.local_fallbacks: Counter = self.registry.counter(
            prefix + "local_fallbacks", "groups solved by the local fallback pool"
        )
        self.restarts: Counter = self.registry.counter(
            prefix + "restarts", "shards revived by the supervisor"
        )
        self.request_latency: Histogram = self.registry.histogram(
            prefix + "group_latency_s", "seconds per routed group dispatch"
        )

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every cluster metric as ``{name: {field: value}}``."""
        return self.registry.snapshot()


class ShardRouter:
    """Fingerprint router over a fixed set of shard processes.

    Args:
        n_shards: shards to boot at every :meth:`start` (ids ``shard-0``
            ... ``shard-{n-1}``); ``0`` serves every batch from the
            router's in-process pool.
        mu: the requester's compensation weight (shared by all shards).
        config: designer configuration shared by all shards.
        cache_capacity: per-shard contract-cache bound (the in-process
            pool's, when ``n_shards=0``).
        supervise_interval: seconds between supervisor liveness sweeps
            (``0`` disables the supervisor thread).
        stats: cluster counters; a private one is created when ``None``.
    """

    def __init__(
        self,
        n_shards: int = 2,
        mu: float = 1.0,
        config: Optional[DesignerConfig] = None,
        cache_capacity: int = 4096,
        supervise_interval: float = 0.5,
        stats: Optional[ClusterStats] = None,
    ) -> None:
        if n_shards < 0:
            raise ServingError(f"n_shards must be >= 0, got {n_shards!r}")
        if supervise_interval < 0.0:
            raise ServingError(
                f"supervise_interval must be >= 0, got {supervise_interval!r}"
            )
        self._n_shards = n_shards
        self.mu = mu
        self.config = config
        self.cache_capacity = cache_capacity
        self.supervise_interval = supervise_interval
        self.stats = stats if stats is not None else ClusterStats()
        self._lock = threading.RLock()
        self._shards: Tuple[ShardProcess, ...] = ()
        self._started = False
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # Last-resort solver: small private cache, in-process solving.
        # Without shards it is the only solver, so it gets a shard's
        # cache.  Its serving counters publish beside the router's.
        self._fallback_pool = SolverPool(
            mu=mu,
            config=config,
            cache=ContractCache(
                capacity=cache_capacity if n_shards == 0 else max(64, cache_capacity // 4)
            ),
            stats=ServingStats(
                registry=self.stats.registry,
                namespace=f"{self.stats.namespace}.local".lstrip("."),
            ),
        )

    # -- lifecycle ----------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the router has been started and not yet closed."""
        with self._lock:
            return self._started

    @property
    def shard_ids(self) -> Tuple[str, ...]:
        """The running shards' ids, in index order."""
        with self._lock:
            return tuple(process.shard_id for process in self._shards)

    def start(self) -> None:
        """Boot ``shard-0`` ... ``shard-{n-1}`` and the supervisor.

        Idempotent while running; after :meth:`close` it boots the same
        shard ids again, with cold caches.
        """
        with self._lock:
            if self._started:
                return
            self._started = True
            self._executor = ThreadPoolExecutor(
                max_workers=max(2, self._n_shards),
                thread_name_prefix="repro-cluster",
            )
            obs = get_tracer().enabled
            self._shards = tuple(
                ShardProcess(
                    ShardSpec(
                        shard_id=f"shard-{index}",
                        mu=self.mu,
                        config=self.config,
                        cache_capacity=self.cache_capacity,
                        obs=obs,
                    )
                )
                for index in range(self._n_shards)
            )
            for process in self._shards:
                process.start()
            if self.supervise_interval > 0.0:
                # A fresh event per run: the last run's is set for good.
                self._stop_event = threading.Event()
                supervisor = threading.Thread(
                    target=self._supervise_loop,
                    args=(self._stop_event,),
                    name="repro-cluster-supervisor",
                    daemon=True,
                )
                supervisor.start()
                self._supervisor = supervisor

    def close(self) -> None:
        """Stop the supervisor and every shard (idempotent)."""
        with self._lock:
            if not self._started:
                return
            self._started = False
            self._stop_event.set()
            supervisor = self._supervisor
            self._supervisor = None
        if supervisor is not None:
            supervisor.join(timeout=10.0)
        with self._lock:
            processes = self._shards
            self._shards = ()
            executor = self._executor
            self._executor = None
        for process in processes:
            process.stop()
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ShardRouter":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def kill_shard(self, shard_id: str) -> None:
        """SIGKILL one shard (fault injection).

        In-flight requests fail over to the following shards; the
        supervisor revives the shard on its next sweep.
        """
        with self._lock:
            process = next(
                (p for p in self._shards if p.shard_id == shard_id), None
            )
        if process is None:
            raise ServingError(f"shard {shard_id!r} not in the cluster")
        process.kill()

    # -- supervision --------------------------------------------------

    def _supervise_loop(self, stop: threading.Event) -> None:
        """Daemon body: revive dead shards until ``stop`` is set."""
        while not stop.wait(self.supervise_interval):
            try:
                self.revive_dead_shards()
            except ServingError:
                continue

    def revive_dead_shards(self) -> Tuple[str, ...]:
        """Restart every dead shard in place, with a cold cache.

        Returns:
            Ids of the shards revived in this sweep (empty when all
            shards were healthy).  Public so tests and the CLI can force
            a sweep instead of waiting out ``supervise_interval``.
        """
        revived: List[str] = []
        with self._lock:
            if not self._started:
                return ()
            for process in self._shards:
                if process.alive:
                    continue
                process.start()
                self.stats.restarts.inc()
                revived.append(process.shard_id)
        return tuple(revived)

    # -- request path -------------------------------------------------

    def fingerprints(self, subproblems: Sequence[Subproblem]) -> List[str]:
        """Design fingerprints under this cluster's ``(mu, config)``."""
        return [
            subproblem_fingerprint(subproblem, mu=self.mu, config=self.config)
            for subproblem in subproblems
        ]

    def solve(
        self, subproblems: Sequence[Subproblem]
    ) -> Dict[str, SubproblemSolution]:
        """Solve every subproblem; results keyed by subject id."""
        seen = set()
        for subproblem in subproblems:
            if subproblem.subject_id in seen:
                raise ServingError(
                    f"duplicate subject_id {subproblem.subject_id!r}"
                )
            seen.add(subproblem.subject_id)
        designs, _ = self.solve_designs(subproblems)
        return {
            subproblem.subject_id: SubproblemSolution(
                subproblem=subproblem, result=design
            )
            for subproblem, design in zip(subproblems, designs)
        }

    def solve_designs(
        self,
        subproblems: Sequence[Subproblem],
        fingerprints: Optional[Sequence[str]] = None,
        trace_context: Optional[SpanContext] = None,
    ) -> Tuple[List[DesignResult], List[bool]]:
        """Route one batch through the cluster.

        The batch is cut to one row per distinct fingerprint, the rows
        are grouped by owner shard and the groups dispatched
        concurrently; the returned designs and cache-hit flags align
        with the input order regardless of which shard answered when.
        A zero-shard router solves the rows in its in-process pool.

        ``trace_context`` parents the ``cluster.solve_batch`` span under
        a caller's span from another thread or process (the HTTP front
        end captures its request span's context before hopping to the
        executor, since :mod:`contextvars` don't cross that boundary).
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_designs(subproblems, fingerprints)
        with tracer.attach(trace_context):
            with tracer.span(
                "cluster.solve_batch", n_requests=len(subproblems)
            ) as span:
                designs, cache_hits = self._solve_designs(
                    subproblems, fingerprints
                )
                span.set("n_shards", len(self.shard_ids))
                span.set("n_hits", sum(1 for hit in cache_hits if hit))
                return designs, cache_hits

    def _solve_designs(
        self,
        subproblems: Sequence[Subproblem],
        fingerprints: Optional[Sequence[str]] = None,
    ) -> Tuple[List[DesignResult], List[bool]]:
        if not self.running:
            raise ServingError("cluster router is not running (call start())")
        if fingerprints is None:
            fingerprints = self.fingerprints(subproblems)
        if len(fingerprints) != len(subproblems):
            raise ServingError(
                f"got {len(fingerprints)} fingerprints for "
                f"{len(subproblems)} subproblems"
            )
        if not subproblems:
            return [], []

        # One row per distinct fingerprint, from its first request: the
        # shards and the local pool see, and count, rows only.
        slots: Dict[str, int] = {}
        rows: List[Subproblem] = []
        for subproblem, fingerprint in zip(subproblems, fingerprints):
            if fingerprint not in slots:
                slots[fingerprint] = len(rows)
                rows.append(subproblem)
        row_fingerprints = list(slots)

        with self._lock:
            shards = self._shards
            executor = self._executor
        if shards:
            row_designs, row_hits = self._route(
                shards, executor, rows, row_fingerprints
            )
        else:
            # A router without shards serves from its own pool; that is
            # its serving path, not a fallback.
            row_designs, row_hits = self._fallback_pool.solve_designs(
                rows, row_fingerprints
            )
        self.stats.requests.inc(len(rows))
        self.stats.batches.inc()
        codes = [slots[fingerprint] for fingerprint in fingerprints]
        return [row_designs[code] for code in codes], [
            row_hits[code] for code in codes
        ]

    def _route(
        self,
        shards: Tuple[ShardProcess, ...],
        executor: Optional[ThreadPoolExecutor],
        rows: List[Subproblem],
        fingerprints: List[str],
    ) -> Tuple[List[DesignResult], List[bool]]:
        """Solve distinct rows on their owner shards, in row order."""
        groups: Dict[int, List[int]] = {}
        for position, fingerprint in enumerate(fingerprints):
            owner = _hash64(fingerprint) % len(shards)
            groups.setdefault(owner, []).append(position)

        # Executor threads don't inherit this thread's contextvars, so
        # the batch span's context rides along explicitly and each group
        # re-attaches it before opening its own span.
        batch_context = (
            Tracer.current_context() if get_tracer().enabled else None
        )

        def serve_group(
            owner: int, positions: List[int]
        ) -> Tuple[List[DesignResult], List[bool]]:
            return self._solve_group(
                shards,
                owner,
                [rows[p] for p in positions],
                [fingerprints[p] for p in positions],
                trace_context=batch_context,
            )

        ordered = sorted(groups.items())
        if len(ordered) == 1 or executor is None:
            outcomes = [serve_group(owner, positions) for owner, positions in ordered]
        else:
            futures: List["Future[Tuple[List[DesignResult], List[bool]]]"] = [
                executor.submit(serve_group, owner, positions)
                for owner, positions in ordered
            ]
            outcomes = [future.result() for future in futures]

        designs: List[Optional[DesignResult]] = [None] * len(rows)
        cache_hits: List[bool] = [False] * len(rows)
        for (_, positions), (group_designs, group_hits) in zip(
            ordered, outcomes
        ):
            for index, position in enumerate(positions):
                designs[position] = group_designs[index]
                cache_hits[position] = group_hits[index]
        return [design for design in designs if design is not None], cache_hits

    def _solve_group(
        self,
        shards: Tuple[ShardProcess, ...],
        owner: int,
        rows: List[Subproblem],
        fingerprints: List[str],
        trace_context: Optional[SpanContext] = None,
    ) -> Tuple[List[DesignResult], List[bool]]:
        """One owner group: the owner, then the following shards, then local.

        Transport failures walk the shards after the owner, by index,
        with linear backoff; application errors propagate immediately
        (retrying a bad request elsewhere cannot fix it).  The local
        fallback pool is the guaranteed last resort — a group can
        degrade but never fail for lack of shards.

        When tracing, the whole walk runs inside one
        ``cluster.solve_group`` span (parented under ``trace_context``,
        the batch span) whose context travels to the serving shard in
        the pipe envelope.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_group_inner(
                shards, owner, rows, fingerprints, NULL_SPAN
            )
        with tracer.attach(trace_context):
            with tracer.span(
                "cluster.solve_group",
                owner=shards[owner].shard_id,
                n_requests=len(rows),
            ) as span:
                return self._solve_group_inner(
                    shards, owner, rows, fingerprints, span
                )

    def _solve_group_inner(
        self,
        shards: Tuple[ShardProcess, ...],
        owner: int,
        rows: List[Subproblem],
        fingerprints: List[str],
        span: Any,
    ) -> Tuple[List[DesignResult], List[bool]]:
        started = time.perf_counter()
        tracer = get_tracer()
        group_context = Tracer.current_context() if tracer.enabled else None
        # Encode once per group: every retry/failover attempt ships the
        # same packed frame (O(K) floats), never pickled Subproblems.
        frame = columnar_frame(rows, fingerprints)
        attempts = 0
        last_error: Optional[ShardTransportError] = None
        for step in range(len(shards)):
            if attempts > MAX_RETRIES:
                break
            process = shards[(owner + step) % len(shards)]
            if not process.alive:
                continue
            if attempts > 0:
                self.stats.retries.inc()
                time.sleep(BACKOFF * attempts)
            attempts += 1
            try:
                rep_designs, rep_hits = process.solve_columnar(
                    frame,
                    timeout=REQUEST_TIMEOUT,
                    trace_context=group_context,
                )
            except ShardTransportError as error:
                self.stats.transport_errors.inc()
                last_error = error
                continue
            self.stats.routed.inc()
            if step > 0:
                self.stats.failovers.inc()
            self.stats.request_latency.observe(time.perf_counter() - started)
            span.update(served_by=process.shard_id, attempts=attempts)
            return expand_frame_results(frame, rep_designs, rep_hits)

        # Every shard attempt exhausted: degrade to the local pool so
        # the request is slowed down, never lost.
        self.stats.local_fallbacks.inc()
        designs, cache_hits = self._fallback_pool.solve_designs(
            rows, fingerprints
        )
        self.stats.request_latency.observe(time.perf_counter() - started)
        span.update(served_by="local", attempts=attempts)
        if last_error is not None:
            span.set("transport_error", str(last_error))
        return designs, cache_hits

    # -- introspection ------------------------------------------------

    def healthz(self, timeout: float = 2.0) -> Dict[str, Any]:
        """Liveness of every shard plus an overall status.

        ``status`` is ``"ok"`` when the router is running and every
        shard answers its health probe (a zero-shard router is ``"ok"``
        while running), ``"degraded"`` otherwise (the cluster still
        serves — via failover and the local fallback — while degraded).
        """
        with self._lock:
            processes = self._shards
            running = self._started
        shards: Dict[str, Dict[str, Any]] = {}
        healthy = 0
        for process in processes:
            if not process.alive:
                shards[process.shard_id] = {
                    "alive": False,
                    "restarts": process.restarts,
                }
                continue
            try:
                info = process.health(timeout=timeout)
            except ServingError as error:
                shards[process.shard_id] = {
                    "alive": False,
                    "error": str(error),
                    "restarts": process.restarts,
                }
                continue
            info["alive"] = True
            info["restarts"] = process.restarts
            shards[process.shard_id] = info
            healthy += 1
        return {
            "status": "ok" if running and healthy == len(processes) else "degraded",
            "n_shards": len(processes),
            "n_healthy": healthy,
            "shards": shards,
        }

    def stats_snapshot(self, timeout: float = 2.0) -> Dict[str, Any]:
        """Router counters plus best-effort per-shard serving counters.

        Each shard entry carries the shard's own serving/cache counters
        (including ``cache_hit_rate``) plus the parent-side ``pid`` and
        ``restarts``; ``totals`` sums the shard counters so dashboards
        don't have to.
        """
        with self._lock:
            processes = self._shards
        per_shard: Dict[str, Dict[str, float]] = {}
        totals: Dict[str, float] = {}
        for process in processes:
            if not process.alive:
                continue
            try:
                snapshot = process.stats_snapshot(timeout=timeout)
            except ServingError:
                continue
            pid = process.pid
            if pid is not None:
                snapshot["pid"] = float(pid)
            snapshot["restarts"] = float(process.restarts)
            per_shard[process.shard_id] = snapshot
            for key in (
                "requests",
                "batches",
                "cache_hits",
                "cache_misses",
                "cache_entries",
            ):
                if key in snapshot:
                    totals[key] = totals.get(key, 0.0) + snapshot[key]
        lookups = totals.get("cache_hits", 0.0) + totals.get("cache_misses", 0.0)
        totals["cache_hit_rate"] = (
            totals.get("cache_hits", 0.0) / lookups if lookups else 0.0
        )
        return {
            "router": self.stats.snapshot(),
            "shards": per_shard,
            "totals": totals,
        }

    def obs_scrape(
        self,
        include_spans: bool = True,
        drain: bool = True,
        timeout: float = 5.0,
    ) -> ClusterScrape:
        """Federate every live shard's spans and metrics with the router's.

        Each shard answers the ``obs_export`` pipe op with its metric
        reservoirs (cumulative) and span records (drained by default so
        repeated scrapes never duplicate a span); the router contributes
        its own :class:`ClusterStats` registry under the ``"router"``
        source label.  Dead or unresponsive shards are skipped — a
        scrape degrades, it doesn't fail.
        """
        with self._lock:
            processes = self._shards
        exports: List[ShardExport] = []
        for process in processes:
            if not process.alive:
                continue
            try:
                payload = process.obs_export(
                    include_spans=include_spans, drain=drain, timeout=timeout
                )
            except ServingError:
                continue
            exports.append(ShardExport.from_payload(payload))
        exports.append(
            local_export("router", self.stats.registry, pid=os.getpid())
        )
        return federate(exports)
