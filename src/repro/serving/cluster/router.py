"""One contract cache, miss dispatch and supervision over shard processes.

The :class:`ShardRouter` is the cluster's one serving path: it boots a
fixed set of shard processes
(:class:`~repro.serving.cluster.shard.ShardProcess`), ``shard-0`` ...
``shard-{n-1}``, keeps exactly that membership until it closes, and
runs the request path that ties them together:

1. **cache** — a batch is deduplicated to one row per design
   fingerprint, and every row is looked up in the router's one
   :class:`~repro.serving.cache.ContractCache` of ``cache_capacity *
   max(1, n_shards)`` entries.  Section IV-B makes every design a pure
   function of its fingerprint, so where a design is cached is only a
   placement choice: hits never cross a pipe;
2. **dispatch misses** — the batch's misses are split into at most one
   columnar frame per live shard, and the frames are solved
   concurrently.  Shards are stateless solvers, so any live shard
   solves any frame to the same contracts;
3. **retry, then degrade** — a frame whose shard stops answering
   (transport failure, not an application error) goes to the next live
   shard by index with linear backoff, at most :data:`MAX_RETRIES`
   times, and is then solved in-process, so a request can slow down but
   never be lost.  A router built with ``n_shards=0`` solves every miss
   in-process: the single-process deployment of the same request path;
4. **supervise** — a daemon thread restarts dead shards in place.  The
   cache lives in the router, so a revived shard changes nothing that
   is served.

Cache hits are re-solved in-process and compared under
``REPRO_CHECK_INVARIANTS=1``
(:func:`~repro.serving.cache.maybe_verify_cached`).  Dispatch, retries
and lifecycle transitions are all visible through :mod:`repro.obs`:
counters/histograms on :class:`ClusterStats` and spans
(``cluster.solve_batch``, ``cluster.solve_group``) when tracing is
enabled.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...core.decomposition import Subproblem
from ...core.designer import DesignerConfig, DesignResult
from ...errors import ServingError
from ...obs.aggregate import ClusterScrape, ShardExport, federate, local_export
from ...obs.metrics import Counter, Histogram, MetricsRegistry
from ...obs.trace import NULL_SPAN, SpanContext, Tracer, get_tracer
from ..cache import ContractCache
from ..fingerprint import subproblem_fingerprint
from ..pool import SolverPool, solve_in_order
from ..stats import ServingStats
from .codec import columnar_frame
from .shard import ShardProcess, ShardSpec, ShardTransportError

__all__ = ["ClusterStats", "ShardRouter"]

#: Seconds one shard attempt may take before it counts as a transport
#: failure.
REQUEST_TIMEOUT = 30.0

#: Shard attempts after the first before a frame is solved in-process.
MAX_RETRIES = 2

#: Base seconds of the linear backoff between shard attempts.
BACKOFF = 0.05


class ClusterStats:
    """Obs-backed counters of the cluster router.

    A lock-free facade: every instrument below is an
    :mod:`repro.obs.metrics` primitive with its own internal lock, so
    the router can bump counters from any thread without coordination.

    Attributes:
        registry: the backing :class:`MetricsRegistry` (private unless
            one is injected — pass :func:`repro.obs.metrics.get_registry`
            to publish next to the rest of the process).
        requests: distinct design rows the router served, hits included
            (a batch counts one row per fingerprint, whoever sent it).
        batches: solve batches the router has served.
        routed: miss frames a shard solved.
        retries: shard attempts after the first, across all frames.
        transport_errors: shard attempts that died in transport.
        local_fallbacks: frames solved in-process after every shard
            attempt failed.
        restarts: shard processes revived by the supervisor.
        request_latency: end-to-end seconds per miss frame.

    The router's pool books its :class:`~repro.serving.stats.ServingStats`
    into the same registry under ``<namespace>.local.*``: every row, and
    the one contract cache's hits and misses.
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
            prefix + "requests", "distinct design rows served by the router"
        )
        self.batches: Counter = self.registry.counter(
            prefix + "batches", "solve batches served by the router"
        )
        self.routed: Counter = self.registry.counter(
            prefix + "routed", "miss frames solved by a shard"
        )
        self.retries: Counter = self.registry.counter(
            prefix + "retries", "shard attempts after the first"
        )
        self.transport_errors: Counter = self.registry.counter(
            prefix + "transport_errors", "shard attempts that died in transport"
        )
        self.local_fallbacks: Counter = self.registry.counter(
            prefix + "local_fallbacks", "miss frames solved in-process"
        )
        self.restarts: Counter = self.registry.counter(
            prefix + "restarts", "shards revived by the supervisor"
        )
        self.request_latency: Histogram = self.registry.histogram(
            prefix + "group_latency_s", "seconds per miss frame"
        )

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Every cluster metric as ``{name: {field: value}}``."""
        return self.registry.snapshot()


class _RouterPool(SolverPool):
    """The router's pool: one contract cache whose misses go to shards."""

    def __init__(self, router: "ShardRouter", **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._router = router

    def _solve_misses(
        self, subproblems: List[Subproblem], fingerprints: List[str]
    ) -> List[DesignResult]:
        return self._router._solve_misses(subproblems, fingerprints)


class ShardRouter:
    """One contract cache in front of a fixed set of stateless shards.

    Args:
        n_shards: shards to boot at every :meth:`start` (ids ``shard-0``
            ... ``shard-{n-1}``); ``0`` solves every miss in-process.
        mu: the requester's compensation weight (shared by all shards).
        config: designer configuration shared by all shards.
        cache_capacity: contract-cache entries per shard; the router's
            one cache holds ``cache_capacity * max(1, n_shards)``.
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
        self.supervise_interval = supervise_interval
        self.stats = stats if stats is not None else ClusterStats()
        self._lock = threading.RLock()
        self._shards: Tuple[ShardProcess, ...] = ()
        self._started = False
        self._stop_event = threading.Event()
        self._supervisor: Optional[threading.Thread] = None
        self._executor: Optional[ThreadPoolExecutor] = None
        # Rotates which live shard a batch's first miss frame goes to.
        self._turn = 0
        # The one cache: the total capacity of N shards of
        # ``cache_capacity``.  Its serving counters publish beside the
        # router's.
        self._pool = _RouterPool(
            self,
            mu=mu,
            config=config,
            cache=ContractCache(capacity=cache_capacity * max(1, n_shards)),
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
        shard ids again, in front of the same cache.
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

        A frame in flight on it goes to the next live shard; the
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
        """Restart every dead shard in place.

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

    def solve_designs(
        self,
        subproblems: Sequence[Subproblem],
        fingerprints: Optional[Sequence[str]] = None,
        trace_context: Optional[SpanContext] = None,
    ) -> Tuple[List[DesignResult], List[bool]]:
        """Serve one batch from the cache, solving its misses on shards.

        The batch is cut to one row per distinct fingerprint and every
        row is looked up in the router's cache; the misses go out as
        frames to the live shards (in-process without shards).  The
        returned designs and cache-hit flags align with the input order.

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
        # pool and the shards see, and count, rows only.
        slots: Dict[str, int] = {}
        rows: List[Subproblem] = []
        for subproblem, fingerprint in zip(subproblems, fingerprints):
            if fingerprint not in slots:
                slots[fingerprint] = len(rows)
                rows.append(subproblem)
        # The untraced core: the batch span is the router's.
        row_designs, row_hits = self._pool._solve_designs(rows, list(slots))
        self.stats.requests.inc(len(rows))
        self.stats.batches.inc()
        codes = [slots[fingerprint] for fingerprint in fingerprints]
        return [row_designs[code] for code in codes], [
            row_hits[code] for code in codes
        ]

    def _solve_misses(
        self, rows: List[Subproblem], fingerprints: List[str]
    ) -> List[DesignResult]:
        """One batch's misses: at most one frame per live shard, in row order."""
        with self._lock:
            shards = self._shards
            executor = self._executor
            self._turn += 1
            turn = self._turn
        if not shards:
            # A router without shards solves in-process; that is its
            # serving path, not a fallback.
            return solve_in_order(rows, self.mu, self.config)
        live = [index for index, process in enumerate(shards) if process.alive]
        # With every shard down, one frame walks them all, then degrades.
        live = live or [0]
        n_frames = min(len(live), len(rows))
        bounds = [len(rows) * part // n_frames for part in range(n_frames + 1)]

        # Executor threads don't inherit this thread's contextvars, so
        # the batch span's context rides along explicitly and each frame
        # re-attaches it before opening its own span.
        batch_context = (
            Tracer.current_context() if get_tracer().enabled else None
        )

        def solve_frame(part: int) -> List[DesignResult]:
            start, stop = bounds[part], bounds[part + 1]
            return self._solve_frame(
                shards,
                live[(turn + part) % len(live)],
                rows[start:stop],
                fingerprints[start:stop],
                trace_context=batch_context,
            )

        if n_frames == 1 or executor is None:
            outcomes = [solve_frame(part) for part in range(n_frames)]
        else:
            outcomes = list(executor.map(solve_frame, range(n_frames)))
        return [design for outcome in outcomes for design in outcome]

    def _solve_frame(
        self,
        shards: Tuple[ShardProcess, ...],
        first: int,
        rows: List[Subproblem],
        fingerprints: List[str],
        trace_context: Optional[SpanContext] = None,
    ) -> List[DesignResult]:
        """One miss frame: shard ``first``, the following live ones, then local.

        Transport failures walk the shards after ``first``, by index,
        with linear backoff; application errors propagate immediately
        (retrying a bad request elsewhere cannot fix it).  In-process
        solving is the guaranteed last resort — a frame can degrade but
        never fail for lack of shards.

        When tracing, the whole walk runs inside one
        ``cluster.solve_group`` span (parented under ``trace_context``,
        the batch span) whose context travels to the serving shard in
        the pipe envelope.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_frame_inner(
                shards, first, rows, fingerprints, NULL_SPAN
            )
        with tracer.attach(trace_context):
            with tracer.span(
                "cluster.solve_group", n_requests=len(rows)
            ) as span:
                return self._solve_frame_inner(
                    shards, first, rows, fingerprints, span
                )

    def _solve_frame_inner(
        self,
        shards: Tuple[ShardProcess, ...],
        first: int,
        rows: List[Subproblem],
        fingerprints: List[str],
        span: Any,
    ) -> List[DesignResult]:
        started = time.perf_counter()
        tracer = get_tracer()
        group_context = Tracer.current_context() if tracer.enabled else None
        # Encode once per frame: every retry ships the same packed frame
        # (O(K) floats), never pickled Subproblems.
        frame = columnar_frame(rows, fingerprints)
        attempts = 0
        last_error: Optional[ShardTransportError] = None
        for step in range(len(shards)):
            if attempts > MAX_RETRIES:
                break
            process = shards[(first + step) % len(shards)]
            if not process.alive:
                continue
            if attempts > 0:
                self.stats.retries.inc()
                time.sleep(BACKOFF * attempts)
            attempts += 1
            try:
                designs = process.solve_columnar(
                    frame,
                    timeout=REQUEST_TIMEOUT,
                    trace_context=group_context,
                )
            except ShardTransportError as error:
                self.stats.transport_errors.inc()
                last_error = error
                continue
            self.stats.routed.inc()
            self.stats.request_latency.observe(time.perf_counter() - started)
            span.update(served_by=process.shard_id, attempts=attempts)
            return designs

        # Every shard attempt exhausted: solve in-process so the request
        # is slowed down, never lost.
        self.stats.local_fallbacks.inc()
        designs = solve_in_order(rows, self.mu, self.config)
        self.stats.request_latency.observe(time.perf_counter() - started)
        span.update(served_by="local", attempts=attempts)
        if last_error is not None:
            span.set("transport_error", str(last_error))
        return designs

    # -- introspection ------------------------------------------------

    def healthz(self, timeout: float = 2.0) -> Dict[str, Any]:
        """Liveness of every shard plus an overall status.

        ``status`` is ``"ok"`` when the router is running and every
        shard answers its health probe (a zero-shard router is ``"ok"``
        while running), ``"degraded"`` otherwise (the cluster still
        serves — from the cache, the live shards and in-process
        solving — while degraded).
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
        """Router counters, the cache's totals and per-shard counters.

        ``totals`` is the router pool's serving snapshot — every row,
        and the one cache's ``cache_hits``, ``cache_misses`` and
        ``cache_hit_rate`` — plus ``cache_entries``.  Each live shard's
        entry carries its serving counters (the misses it solved) plus
        the parent-side ``pid`` and ``restarts``; a shard that does not
        answer is left out.
        """
        with self._lock:
            processes = self._shards
        per_shard: Dict[str, Dict[str, float]] = {}
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
        totals = self._pool.stats.snapshot()
        totals["cache_entries"] = float(len(self._pool.cache))
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
        its own :class:`ClusterStats` registry (with the cache's
        ``<namespace>.local.*`` counters) under the ``"router"`` source
        label.  Dead or unresponsive shards are skipped — a scrape
        degrades, it doesn't fail.
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
