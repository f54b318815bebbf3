"""Closed-loop load harness for the contract-serving tier.

A closed-loop generator models ``concurrency`` requesters that each
keep exactly one request in flight: send a batch, wait for the
contracts, send the next.  Offered load therefore adapts to what the
target sustains (the honest way to measure a serving tier — an
open-loop generator would just grow a queue and report its own
backlog), and every round-trip latency lands in a
:class:`repro.obs.metrics.Histogram`, so p50/p99 come from
:meth:`~repro.obs.metrics.Histogram.quantile` rather than eyeballs.

Targets are plain callables taking a batch of subproblems, with
adapters for a :class:`SolverPool` or
:class:`~repro.serving.cluster.router.ShardRouter` in-process, or a
cluster HTTP endpoint over the wire (columnar frames, one keep-alive
connection per worker thread, closed when the thread ends).

Traffic replays the synthetic-archetype population of
:func:`repro.serving.workload.synthetic_subproblems`: requests re-ask
for the same subjects round after round, which is exactly the
steady-state marketplace pattern the fingerprint cache exists for.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.decomposition import Subproblem
from ..errors import ServingError
from ..obs.metrics import Counter, Histogram, MetricsRegistry
from ..obs.trace import TRACEPARENT_HEADER, Tracer, format_traceparent, get_tracer
from .cluster.codec import columnar_frame, frame_to_json
from .cluster.router import ShardRouter
from .fingerprint import subproblem_fingerprint
from .pool import SolverPool

__all__ = [
    "LoadGenerator",
    "LoadReport",
    "http_target",
    "pool_target",
    "router_target",
    "synthetic_request_batches",
]

#: A load-generator target: takes one batch of subproblems, returns
#: anything, raises on failure.
Target = Callable[[Sequence[Subproblem]], Any]


@dataclass(frozen=True)
class LoadReport:
    """What one closed-loop run measured.

    Attributes:
        requests: subproblem requests completed successfully.
        batches: round-trips completed successfully.
        errors: round-trips that raised.
        concurrency: closed-loop worker threads used.
        duration_s: wall-clock seconds of the whole run.
        throughput_rps: successful requests per second.
        p50_s: median round-trip latency in seconds.
        p99_s: 99th-percentile round-trip latency in seconds.
        mean_s: mean round-trip latency in seconds.
        error_samples: up to ten error messages, in occurrence order.
    """

    requests: int
    batches: int
    errors: int
    concurrency: int
    duration_s: float
    throughput_rps: float
    p50_s: float
    p99_s: float
    mean_s: float
    error_samples: Tuple[str, ...] = ()

    def snapshot(self) -> Dict[str, float]:
        """The numeric fields as a flat dict (benchmark artifacts)."""
        return {
            "requests": float(self.requests),
            "batches": float(self.batches),
            "errors": float(self.errors),
            "concurrency": float(self.concurrency),
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "p50_s": self.p50_s,
            "p99_s": self.p99_s,
            "mean_s": self.mean_s,
        }


def synthetic_request_batches(
    population: Sequence[Subproblem],
    n_requests: int,
    batch_size: int = 8,
    seed: int = 0,
) -> List[List[Subproblem]]:
    """Replay traffic over a population: request batches with repeats.

    Subjects are drawn uniformly (with replacement) from ``population``
    and grouped into batches, so the request stream re-asks for the
    same archetypes over and over — the steady-state pattern that makes
    cache affinity matter.  Deterministic under ``seed``.
    """
    if not population:
        raise ServingError("population must be non-empty")
    if n_requests < 1:
        raise ServingError(f"n_requests must be >= 1, got {n_requests!r}")
    if batch_size < 1:
        raise ServingError(f"batch_size must be >= 1, got {batch_size!r}")
    generator = np.random.default_rng(seed)
    draws = generator.integers(0, len(population), size=n_requests)
    batches: List[List[Subproblem]] = []
    for start in range(0, n_requests, batch_size):
        batches.append(
            [population[int(index)] for index in draws[start : start + batch_size]]
        )
    return batches


class LoadGenerator:
    """Closed-loop load generator over any serving target.

    Args:
        target: callable served one batch per in-flight request.
        concurrency: closed-loop workers (each keeps one request in
            flight).
        registry: metrics registry the latency histogram and counters
            register into (private when ``None``; pass
            :func:`repro.obs.metrics.get_registry` to publish).
        namespace: metric-name prefix.
        max_samples: latency-histogram reservoir bound.
    """

    def __init__(
        self,
        target: Target,
        concurrency: int = 4,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "loadgen",
        max_samples: int = 65536,
    ) -> None:
        if concurrency < 1:
            raise ServingError(f"concurrency must be >= 1, got {concurrency!r}")
        self.target = target
        self.concurrency = concurrency
        self.registry = registry if registry is not None else MetricsRegistry()
        prefix = f"{namespace}." if namespace else ""
        self.latency: Histogram = self.registry.histogram(
            prefix + "request_latency_s",
            "closed-loop round-trip latency",
            max_samples=max_samples,
        )
        self.completed: Counter = self.registry.counter(
            prefix + "requests", "requests completed successfully"
        )
        self.failed: Counter = self.registry.counter(
            prefix + "errors", "round-trips that raised"
        )

    def run(
        self,
        batches: Sequence[Sequence[Subproblem]],
        checkpoints: Optional[Dict[int, Callable[[], None]]] = None,
    ) -> LoadReport:
        """Drive every batch through the target; block until done.

        Args:
            batches: the request stream (each entry is one round-trip).
            checkpoints: ``{completed_request_count: callback}`` fired
                once, from a worker thread, when the completed-request
                count first reaches the key — how the fault-injection
                harness kills a shard mid-run at a deterministic point.

        Returns:
            The run's :class:`LoadReport` (latency quantiles are over
            this run's successful round-trips only).
        """
        if not batches:
            raise ServingError("batches must be non-empty")
        pending_hooks = sorted((checkpoints or {}).items())
        state_lock = threading.Lock()
        state = {"next": 0, "requests": 0, "batches": 0}
        errors: List[str] = []
        latencies_before = self.latency.count

        def worker() -> None:
            while True:
                with state_lock:
                    index = state["next"]
                    if index >= len(batches):
                        return
                    state["next"] = index + 1
                batch = batches[index]
                begun = time.perf_counter()
                try:
                    # Each round-trip gets a client-side root span when
                    # tracing is on; HTTP targets forward its context in
                    # the traceparent header, making the loadgen the
                    # root of the end-to-end cross-process trace.
                    tracer = get_tracer()
                    if tracer.enabled:
                        with tracer.span(
                            "loadgen.request", batch=index, n_requests=len(batch)
                        ):
                            self.target(batch)
                    else:
                        self.target(batch)
                except Exception as error:  # noqa: BLE001 - tally and continue
                    self.failed.inc()
                    with state_lock:
                        if len(errors) < 10:
                            errors.append(
                                f"batch {index}: {type(error).__name__}: {error}"
                            )
                        else:
                            errors.append("")
                    continue
                self.latency.observe(time.perf_counter() - begun)
                self.completed.inc(len(batch))
                fired: List[Callable[[], None]] = []
                with state_lock:
                    state["requests"] += len(batch)
                    state["batches"] += 1
                    while pending_hooks and state["requests"] >= pending_hooks[0][0]:
                        fired.append(pending_hooks.pop(0)[1])
                for callback in fired:
                    callback()

        n_workers = min(self.concurrency, len(batches))
        started = time.perf_counter()
        threads = [
            threading.Thread(
                target=worker, name=f"repro-loadgen-{i}", daemon=True
            )
            for i in range(n_workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        duration = time.perf_counter() - started

        observed = self.latency.count > latencies_before
        return LoadReport(
            requests=state["requests"],
            batches=state["batches"],
            errors=len(errors),
            concurrency=n_workers,
            duration_s=duration,
            throughput_rps=state["requests"] / duration if duration > 0 else 0.0,
            p50_s=self.latency.quantile(0.5) if observed else 0.0,
            p99_s=self.latency.quantile(0.99) if observed else 0.0,
            mean_s=self.latency.mean if observed else 0.0,
            error_samples=tuple(message for message in errors if message),
        )


# -- target adapters ------------------------------------------------------


def pool_target(pool: SolverPool) -> Target:
    """A target solving batches on a :class:`SolverPool` in-process."""

    def send(batch: Sequence[Subproblem]) -> Any:
        return pool.solve_designs(batch)

    return send


def router_target(router: ShardRouter) -> Target:
    """A target routing batches through a :class:`ShardRouter`."""

    def send(batch: Sequence[Subproblem]) -> Any:
        return router.solve_designs(batch)

    return send


class _KeepAlive:
    """One thread's keep-alive connection, closed when the thread ends.

    Held in a ``threading.local``, which drops a thread's state when
    that thread exits; the finalizer then closes the socket, so the
    connections of a load run close as its worker threads finish
    instead of waiting for the garbage collector.
    """

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.conn = http.client.HTTPConnection(host, port, timeout=timeout)
        weakref.finalize(self, self.conn.close)


def http_target(
    host: str, port: int, timeout: float = 30.0, mu: float = 1.0
) -> Target:
    """A target POSTing batches to a cluster HTTP endpoint as frames.

    Each batch travels as one columnar frame whose fingerprints are
    computed under ``mu``, which must be the server's (the front end
    answers 400 to fingerprints it does not recompute).  The target
    returns the design payloads fanned back out to the batch's order.
    Each worker thread keeps one keep-alive connection, closed when the
    thread ends; a transport failure drops the connection so the next
    round-trip reconnects.
    """
    local = threading.local()

    def send(batch: Sequence[Subproblem]) -> Any:
        keep_alive: Optional[_KeepAlive] = getattr(local, "keep_alive", None)
        if keep_alive is None:
            keep_alive = _KeepAlive(host, port, timeout)
            local.keep_alive = keep_alive
        conn = keep_alive.conn
        fingerprints = [subproblem_fingerprint(item, mu=mu) for item in batch]
        body = json.dumps(
            {"columnar": frame_to_json(columnar_frame(batch, fingerprints))}
        )
        headers = {"Content-Type": "application/json"}
        if get_tracer().enabled:
            context = Tracer.current_context()
            if context is not None:
                headers[TRACEPARENT_HEADER] = format_traceparent(context)
        try:
            conn.request(
                "POST",
                "/solve_batch",
                body=body,
                headers=headers,
            )
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        except (http.client.HTTPException, OSError, json.JSONDecodeError) as error:
            local.keep_alive = None
            try:
                conn.close()
            except OSError:
                pass
            raise ServingError(f"HTTP round-trip failed: {error}") from error
        if response.status != 200:
            detail = payload.get("error", payload) if isinstance(payload, dict) else payload
            raise ServingError(f"HTTP {response.status}: {detail}")
        return [payload["designs"][code] for code in payload["codes"]]

    return send
