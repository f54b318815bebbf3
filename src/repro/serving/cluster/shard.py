"""One stateless contract solver per worker process.

A shard is the smallest solving unit of the cluster: its own OS process
that designs the rows of the columnar frames it is sent — the router's
cache misses — and keeps no contract cache.  Every design is a pure
function of its fingerprint (Section IV-B), so any shard solves any
frame to the same contracts.  It is spoken to over a
:mod:`multiprocessing` pipe with a tiny ``(op, payload, meta)``
protocol.  ``meta`` is the out-of-band envelope: today it carries the
W3C-style ``traceparent`` of the router's dispatch span, so the
shard's ``serving.solve_batch`` span joins the caller's trace across
the process boundary, and the ``obs_export`` op ships the shard's
spans and metric reservoirs back for federation
(:mod:`repro.obs.aggregate`).

The parent-side handle (:class:`ShardProcess`) draws one distinction
that the router's retry logic leans on:

* **application errors** (the shard replied ``("error", message)``, e.g.
  an infeasible design) re-raise as plain :class:`ServingError` — the
  request itself is bad, so retrying it on another shard cannot help;
* **transport failures** (pipe timeout, EOF, broken pipe — the shard
  died or wedged) raise :class:`ShardTransportError` and tear the
  connection down, because after an unanswered request the pipe framing
  is unrecoverable — the router sends the frame to the next live shard
  and lets the supervisor restart the shard.

The handle serializes pipe access behind an ``RLock``; every state
mutation happens under it (the serving-tier lock discipline, REPRO013).
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection
from typing import Any, Dict, List, Optional

from ...core.designer import DesignerConfig, DesignResult
from ...errors import ServingError
from ...obs.aggregate import metric_samples
from ...obs.metrics import MetricsRegistry
from ...obs.trace import (
    TRACEPARENT_HEADER,
    SpanContext,
    Tracer,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    set_tracer,
)
from ..pool import solve_in_order
from .codec import subproblems_from_frame

__all__ = ["ShardProcess", "ShardSpec", "ShardTransportError", "shard_main"]


class ShardTransportError(ServingError):
    """The shard process is unreachable (died, wedged, or pipe broke).

    Distinct from a plain :class:`ServingError` so the router can tell
    "this request is bad" (no retry) from "this shard is bad" (the frame
    goes to the next live shard, the supervisor restarts this one).
    """


@dataclass(frozen=True)
class ShardSpec:
    """Configuration one shard process boots with.

    Attributes:
        shard_id: stable identity (``shard-<index>`` under a router).
        mu: the requester's compensation weight.
        config: designer configuration shared by all solves.
        obs: boot the shard with tracing enabled (the router sets this
            from its own tracer state, so a traced cluster records
            spans in every process from the first request).
    """

    shard_id: str
    mu: float = 1.0
    config: Optional[DesignerConfig] = None
    obs: bool = False

    def __post_init__(self) -> None:
        if not self.shard_id:
            raise ServingError("shard_id must be a non-empty string")


class _ShardStats:
    """A shard's serving counters: the rows it solved, and how fast."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.requests = self.registry.counter(
            "serving.requests", "design rows solved"
        )
        self.batches = self.registry.counter("serving.batches", "frames solved")
        self.request_latency = self.registry.histogram(
            "serving.request_latency_s", "seconds per solved frame, once per row"
        )

    def record_frame(self, n_rows: int, duration: float) -> None:
        """Book one solved frame; its duration counts as each row's latency."""
        self.requests.inc(n_rows)
        self.batches.inc()
        for _ in range(n_rows):
            self.request_latency.observe(duration)

    def snapshot(self) -> Dict[str, float]:
        """The counters plus p50/p99 latency once any row was solved."""
        snapshot = {
            "requests": self.requests.value,
            "batches": self.batches.value,
        }
        if self.request_latency.count:
            snapshot["request_latency_p50_s"] = self.request_latency.quantile(0.5)
            snapshot["request_latency_p99_s"] = self.request_latency.quantile(0.99)
        return snapshot


def shard_main(conn: Connection, spec: ShardSpec) -> None:
    """The shard process body: serve ``(op, payload, meta)`` forever.

    Ops: ``solve_columnar`` (a columnar frame in, its K row designs
    out), ``health``/``stats`` (snapshots), ``obs_export`` (spans +
    metric reservoirs for federation), ``shutdown`` (clean exit) and
    ``crash`` (fault injection: die without replying).  Application
    errors are reported as ``("error", message)`` replies; the loop only
    exits on shutdown or a dead pipe.

    When ``meta`` carries a ``traceparent``, the op runs attached to
    that remote context so any spans it opens parent under the caller's
    dispatch span.
    """
    stats = _ShardStats()
    # A fresh tracer, not the inherited one: under fork the parent's
    # tracer arrives with its id prefix and counter intact, so reusing
    # it would mint span ids colliding with the router's in merged
    # dumps. A new Tracer draws a new random prefix in this process.
    tracer = Tracer(enabled=True) if spec.obs else Tracer()
    set_tracer(tracer)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        op, payload, meta = message
        if op == "shutdown":
            try:
                conn.send(("ok", None))
            except (BrokenPipeError, OSError):
                pass
            break
        if op == "crash":
            # Fault injection: die mid-protocol, leaving the parent's
            # request unanswered so the transport path gets exercised.
            os._exit(17)
        context = None
        if meta:
            traceparent = meta.get(TRACEPARENT_HEADER)
            if traceparent:
                context = parse_traceparent(traceparent)
        try:
            with tracer.attach(context):
                reply = _dispatch(op, payload, spec, stats)
        except Exception as error:  # noqa: BLE001 - fan app errors to parent
            try:
                conn.send(("error", f"{type(error).__name__}: {error}"))
            except (BrokenPipeError, OSError):
                break
            continue
        try:
            conn.send(("ok", reply))
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _slim(result: DesignResult) -> DesignResult:
    """Drop the per-candidate sweep table before pickling to the pipe.

    ``DesignResult.evaluations`` holds one entry per target piece, each
    carrying its own full contract — O(m^2) floats for an m-interval
    grid, two orders of magnitude heavier than the selected contract it
    annotates.  It exists for designer introspection, not serving, so
    the wire format ships the result with ``evaluations=()`` and keeps
    the pipe cost proportional to the contracts actually served.
    """
    if not result.evaluations:
        return result
    return replace(result, evaluations=())


def _dispatch(op: str, payload: Any, spec: ShardSpec, stats: _ShardStats) -> Any:
    """Execute one shard op (inside the shard process)."""
    if op == "solve_columnar":
        # Solve the frame's K rows and reply O(K); the frame's
        # fingerprints are the router's cache keys, not needed here.
        representatives, _ = subproblems_from_frame(payload)
        started = time.perf_counter()
        with get_tracer().span(
            "serving.solve_batch", n_requests=len(representatives)
        ):
            designs = solve_in_order(representatives, spec.mu, spec.config)
        stats.record_frame(len(designs), time.perf_counter() - started)
        return [_slim(design) for design in designs]
    if op == "health":
        return {
            "shard_id": spec.shard_id,
            "pid": os.getpid(),
            "requests": stats.requests.value,
        }
    if op == "stats":
        return stats.snapshot()
    if op == "obs_export":
        options = payload or {}
        return _obs_export(
            spec,
            stats,
            include_spans=bool(options.get("spans", True)),
            drain=bool(options.get("drain", True)),
        )
    raise ServingError(f"unknown shard op {op!r}")


def _obs_export(
    spec: ShardSpec,
    stats: _ShardStats,
    include_spans: bool,
    drain: bool,
) -> Dict[str, Any]:
    """Build one ``obs_export`` reply (inside the shard process).

    Metrics ship with their histogram reservoirs so the router can
    merge them order-independently; they are cumulative, so repeated
    scrapes stay monotonic.  Spans are *drained* by default — each
    record leaves the shard exactly once, so merging successive scrape
    outputs never duplicates a span.
    """
    tracer = get_tracer()
    spans: List[Dict[str, Any]] = []
    if include_spans and tracer.enabled:
        spans = [span.to_record() for span in tracer.spans()]
        if drain:
            tracer.clear()
    return {
        "shard_id": spec.shard_id,
        "pid": os.getpid(),
        "spans": spans,
        "metrics": metric_samples(stats.registry),
    }


class ShardProcess:
    """Parent-side handle of one shard process.

    Owns the pipe and serializes access to it: one request/reply cycle
    at a time, every attribute mutation under ``self._lock`` (an RLock,
    so the teardown helper can run while :meth:`request` already holds
    it).

    Shards start with :mod:`multiprocessing`'s platform default method
    (``fork`` on Linux, which boots fastest).

    Args:
        spec: the shard's boot configuration.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.restarts = 0
        self._lock = threading.RLock()
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._conn: Optional[Connection] = None

    # -- lifecycle ----------------------------------------------------

    @property
    def shard_id(self) -> str:
        """The shard's stable identity."""
        return self.spec.shard_id

    @property
    def alive(self) -> bool:
        """Whether the shard process is running and reachable."""
        with self._lock:
            return (
                self._process is not None
                and self._process.is_alive()
                and self._conn is not None
            )

    @property
    def pid(self) -> Optional[int]:
        """The shard process id (``None`` before start / after stop)."""
        with self._lock:
            return self._process.pid if self._process is not None else None

    def start(self) -> None:
        """Boot (or re-boot) the shard process; idempotent while alive."""
        with self._lock:
            if self.alive:
                return
            if self._process is not None:
                self.restarts += 1
            parent_conn, child_conn = multiprocessing.Pipe()
            process = multiprocessing.Process(
                target=shard_main,
                args=(child_conn, self.spec),
                name=f"repro-shard-{self.spec.shard_id}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._process = process
            self._conn = parent_conn

    def stop(self, timeout: float = 5.0) -> None:
        """Shut the shard down cleanly, escalating to SIGKILL on timeout."""
        with self._lock:
            conn, process = self._conn, self._process
            if conn is not None and process is not None and process.is_alive():
                try:
                    conn.send(("shutdown", None, None))
                    if conn.poll(timeout):
                        conn.recv()
                except (EOFError, BrokenPipeError, OSError):
                    pass
            if process is not None:
                process.join(timeout=timeout)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=timeout)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            self._conn = None
            self._process = None

    def kill(self) -> None:
        """SIGKILL the shard process (fault injection)."""
        with self._lock:
            if self._process is not None and self._process.is_alive():
                self._process.kill()
                self._process.join(timeout=5.0)
            self._teardown_conn()

    def _teardown_conn(self) -> None:
        """Drop the (desynced or dead) pipe; keeps the process handle."""
        with self._lock:
            if self._conn is not None:
                try:
                    self._conn.close()
                except OSError:
                    pass
            self._conn = None

    # -- protocol -----------------------------------------------------

    def request(
        self,
        op: str,
        payload: Any = None,
        timeout: Optional[float] = None,
        meta: Optional[Dict[str, str]] = None,
    ) -> Any:
        """One request/reply cycle with the shard.

        Args:
            op: the shard op name.
            payload: op-specific payload.
            timeout: seconds to wait for the reply.
            meta: out-of-band envelope (e.g. the ``traceparent`` of the
                caller's span for cross-process trace propagation).

        Raises:
            ShardTransportError: the shard is down or stopped answering
                (the pipe is torn down — framing is unrecoverable after
                an unanswered request).
            ServingError: the shard replied with an application error.
        """
        with self._lock:
            conn, process = self._conn, self._process
            if conn is None or process is None or not process.is_alive():
                raise ShardTransportError(
                    f"shard {self.spec.shard_id!r} is not running"
                )
            try:
                conn.send((op, payload, meta))
                if timeout is not None and not conn.poll(timeout):
                    self._teardown_conn()
                    raise ShardTransportError(
                        f"shard {self.spec.shard_id!r} did not answer "
                        f"{op!r} within {timeout!r}s"
                    )
                status, reply = conn.recv()
            except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
                self._teardown_conn()
                raise ShardTransportError(
                    f"shard {self.spec.shard_id!r} connection failed during "
                    f"{op!r}: {error}"
                ) from error
        if status == "error":
            raise ServingError(
                f"shard {self.spec.shard_id!r} failed {op!r}: {reply}"
            )
        return reply

    # -- typed convenience wrappers -----------------------------------

    def solve_columnar(
        self,
        frame: Dict[str, Any],
        timeout: Optional[float] = None,
        trace_context: Optional[SpanContext] = None,
    ) -> List[DesignResult]:
        """Solve a columnar batch frame on this shard.

        Ships the packed archetype table + codes
        (:func:`~repro.serving.cluster.codec.columnar_frame`) and
        receives the K per-archetype designs, in row order.
        ``trace_context`` (the caller's span context) travels in the
        pipe envelope so the shard's ``serving.solve_batch`` span
        parents under it.
        """
        meta: Optional[Dict[str, str]] = None
        if trace_context is not None:
            meta = {TRACEPARENT_HEADER: format_traceparent(trace_context)}
        return list(
            self.request("solve_columnar", frame, timeout=timeout, meta=meta)
        )

    def health(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """The shard's health snapshot (id, pid, requests)."""
        return dict(self.request("health", timeout=timeout))

    def stats_snapshot(self, timeout: Optional[float] = None) -> Dict[str, float]:
        """The shard's serving counters as a flat dict."""
        return dict(self.request("stats", timeout=timeout))

    def obs_export(
        self,
        include_spans: bool = True,
        drain: bool = True,
        timeout: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Scrape the shard's spans and metric reservoirs.

        Metrics are cumulative; spans are drained by default (each span
        record leaves the shard exactly once across repeated scrapes).
        """
        return dict(
            self.request(
                "obs_export",
                {"spans": include_spans, "drain": drain},
                timeout=timeout,
            )
        )
