"""Span-based tracer for the contract-design pipeline.

A *span* is one timed unit of work — a clustering pass, one decomposed
subproblem, one candidate-contract construction, one served batch —
with a monotonic start/end, a parent link and a small bag of
attributes (worker archetype, candidate count ``K``, chosen interval
``k*``, cache-hit flag, Lemma 4.2/4.3 bound slack...).  Spans nest via
a :mod:`contextvars` variable, so parentage is correct across threads
and asyncio tasks alike.

The tracer is **off by default** and the disabled path is engineered to
be branch-cheap: ``Tracer.span`` returns a shared no-op context manager
whose ``__enter__`` hands back a singleton :data:`NULL_SPAN` that
swallows attribute writes.  Hot call sites additionally guard on
``tracer.enabled`` so they skip attribute computation entirely (the
``benchmarks/test_bench_obs.py`` gate holds the disabled overhead under
3% of the design work it wraps).

Enable explicitly (:func:`repro.obs.enable`, or ``--obs-out`` on the
CLI) or ambiently via ``REPRO_OBS=1``.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from contextvars import ContextVar

from ..errors import ObservabilityError

__all__ = [
    "ENV_VAR",
    "TRACEPARENT_HEADER",
    "Span",
    "SpanContext",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "env_enabled",
    "format_traceparent",
    "parse_traceparent",
]

#: Environment variable that switches the observability layer on
#: ambiently (tracing plus the :mod:`repro.obs.profile` CPU sampling).
ENV_VAR = "REPRO_OBS"
_TRUTHY = frozenset({"1", "true", "yes", "on"})


def env_enabled() -> bool:
    """Whether ``REPRO_OBS`` requests the observability layer."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


#: HTTP header (and pipe-envelope key) the trace context travels in.
TRACEPARENT_HEADER = "traceparent"

#: W3C traceparent version this layer emits.
_TRACEPARENT_VERSION = "00"


@dataclass(frozen=True)
class SpanContext:
    """The cross-process identity of one span.

    A W3C-traceparent-style context: every span belongs to a *trace*
    (one end-to-end request, shared across the HTTP front end, the
    router and the shard processes) and carries its own ``span_id`` so
    a child opened in another process can point back at it.

    Attributes:
        trace_id: 32-hex-char trace identifier shared by every span of
            one request, across process boundaries.
        span_id: the span's own identifier (process-local format).
        flags: W3C trace flags; bit 0 = sampled (this layer always
            propagates ``0x01`` — an unsampled context is not sent).
    """

    trace_id: str
    span_id: str
    flags: int = 1


def format_traceparent(context: SpanContext) -> str:
    """Encode a context in the W3C-traceparent wire format.

    ``00-<trace_id>-<span_id>-<flags>`` — the version, a 32-hex trace
    id, this layer's span id, and two hex flag digits.
    """
    return (
        f"{_TRACEPARENT_VERSION}-{context.trace_id}-"
        f"{context.span_id}-{context.flags:02x}"
    )


def parse_traceparent(value: Optional[str]) -> Optional[SpanContext]:
    """Decode a traceparent header; ``None`` on anything malformed.

    Tolerant by design (a bad header must never fail a request): the
    version must be two hex digits, the trace id 32 hex chars, the
    flags two hex digits.  Span ids may contain ``-`` (this tracer's
    ids do), so the span-id field is everything between the trace id
    and the trailing flags.
    """
    if not value:
        return None
    parts = value.strip().split("-")
    if len(parts) < 4:
        return None
    version, trace_id = parts[0], parts[1]
    flags_text = parts[-1]
    span_id = "-".join(parts[2:-1])
    if len(version) != 2 or not _is_hex(version) or version == "ff":
        return None
    if len(trace_id) != 32 or not _is_hex(trace_id) or set(trace_id) == {"0"}:
        return None
    if not span_id:
        return None
    if len(flags_text) != 2 or not _is_hex(flags_text):
        return None
    return SpanContext(
        trace_id=trace_id, span_id=span_id, flags=int(flags_text, 16)
    )


def _is_hex(text: str) -> bool:
    try:
        int(text, 16)
    except ValueError:
        return False
    return True


class Span:
    """One recorded unit of work.

    Attributes:
        name: dotted span name from the taxonomy in
            ``docs/OBSERVABILITY.md`` (e.g. ``"core.design"``).
        span_id: unique (per tracer) hex identifier.
        trace_id: 32-hex trace identifier shared by every span of one
            request, including spans recorded in other processes.
        parent_id: the enclosing span's id, or ``None`` for a root.
            A parent may live in another process (trace propagation);
            exporters render such spans under their remote parent once
            the per-process dumps are merged.
        start_s: monotonic-clock start time in seconds.
        end_s: monotonic-clock end time (``None`` while open).
        cpu_start_s / cpu_end_s: process CPU clock samples, present only
            when profiling is active (:mod:`repro.obs.profile`).
        attributes: the span's key/value annotations.
        error: the exception type name when the spanned work raised.
    """

    __slots__ = (
        "name",
        "span_id",
        "trace_id",
        "parent_id",
        "start_s",
        "end_s",
        "cpu_start_s",
        "cpu_end_s",
        "attributes",
        "error",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start_s: float,
        attributes: Optional[Dict[str, Any]] = None,
        trace_id: str = "",
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.trace_id = trace_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.cpu_start_s: Optional[float] = None
        self.cpu_end_s: Optional[float] = None
        self.attributes: Dict[str, Any] = attributes if attributes else {}
        self.error: Optional[str] = None

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def update(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    @property
    def duration_ms(self) -> Optional[float]:
        """Wall-clock duration in milliseconds (``None`` while open)."""
        if self.end_s is None:
            return None
        return (self.end_s - self.start_s) * 1e3

    @property
    def cpu_ms(self) -> Optional[float]:
        """CPU time in milliseconds when profiling sampled this span."""
        if self.cpu_start_s is None or self.cpu_end_s is None:
            return None
        return (self.cpu_end_s - self.cpu_start_s) * 1e3

    @property
    def context(self) -> SpanContext:
        """This span's propagatable :class:`SpanContext`."""
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    def to_record(self) -> Dict[str, Any]:
        """The span as a JSON-serializable export record."""
        record: Dict[str, Any] = {
            "kind": "span",
            "name": self.name,
            "span_id": self.span_id,
            "trace_id": self.trace_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_ms": self.duration_ms,
            "attributes": dict(self.attributes),
        }
        if self.cpu_ms is not None:
            record["cpu_ms"] = self.cpu_ms
        if self.error is not None:
            record["error"] = self.error
        return record

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span(name={self.name!r}, id={self.span_id!r}, "
            f"parent={self.parent_id!r}, duration_ms={self.duration_ms!r})"
        )


class NullSpan:
    """The span handed out by a disabled tracer: swallows everything."""

    __slots__ = ()

    name = "<null>"
    span_id = ""
    trace_id = ""
    parent_id = None
    duration_ms = None
    cpu_ms = None
    error = None

    #: Shared empty attribute view; never written to (``set`` ignores).
    attributes: Dict[str, Any] = {}

    def set(self, key: str, value: Any) -> None:
        """No-op attribute write."""

    def update(self, **attributes: Any) -> None:
        """No-op attribute write."""


#: Singleton no-op span used on every disabled code path.
NULL_SPAN = NullSpan()


class _NullSpanContext:
    """Reusable no-op context manager (the disabled ``span()`` result)."""

    __slots__ = ()

    def __enter__(self) -> NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class _RemoteSpan:
    """A never-recorded stand-in for a span open in another process.

    Installed by :meth:`Tracer.attach` so that the next span opened in
    this thread/task parents under the remote span's ids — the local
    side of cross-process trace propagation.  It is never finished and
    never exported; only its identity matters.
    """

    __slots__ = ("span_id", "trace_id")

    name = "<remote>"

    def __init__(self, context: SpanContext) -> None:
        self.span_id = context.span_id
        self.trace_id = context.trace_id


class _AttachContext:
    """Context manager installing a remote parent (``None``: no-op)."""

    __slots__ = ("_remote", "_token")

    def __init__(self, remote: Optional["_RemoteSpan"]) -> None:
        self._remote = remote
        self._token: Any = None

    def __enter__(self) -> None:
        if self._remote is not None:
            self._token = _current.set(self._remote)

    def __exit__(self, *exc_info: object) -> bool:
        if self._token is not None:
            _current.reset(self._token)
        return False


#: Current span of this thread / asyncio task (parent for new spans).
#: Holds a live local :class:`Span` or a :class:`_RemoteSpan` shim.
_current: "ContextVar[Optional[Any]]" = ContextVar("repro_obs_span", default=None)


class _SpanContext:
    """Context manager that opens a live span and closes it on exit."""

    __slots__ = ("_tracer", "_span", "_token")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span
        self._token: Any = None

    def __enter__(self) -> Span:
        self._token = _current.set(self._span)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _current.reset(self._token)
        self._tracer._finish(self._span, exc_type)
        return False


class Tracer:
    """Collects spans with monotonic timing and parent/child links.

    Args:
        enabled: start collecting immediately (default: the ``REPRO_OBS``
            environment toggle).
        clock: monotonic time source in seconds (injectable for tests
            and for the golden-file exporter test).
        cpu_clock: process CPU time source sampled when profiling is on.
        id_prefix: prefix of generated span ids; defaults to a short
            per-tracer random tag so ids from different runs never
            collide in merged dumps.  Pass ``""`` for deterministic ids.
        max_spans: bound on retained finished spans; the oldest are
            dropped first so long-running servers cannot grow without
            bound (a drop is counted, never silent).
    """

    def __init__(
        self,
        enabled: Optional[bool] = None,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.process_time,
        id_prefix: Optional[str] = None,
        max_spans: int = 100_000,
    ) -> None:
        if max_spans < 1:
            raise ObservabilityError(f"max_spans must be >= 1, got {max_spans!r}")
        self.enabled = env_enabled() if enabled is None else enabled
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.profile_cpu = env_enabled()
        self.max_spans = max_spans
        self.dropped = 0
        if id_prefix is None:
            id_prefix = os.urandom(3).hex() + "-"
        self._id_prefix = id_prefix
        self._id_counter = 0
        self._lock = threading.Lock()
        self._finished: List[Span] = []

    # -- span lifecycle ----------------------------------------------

    def span(self, name: str, **attributes: Any) -> Any:
        """Open a span as a context manager.

        Disabled, returns a shared no-op context manager; enabled, the
        ``with`` body receives the live :class:`Span` for further
        attribute writes::

            with tracer.span("core.design", archetype="honest") as sp:
                ...
                sp.set("k_opt", result.k_opt)
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return _SpanContext(self, self.start_span(name, **attributes))

    def start_span(self, name: str, **attributes: Any) -> Span:
        """Open a span explicitly (callers must pass it to ``finish``).

        Prefer :meth:`span`; this exists for call sites whose open/close
        points cannot share one lexical scope.
        """
        with self._lock:
            self._id_counter += 1
            counter = self._id_counter
            span_id = f"{self._id_prefix}{counter:012x}"
        parent = _current.get()
        if parent is not None:
            parent_id: Optional[str] = parent.span_id
            trace_id = parent.trace_id
        else:
            parent_id = None
            trace_id = self._new_trace_id(counter)
        span = Span(
            name=name,
            span_id=span_id,
            parent_id=parent_id,
            start_s=self.clock(),
            attributes=attributes if attributes else None,
            trace_id=trace_id,
        )
        if self.profile_cpu:
            span.cpu_start_s = self.cpu_clock()
        return span

    def _new_trace_id(self, counter: int) -> str:
        """A fresh 32-hex trace id for a root span.

        Random by default so traces from different runs never collide
        in merged dumps; deterministic (the span counter, zero-padded)
        when the tracer was built with ``id_prefix=""`` so golden-file
        tests stay reproducible.
        """
        if self._id_prefix:
            return os.urandom(16).hex()
        return f"{counter:032x}"

    def finish(self, span: Span) -> None:
        """Close an explicitly started span and record it."""
        self._finish(span, None)

    # -- cross-process propagation ------------------------------------

    def attach(self, context: Optional[SpanContext]) -> _AttachContext:
        """Adopt a remote parent for spans opened inside the ``with``.

        The propagation receive side: a process handed a traceparent
        (HTTP header, shard pipe envelope) attaches it so its next span
        parents under the remote caller's span and shares its trace id::

            with tracer.attach(parse_traceparent(header)):
                with tracer.span("serving.solve_batch") as sp:
                    ...  # sp.trace_id == remote trace, parent == caller

        ``attach(None)`` is a no-op, so call sites can attach
        unconditionally.  Attaching never records anything by itself.
        """
        if context is None:
            return _AttachContext(None)
        return _AttachContext(_RemoteSpan(context))

    def _finish(self, span: Span, exc_type: Any) -> None:
        if self.profile_cpu:
            span.cpu_end_s = self.cpu_clock()
        span.end_s = self.clock()
        if exc_type is not None:
            span.error = getattr(exc_type, "__name__", str(exc_type))
        with self._lock:
            self._finished.append(span)
            if len(self._finished) > self.max_spans:
                overflow = len(self._finished) - self.max_spans
                del self._finished[:overflow]
                self.dropped += overflow

    # -- wrapping helpers --------------------------------------------

    def wrap(self, name: str, **attributes: Any) -> Callable[..., Any]:
        """Decorator form: trace every call of the wrapped function."""

        def decorate(func: Callable[..., Any]) -> Callable[..., Any]:
            import functools

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                if not self.enabled:
                    return func(*args, **kwargs)
                with self.span(name, **attributes):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # -- introspection ------------------------------------------------

    @staticmethod
    def current_span() -> Optional[Span]:
        """The innermost open span of this thread/task, if any."""
        current = _current.get()
        if isinstance(current, _RemoteSpan):
            return None
        return current

    @staticmethod
    def current_context() -> Optional[SpanContext]:
        """The propagatable context of the innermost open span.

        Unlike :meth:`current_span` this also answers under a remote
        attachment (:meth:`attach`), so a relay hop that opens no span
        of its own still forwards its caller's context.
        """
        current = _current.get()
        if current is None:
            return None
        return SpanContext(
            trace_id=current.trace_id, span_id=current.span_id
        )

    def spans(self) -> Tuple[Span, ...]:
        """All finished spans, in completion order."""
        with self._lock:
            return tuple(self._finished)

    def records(self) -> List[Dict[str, Any]]:
        """Finished spans as JSON-serializable export records."""
        return [span.to_record() for span in self.spans()]

    def iter_named(self, name: str) -> Iterator[Span]:
        """Finished spans with the given name."""
        for span in self.spans():
            if span.name == name:
                yield span

    def clear(self) -> None:
        """Drop every finished span (the drop counter is preserved)."""
        with self._lock:
            self._finished.clear()

    def swap_spans(self, spans: Tuple[Span, ...] = ()) -> Tuple[Span, ...]:
        """Replace the finished spans with ``spans``; returns the old ones."""
        with self._lock:
            previous = tuple(self._finished)
            self._finished = list(spans)
        return previous


# -- global tracer ----------------------------------------------------

_global_tracer = Tracer()
_global_lock = threading.Lock()


def get_tracer() -> Tracer:
    """The process-global tracer every instrumented module consults."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Replace the global tracer (tests, CLI sessions); returns the old one."""
    global _global_tracer
    with _global_lock:
        previous = _global_tracer
        _global_tracer = tracer
    return previous
