"""`repro obs top` — a stdlib-only live terminal view of a serving cluster.

Polls a cluster's ``/stats`` endpoint (the JSON the
:class:`~repro.serving.cluster.http.ClusterHTTPServer` serves) on a
:class:`~repro.obs.aggregate.ScrapeLoop` cadence and renders one
refreshing frame per poll: per-shard qps / p50 / p99 / restarts (a
shard's requests are the router's cache misses it solved), plus the
router cache's hit rate and entries and the router's fallback and
restart counters in the header.  qps is derived from request-count
deltas between consecutive polls, so it reflects *current* traffic,
not the lifetime average.

Everything here is injectable and pure-ish for testability: the poll
callable, the output sink, and the clock are constructor arguments,
and :func:`render_frame` is a pure ``dict -> str`` transform.  No
``print``, no ``time.time`` (REPRO009 applies to this module).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, TextIO, Tuple

from ..errors import ObservabilityError

__all__ = ["ShardRow", "TopFrame", "snapshot_frame", "render_frame", "ClusterTop"]

#: ANSI: clear screen + home the cursor (used only on TTY sinks).
_ANSI_CLEAR = "\x1b[2J\x1b[H"


@dataclass(frozen=True)
class ShardRow:
    """One shard's line in the dashboard.

    Attributes:
        shard_id: the shard's id (``shard-<index>``).
        pid: shard process id (``None`` when the snapshot lacks it).
        requests: lifetime design rows solved (router cache misses).
        qps: requests/second over the last poll interval.
        p50_ms / p99_ms: request-latency quantiles in milliseconds
            (``None`` before any latency was recorded).
        restarts: supervisor revivals of this shard.
    """

    shard_id: str
    pid: Optional[int]
    requests: float
    qps: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    restarts: float


@dataclass(frozen=True)
class TopFrame:
    """Everything one dashboard refresh displays."""

    rows: Tuple[ShardRow, ...]
    total_requests: float
    total_qps: float
    cache_hit_rate: float
    cache_entries: float
    routed: float
    local_fallbacks: float
    restarts: float
    elapsed_s: float
    poll_errors: int = 0


def _router_counter(stats: Mapping[str, Any], name: str) -> float:
    entry = stats.get("router", {}).get(name, {})
    if isinstance(entry, Mapping):
        return float(entry.get("value", 0.0))
    return float(entry or 0.0)


def snapshot_frame(
    current: Mapping[str, Any],
    previous: Optional[Mapping[str, Any]] = None,
    elapsed_s: float = 0.0,
    poll_errors: int = 0,
) -> TopFrame:
    """Build one frame from a ``/stats`` payload (and the previous one).

    ``previous``/``elapsed_s`` drive the qps deltas; with no previous
    poll every qps is 0 (a dashboard that guessed would be lying).
    """
    shards = current.get("shards", {})
    prev_shards = (previous or {}).get("shards", {})
    rows: List[ShardRow] = []
    total_requests = 0.0
    total_qps = 0.0
    for shard_id in sorted(shards):
        snapshot = shards[shard_id]
        requests = float(snapshot.get("requests", 0.0))
        before = float(prev_shards.get(shard_id, {}).get("requests", requests))
        qps = (requests - before) / elapsed_s if elapsed_s > 0.0 else 0.0
        qps = max(qps, 0.0)  # a restarted shard's counters reset
        pid_value = snapshot.get("pid")
        p50 = snapshot.get("request_latency_p50_s")
        p99 = snapshot.get("request_latency_p99_s")
        rows.append(
            ShardRow(
                shard_id=shard_id,
                pid=int(pid_value) if pid_value is not None else None,
                requests=requests,
                qps=qps,
                p50_ms=float(p50) * 1e3 if p50 is not None else None,
                p99_ms=float(p99) * 1e3 if p99 is not None else None,
                restarts=float(snapshot.get("restarts", 0.0)),
            )
        )
        total_requests += requests
        total_qps += qps
    totals = current.get("totals", {})
    return TopFrame(
        rows=tuple(rows),
        total_requests=total_requests,
        total_qps=total_qps,
        cache_hit_rate=float(totals.get("cache_hit_rate", 0.0)),
        cache_entries=float(totals.get("cache_entries", 0.0)),
        routed=_router_counter(current, "cluster.routed"),
        local_fallbacks=_router_counter(current, "cluster.local_fallbacks"),
        restarts=_router_counter(current, "cluster.restarts"),
        elapsed_s=elapsed_s,
        poll_errors=poll_errors,
    )


def render_frame(frame: TopFrame) -> str:
    """One dashboard frame as plain text (no ANSI)."""
    lines = [
        "repro cluster top"
        f"  |  shards {len(frame.rows)}  qps {frame.total_qps:,.1f}"
        f"  requests {frame.total_requests:,.0f}"
        f"  cache hit-rate {frame.cache_hit_rate:.1%}"
        f"  cached {frame.cache_entries:,.0f}",
        f"routed {frame.routed:,.0f}"
        f"  local-fallbacks {frame.local_fallbacks:,.0f}"
        f"  restarts {frame.restarts:,.0f}"
        + (f"  poll-errors {frame.poll_errors}" if frame.poll_errors else ""),
        "",
        f"{'shard':<12} {'pid':>8} {'requests':>10} {'qps':>8} "
        f"{'p50ms':>8} {'p99ms':>8} {'restarts':>8}",
    ]
    for row in frame.rows:
        p50 = f"{row.p50_ms:.2f}" if row.p50_ms is not None else "-"
        p99 = f"{row.p99_ms:.2f}" if row.p99_ms is not None else "-"
        pid = str(row.pid) if row.pid is not None else "-"
        lines.append(
            f"{row.shard_id:<12} {pid:>8} {row.requests:>10,.0f} "
            f"{row.qps:>8,.1f} {p50:>8} {p99:>8} {row.restarts:>8,.0f}"
        )
    if not frame.rows:
        lines.append("(no live shards)")
    return "\n".join(lines) + "\n"


class ClusterTop:
    """The refresh loop behind ``repro obs top``.

    Args:
        poll: zero-arg callable returning one ``/stats`` payload dict
            (the CLI wires an HTTP GET; tests inject a stub).
        out: text sink frames are written to.
        interval_s: seconds between polls.
        clock: monotonic clock (injectable for tests).
        use_ansi: clear the screen between frames; default: only when
            ``out`` is a TTY.
    """

    def __init__(
        self,
        poll: Callable[[], Dict[str, Any]],
        out: TextIO,
        interval_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
        use_ansi: Optional[bool] = None,
    ) -> None:
        if interval_s <= 0.0:
            raise ObservabilityError(
                f"interval_s must be positive, got {interval_s!r}"
            )
        self._poll = poll
        self._out = out
        self._interval_s = interval_s
        self._clock = clock
        if use_ansi is None:
            use_ansi = bool(getattr(out, "isatty", lambda: False)())
        self._use_ansi = use_ansi
        self._sleep: Callable[[float], None] = time.sleep

    def run(self, iterations: int = 0) -> int:
        """Poll-render until interrupted (or for ``iterations`` frames).

        Args:
            iterations: frames to render; ``0`` means run until
                ``KeyboardInterrupt``.

        Returns:
            The number of successful polls (so the CLI can exit
            non-zero when the endpoint never answered).
        """
        previous: Optional[Dict[str, Any]] = None
        previous_at = self._clock()
        successes = 0
        errors = 0
        frames = 0
        while True:
            try:
                current = self._poll()
            except Exception:  # noqa: BLE001 - keep polling through blips
                current = None
                errors += 1
            now = self._clock()
            if current is not None:
                frame = snapshot_frame(
                    current,
                    previous=previous,
                    elapsed_s=now - previous_at if previous is not None else 0.0,
                    poll_errors=errors,
                )
                previous, previous_at = current, now
                successes += 1
                text = render_frame(frame)
            else:
                text = f"(poll failed; {errors} error(s) so far)\n"
            if self._use_ansi:
                self._out.write(_ANSI_CLEAR)
            self._out.write(text)
            self._out.flush()
            frames += 1
            if iterations and frames >= iterations:
                return successes
            try:
                self._sleep(self._interval_s)
            except KeyboardInterrupt:
                return successes
