"""Opt-in per-span wall/CPU profiling, gated by ``REPRO_OBS=1``.

Tracing records *where wall-clock time went*; profiling additionally
samples the process CPU clock at span boundaries, so a span's
``cpu_ms`` vs ``duration_ms`` gap separates compute-bound work (the
candidate recursion) from waiting (shard pipe waits).  Sampling
costs two ``time.process_time()`` calls per span, so it rides the
same enablement as the tracer: **off unless** ``REPRO_OBS=1`` (or
:func:`repro.obs.enable` with ``cpu=True``), and with tracing disabled
entirely the cost is the tracer's single ``enabled`` branch — the
``benchmarks/test_bench_obs.py`` gate holds that disabled path under 3%
of the wrapped design work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..errors import ObservabilityError
from ..metrics.percentiles import summarize
from .trace import Span, Tracer

__all__ = ["SpanProfile", "profiling_enabled", "profile_spans", "hottest"]


def profiling_enabled(tracer: Tracer) -> bool:
    """Whether spans from ``tracer`` carry CPU samples."""
    return tracer.enabled and tracer.profile_cpu


@dataclass(frozen=True)
class SpanProfile:
    """Aggregate wall/CPU profile of one span name.

    Attributes:
        name: the span name profiled.
        count: spans aggregated.
        total_ms: summed wall-clock duration.
        mean_ms: mean wall-clock duration.
        p95_ms: 95th-percentile wall-clock duration (same estimator as
            every other p95 in this codebase).
        cpu_ms: summed CPU time (0.0 when CPU sampling was off).
    """

    name: str
    count: int
    total_ms: float
    mean_ms: float
    p95_ms: float
    cpu_ms: float

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ObservabilityError(
                f"a SpanProfile aggregates >= 1 span, got {self.count!r}"
            )

    @property
    def wait_ms(self) -> float:
        """Wall time not accounted for by CPU (blocking/waiting)."""
        return max(self.total_ms - self.cpu_ms, 0.0)


def profile_spans(spans: Sequence[Span]) -> Dict[str, SpanProfile]:
    """Aggregate finished spans into per-name profiles."""
    wall: Dict[str, List[float]] = {}
    cpu: Dict[str, float] = {}
    for span in spans:
        duration = span.duration_ms
        if duration is None:
            continue
        wall.setdefault(span.name, []).append(duration)
        if span.cpu_ms is not None:
            cpu[span.name] = cpu.get(span.name, 0.0) + span.cpu_ms
    profiles: Dict[str, SpanProfile] = {}
    for name, durations in wall.items():
        summary = summarize(durations)
        profiles[name] = SpanProfile(
            name=name,
            count=len(durations),
            total_ms=float(sum(durations)),
            mean_ms=summary.mean,
            p95_ms=summary.p95,
            cpu_ms=cpu.get(name, 0.0),
        )
    return profiles


def hottest(
    spans: Sequence[Span], top: int = 10
) -> Tuple[SpanProfile, ...]:
    """The ``top`` span names by total wall time, hottest first."""
    if top < 1:
        raise ObservabilityError(f"top must be >= 1, got {top!r}")
    profiles = sorted(
        profile_spans(spans).values(), key=lambda p: -p.total_ms
    )
    return tuple(profiles[:top])
