"""``repro.obs`` — unified tracing, metrics and profiling.

One dependency-free observability layer across the whole pipeline:

* :mod:`repro.obs.trace` — span tracer with monotonic timing, nested
  parent/child ids and per-span attributes (worker archetype, candidate
  count ``K``, chosen interval ``k*``, cache-hit flag, bound slack...).
* :mod:`repro.obs.metrics` — counters / gauges / bounded histograms on
  a shared registry, summarized through the same
  :func:`repro.metrics.percentiles.summarize` the experiments use.
* :mod:`repro.obs.export` — JSON-lines dumps, Prometheus text format
  and the ``repro obs report`` tree view.
* :mod:`repro.obs.profile` — opt-in per-span wall/CPU sampling gated by
  ``REPRO_OBS=1``, near-zero overhead when disabled.
* :mod:`repro.obs.aggregate` — cluster-wide metrics federation: shard
  exports merged into one registry, live ``/metrics`` exposition.
* :mod:`repro.obs.dashboard` — the ``repro obs top`` terminal view.

Everything is **off by default**; turn it on with :func:`enable`, the
``--obs-out`` CLI flags, or ``REPRO_OBS=1``.  Span taxonomy and metric
names are documented in ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

from typing import Optional

from .aggregate import (
    ClusterScrape,
    ScrapeLoop,
    ShardExport,
    federate,
    local_export,
    metric_samples,
    validate_prometheus_text,
)
from .dashboard import ClusterTop, TopFrame, render_frame, snapshot_frame
from .export import (
    SPAN_SCHEMA,
    prometheus_text,
    read_jsonl,
    render_report,
    validate_records,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    merge_histograms,
    set_registry,
)
from .profile import SpanProfile, hottest, profile_spans, profiling_enabled
from .trace import (
    ENV_VAR,
    NULL_SPAN,
    TRACEPARENT_HEADER,
    NullSpan,
    Span,
    SpanContext,
    Tracer,
    env_enabled,
    format_traceparent,
    get_tracer,
    parse_traceparent,
    set_tracer,
)

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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_histograms",
    "get_registry",
    "set_registry",
    "SPAN_SCHEMA",
    "write_jsonl",
    "read_jsonl",
    "validate_records",
    "prometheus_text",
    "render_report",
    "SpanProfile",
    "profile_spans",
    "profiling_enabled",
    "hottest",
    "ClusterScrape",
    "ScrapeLoop",
    "ShardExport",
    "federate",
    "local_export",
    "metric_samples",
    "validate_prometheus_text",
    "ClusterTop",
    "TopFrame",
    "render_frame",
    "snapshot_frame",
    "enable",
    "disable",
]


def enable(cpu: Optional[bool] = None) -> Tracer:
    """Switch the global tracer on (idempotent); returns it.

    Args:
        cpu: additionally sample per-span CPU time; ``None`` keeps the
            tracer's current setting (the ``REPRO_OBS`` default).
    """
    tracer = get_tracer()
    tracer.enabled = True
    if cpu is not None:
        tracer.profile_cpu = cpu
    return tracer


def disable() -> Tracer:
    """Switch the global tracer off (spans already recorded are kept)."""
    tracer = get_tracer()
    tracer.enabled = False
    return tracer
