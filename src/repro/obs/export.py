"""Exporters: JSON-lines dumps, Prometheus text format, tree reports.

Three consumers, three formats:

* **JSON lines** — one record per line, ``kind`` discriminated
  (``span`` / ``metric``); the ``--obs-out`` flag writes this, replay
  tooling and the CI smoke job read it back.
* **Prometheus text exposition** — counters and gauges verbatim,
  histograms as summaries with ``quantile`` labels derived from the
  same :func:`repro.metrics.percentiles.summarize` estimator used
  everywhere else.
* **Human report** — the ``repro obs report`` tree view: the span
  forest with durations and attributes, followed by the hottest span
  names.

The span-record schema ships as a plain JSON-Schema dict
(:data:`SPAN_SCHEMA`) together with a dependency-free interpreter
(:func:`validate_records`) so the CI gate needs nothing beyond the
library itself.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..errors import ObservabilityError
from ..metrics.percentiles import summarize
from .metrics import MetricsRegistry
from .trace import Span, Tracer

__all__ = [
    "SPAN_SCHEMA",
    "span_records",
    "metric_records",
    "write_jsonl",
    "read_jsonl",
    "validate_records",
    "prometheus_text",
    "render_report",
]

#: JSON Schema (draft-07 subset) every ``kind == "span"`` record obeys.
SPAN_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro.obs span record",
    "type": "object",
    "required": ["kind", "name", "span_id", "start_s", "end_s", "duration_ms"],
    "properties": {
        "kind": {"type": "string", "enum": ["span"]},
        "name": {"type": "string", "minLength": 1},
        "span_id": {"type": "string", "minLength": 1},
        "trace_id": {"type": "string"},
        "parent_id": {"type": ["string", "null"]},
        "start_s": {"type": "number"},
        "end_s": {"type": ["number", "null"]},
        "duration_ms": {"type": ["number", "null"], "minimum": 0},
        "cpu_ms": {"type": "number", "minimum": 0},
        "error": {"type": "string"},
        "attributes": {"type": "object"},
    },
}

_METRIC_REQUIRED = ("kind", "name", "metric_kind")


def span_records(source: Union[Tracer, Sequence[Span]]) -> List[Dict[str, Any]]:
    """Span export records from a tracer or a span sequence."""
    spans = source.spans() if isinstance(source, Tracer) else source
    return [span.to_record() for span in spans]


def metric_records(registry: MetricsRegistry) -> List[Dict[str, Any]]:
    """Metric export records (``kind == "metric"``) from a registry."""
    records: List[Dict[str, Any]] = []
    for metric in registry.metrics():
        record: Dict[str, Any] = {
            "kind": "metric",
            "name": metric.name,
            "metric_kind": metric.kind,
        }
        if metric.kind == "histogram":
            record.update(metric.snapshot())
        else:
            record["value"] = metric.value
        records.append(record)
    return records


def write_jsonl(
    path: Union[str, Path],
    tracer: Optional[Union[Tracer, Sequence[Span]]] = None,
    registry: Optional[MetricsRegistry] = None,
    extra_records: Optional[Iterable[Dict[str, Any]]] = None,
) -> int:
    """Write spans (and optionally metrics) as JSON lines.

    ``tracer`` is a tracer or a span sequence (see :func:`span_records`).
    Returns the number of records written.
    """
    records: List[Dict[str, Any]] = []
    if tracer is not None:
        records.extend(span_records(tracer))
    if registry is not None:
        records.extend(metric_records(registry))
    if extra_records is not None:
        records.extend(extra_records)
    target = Path(path)
    with target.open("w", encoding="ascii") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
    return len(records)


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read an obs JSONL dump back into records.

    Raises:
        ObservabilityError: on unparseable lines.
    """
    records: List[Dict[str, Any]] = []
    for number, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ObservabilityError(
                f"{path}:{number}: invalid JSON record: {exc}"
            ) from exc
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"{path}:{number}: expected a JSON object, got {type(record).__name__}"
            )
        records.append(record)
    return records


# -- schema validation (dependency-free JSON-Schema subset) -----------


def _check_type(value: Any, expected: Union[str, List[str]]) -> bool:
    kinds = [expected] if isinstance(expected, str) else list(expected)
    for kind in kinds:
        if kind == "null" and value is None:
            return True
        if kind == "string" and isinstance(value, str):
            return True
        if kind == "number" and isinstance(value, (int, float)) and not isinstance(value, bool):
            return True
        if kind == "object" and isinstance(value, dict):
            return True
    return False


def _validate_span(record: Dict[str, Any], where: str) -> List[str]:
    problems: List[str] = []
    for key in SPAN_SCHEMA["required"]:
        if key not in record:
            problems.append(f"{where}: missing required field {key!r}")
    for key, rule in SPAN_SCHEMA["properties"].items():
        if key not in record:
            continue
        value = record[key]
        if not _check_type(value, rule["type"]):
            problems.append(
                f"{where}: field {key!r} has type {type(value).__name__}, "
                f"schema requires {rule['type']}"
            )
            continue
        if "enum" in rule and value not in rule["enum"]:
            problems.append(f"{where}: field {key!r} not in {rule['enum']}")
        if "minLength" in rule and isinstance(value, str) and len(value) < rule["minLength"]:
            problems.append(f"{where}: field {key!r} shorter than {rule['minLength']}")
        if "minimum" in rule and isinstance(value, (int, float)) and value < rule["minimum"]:
            problems.append(f"{where}: field {key!r} below minimum {rule['minimum']}")
    return problems


def validate_records(records: Sequence[Dict[str, Any]]) -> Tuple[int, List[str]]:
    """Validate span records against :data:`SPAN_SCHEMA`.

    Metric records are counted but only shallowly checked (required
    discriminator fields); unknown kinds are rejected.

    Returns:
        ``(n_spans_validated, problems)`` — an empty problem list means
        the dump is schema-clean.
    """
    problems: List[str] = []
    n_spans = 0
    for index, record in enumerate(records):
        where = f"record {index}"
        kind = record.get("kind")
        if kind == "span":
            n_spans += 1
            problems.extend(_validate_span(record, where))
        elif kind == "metric":
            for key in _METRIC_REQUIRED:
                if key not in record:
                    problems.append(f"{where}: missing required field {key!r}")
        else:
            problems.append(f"{where}: unknown record kind {kind!r}")
    return n_spans, problems


# -- Prometheus text format -------------------------------------------


def _prom_name(name: str) -> str:
    sanitized = "".join(
        ch if (ch.isalnum() or ch == "_") else "_" for ch in name
    )
    if not sanitized or sanitized[0].isdigit():
        sanitized = f"_{sanitized}"
    return f"repro_{sanitized}" if not sanitized.startswith("repro_") else sanitized


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges map directly; histograms are exposed as
    summaries (``_count`` / ``_sum`` plus ``quantile`` samples for the
    5th, 50th and 95th percentiles of the retained reservoir).
    """
    lines: List[str] = []
    for metric in registry.metrics():
        name = _prom_name(metric.name)
        if metric.help:
            lines.append(f"# HELP {name} {metric.help}")
        if metric.kind in ("counter", "gauge"):
            lines.append(f"# TYPE {name} {metric.kind}")
            lines.append(f"{name} {_prom_value(metric.value)}")
            continue
        lines.append(f"# TYPE {name} summary")
        samples = metric.samples
        if samples:
            summary = summarize(samples)
            median = float(sorted(samples)[len(samples) // 2])
            lines.append(f'{name}{{quantile="0.05"}} {_prom_value(summary.p5)}')
            lines.append(f'{name}{{quantile="0.5"}} {_prom_value(median)}')
            lines.append(f'{name}{{quantile="0.95"}} {_prom_value(summary.p95)}')
        lines.append(f"{name}_count {_prom_value(float(metric.count))}")
        lines.append(f"{name}_sum {_prom_value(metric.total)}")
    return "\n".join(lines) + ("\n" if lines else "")


def _prom_value(value: float) -> str:
    return repr(float(value))


# -- human report ------------------------------------------------------


def render_report(
    records: Sequence[Dict[str, Any]],
    max_depth: int = 12,
    max_children: int = 40,
    top: int = 10,
) -> str:
    """Render span records as a tree plus a hottest-spans table.

    Args:
        records: JSONL records (span records are used, metric records
            and unknown kinds are skipped).
        max_depth: deepest tree level rendered.
        max_children: most children rendered under one parent; the rest
            collapse into a ``... (+n more)`` line, never silently.
        top: rows in the hottest-spans table.
    """
    spans = [r for r in records if r.get("kind") == "span"]
    if not spans:
        return "no spans recorded\n"
    by_id: Dict[str, Dict[str, Any]] = {}
    children: Dict[Optional[str], List[Dict[str, Any]]] = {}
    for record in spans:
        by_id[record["span_id"]] = record
    # Spans whose parent never reached the dump (bounded-buffer drop,
    # or a cross-process parent whose dump was not merged in) gather
    # under a synthetic <detached> root rather than being lost or
    # silently promoted to look like real roots.
    detached: List[Dict[str, Any]] = []
    for record in spans:
        parent = record.get("parent_id")
        if parent is None:
            children.setdefault(None, []).append(record)
        elif parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            detached.append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("start_s") or 0.0, r["span_id"]))
    detached.sort(key=lambda r: (r.get("start_s") or 0.0, r["span_id"]))

    lines: List[str] = ["-- span tree --"]

    def emit(record: Dict[str, Any], depth: int) -> None:
        if depth > max_depth:
            return
        indent = "  " * depth
        duration = record.get("duration_ms")
        shown = f"{duration:.3f}ms" if isinstance(duration, (int, float)) else "open"
        attrs = record.get("attributes") or {}
        attr_text = ""
        if attrs:
            parts = [f"{k}={_fmt_attr(v)}" for k, v in sorted(attrs.items())]
            attr_text = "  [" + ", ".join(parts) + "]"
        error = record.get("error")
        error_text = f"  !{error}" if error else ""
        lines.append(f"{indent}{record['name']}  {shown}{attr_text}{error_text}")
        kids = children.get(record["span_id"], [])
        for child in kids[:max_children]:
            emit(child, depth + 1)
        if len(kids) > max_children:
            lines.append(f"{indent}  ... (+{len(kids) - max_children} more)")

    roots = children.get(None, [])
    for root in roots[:max_children]:
        emit(root, 0)
    if len(roots) > max_children:
        lines.append(f"... (+{len(roots) - max_children} more roots)")
    if detached:
        lines.append(
            f"<detached>  ({len(detached)} span(s) whose parent is not "
            "in this dump)"
        )
        for orphan in detached[:max_children]:
            emit(orphan, 1)
        if len(detached) > max_children:
            lines.append(
                f"  ... (+{len(detached) - max_children} more)"
            )

    lines.append("")
    lines.append("-- hottest spans --")
    durations: Dict[str, List[float]] = {}
    cpu: Dict[str, float] = {}
    for record in spans:
        duration = record.get("duration_ms")
        if isinstance(duration, (int, float)):
            durations.setdefault(record["name"], []).append(float(duration))
        if isinstance(record.get("cpu_ms"), (int, float)):
            cpu[record["name"]] = cpu.get(record["name"], 0.0) + float(record["cpu_ms"])
    header = f"{'name':<28} {'count':>7} {'total_ms':>10} {'mean_ms':>9} {'p95_ms':>9}"
    lines.append(header)
    ranked = sorted(
        durations.items(), key=lambda item: -sum(item[1])
    )[:top]
    for name, values in ranked:
        summary = summarize(values)
        row = (
            f"{name:<28} {len(values):>7} {sum(values):>10.3f} "
            f"{summary.mean:>9.3f} {summary.p95:>9.3f}"
        )
        if name in cpu:
            row += f"  cpu={cpu[name]:.3f}ms"
        lines.append(row)
    return "\n".join(lines) + "\n"


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
