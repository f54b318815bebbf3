"""Command-line front end for the observability layer.

Reused by the main ``repro`` CLI::

    repro obs report /tmp/spans.jsonl       # span tree + hottest spans
    repro obs report a.jsonl b.jsonl        # merged cross-process tree
    repro obs validate /tmp/spans.jsonl     # JSON-schema check (CI gate)
    repro obs schema                        # print the span schema
    repro obs top http://127.0.0.1:8787     # live cluster dashboard
    repro run fig7 --obs-out /tmp/spans.jsonl
    repro solve --obs-out /tmp/spans.jsonl
    repro serve --rounds 2 --obs-out /tmp/spans.jsonl

``obs_session`` is the ``--obs-out`` implementation: it enables the
global tracer for the duration of a command and dumps the spans recorded
meanwhile plus the global metrics registry to the requested path on the
way out.

Exit status: 0 on success, 1 when ``validate`` finds schema problems,
2 on usage/IO errors.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional

from ..errors import ObservabilityError
from .dashboard import ClusterTop
from .export import (
    SPAN_SCHEMA,
    prometheus_text,
    read_jsonl,
    render_report,
    validate_records,
    write_jsonl,
)
from .metrics import get_registry
from .trace import get_tracer

__all__ = ["add_obs_arguments", "add_obs_out_argument", "run_obs", "obs_session"]


def add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro obs`` sub-subcommands to a (sub)parser."""
    actions = parser.add_subparsers(dest="obs_command", required=True)

    report = actions.add_parser(
        "report", help="render a span dump as a tree + hottest-spans table"
    )
    report.add_argument(
        "paths",
        nargs="+",
        metavar="path",
        help=(
            "spans JSONL file(s) (from --obs-out); several files merge "
            "into one cross-process tree via shared trace/span ids"
        ),
    )
    report.add_argument(
        "--top", type=int, default=10, help="hottest-span rows (default: 10)"
    )

    validate = actions.add_parser(
        "validate", help="validate a span dump against the span schema"
    )
    validate.add_argument("path", help="spans JSONL file (from --obs-out)")
    validate.add_argument(
        "--min-spans",
        type=int,
        default=1,
        help="fail unless at least this many span records exist (default: 1)",
    )

    actions.add_parser("schema", help="print the span JSON schema")

    metrics = actions.add_parser(
        "metrics", help="render a dump's metric records in Prometheus text format"
    )
    metrics.add_argument("path", help="obs JSONL file (from --obs-out)")

    top = actions.add_parser(
        "top", help="live terminal dashboard over a cluster /stats endpoint"
    )
    top.add_argument(
        "url",
        help="cluster base URL (e.g. http://127.0.0.1:8787); /stats is appended",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="seconds between polls (default: 1.0)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="frames to render before exiting; 0 = until interrupted",
    )


def add_obs_out_argument(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--obs-out PATH`` flag to a command parser."""
    parser.add_argument(
        "--obs-out",
        default=None,
        metavar="PATH",
        help=(
            "enable tracing for this command and write spans + metrics "
            "as JSON lines to PATH (see docs/OBSERVABILITY.md)"
        ),
    )


def run_obs(args: argparse.Namespace) -> int:
    """Execute a parsed ``repro obs`` invocation; returns the exit code."""
    if args.obs_command == "schema":
        print(json.dumps(SPAN_SCHEMA, indent=2, sort_keys=True))
        return 0

    if args.obs_command == "top":
        return _run_top(args)

    if args.obs_command == "report":
        records: List[Dict[str, Any]] = []
        try:
            for path in args.paths:
                records.extend(read_jsonl(path))
        except (OSError, ObservabilityError) as exc:
            print(f"error: {exc}")
            return 2
        print(render_report(records, top=args.top), end="")
        return 0

    try:
        records = read_jsonl(args.path)
    except (OSError, ObservabilityError) as exc:
        print(f"error: {exc}")
        return 2

    if args.obs_command == "metrics":
        print(_metrics_from_records(records), end="")
        return 0

    # validate
    n_spans, problems = validate_records(records)
    for problem in problems:
        print(problem)
    if problems:
        print(f"{len(problems)} schema problem(s) in {args.path}")
        return 1
    if n_spans < args.min_spans:
        print(
            f"error: {args.path} holds {n_spans} span record(s), "
            f"expected >= {args.min_spans}"
        )
        return 1
    print(f"{n_spans} span record(s) valid against the span schema")
    return 0


def _http_stats_poll(url: str, timeout: float = 5.0) -> Callable[[], Dict[str, Any]]:
    """A poll callable GETting ``<url>/stats`` as JSON."""
    endpoint = url.rstrip("/") + "/stats"

    def poll() -> Dict[str, Any]:
        with urllib.request.urlopen(endpoint, timeout=timeout) as response:
            payload = json.loads(response.read().decode("utf-8"))
        if not isinstance(payload, dict):
            raise ObservabilityError(f"{endpoint} did not return a JSON object")
        return payload

    return poll


def _run_top(args: argparse.Namespace) -> int:
    """``repro obs top URL`` — poll /stats and render the dashboard."""
    try:
        top = ClusterTop(
            poll=_http_stats_poll(args.url),
            out=sys.stdout,
            interval_s=args.interval,
        )
    except ObservabilityError as exc:
        print(f"error: {exc}")
        return 2
    try:
        successes = top.run(iterations=args.iterations)
    except KeyboardInterrupt:
        return 0
    except urllib.error.URLError as exc:
        print(f"error: {exc}")
        return 2
    return 0 if successes else 2


def _metrics_from_records(records: list) -> str:
    """Re-render dumped metric records as Prometheus text.

    Rebuilds a throwaway registry from the dump so the exposition goes
    through the one true formatter (:func:`prometheus_text`).
    """
    from .metrics import MetricsRegistry

    registry = MetricsRegistry()
    for record in records:
        if record.get("kind") != "metric":
            continue
        name = record.get("name", "")
        metric_kind = record.get("metric_kind")
        if metric_kind == "counter":
            registry.counter(name).inc(float(record.get("value", 0.0)))
        elif metric_kind == "gauge":
            registry.gauge(name).set(float(record.get("value", 0.0)))
        elif metric_kind == "histogram":
            histogram = registry.histogram(name)
            # Dumps carry aggregates, not raw samples; restore the exact
            # count/sum so _count/_sum lines round-trip.
            histogram.count = int(record.get("count", 0))
            histogram.total = float(record.get("total", 0.0))
    return prometheus_text(registry)


@contextlib.contextmanager
def obs_session(
    path: Optional[str],
    extra_records: Optional[Callable[[], Iterable[Dict[str, Any]]]] = None,
) -> Iterator[None]:
    """Enable tracing for one CLI command and dump on exit.

    The dump holds only the spans finished during the session, and the
    session takes them out of the global tracer, so spans never leak
    from one session into the next.  A ``None`` path is a no-op (the
    command runs untraced), so call sites can wrap unconditionally::

        with obs_session(args.obs_out):
            run_command(args)

    Args:
        path: the JSONL dump target (``--obs-out``), or ``None``.
        extra_records: called at dump time for additional records to
            merge into the file — the cluster CLI hands over shard-side
            span/metric records scraped over the pipes, producing one
            merged cross-process dump.
    """
    if path is None:
        yield
        return
    tracer = get_tracer()
    was_enabled = tracer.enabled
    earlier = tracer.swap_spans()
    tracer.enabled = True
    try:
        yield
    finally:
        tracer.enabled = was_enabled
        recorded = tracer.swap_spans(earlier)
        merged = list(extra_records()) if extra_records is not None else None
        n_records = write_jsonl(
            Path(path),
            tracer=recorded,
            registry=get_registry(),
            extra_records=merged,
        )
        print(f"wrote {n_records} obs record(s) to {path}")
