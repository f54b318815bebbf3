"""The traced run: timing wrappers around each layer's public functions.

Spans are recorded from the benchmark's own files.  Each wrapper is
patched where its caller looks the function up: a module global is
replaced in every ``repro`` module that bound it by name (most callers
do ``from .codec import ...``), a method is replaced on the class that
defines it, and the experiment drivers are replaced in the runner's
registries.  Only layer-boundary functions are wrapped, never
per-subject ones.  A function that no longer exists is reported as an
absent layer instead of failing the run.

A span is ``[name, start, end, parent, unit, thread, key]``; spans stay
in memory and are written out when the run ends.  A span's self time is
its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, UNIT, THREAD, KEY = range(7)

#: Experiment driver ids, in the order ``run_all`` runs them.
DRIVER_IDS = (
    "table2", "table3", "fig6", "fig7", "fig8a", "fig8b", "fig8c",
    "ext_adaptive", "ext_budget", "ext_camouflage", "ext_labeling", "ext_retention",
)

LAYERS = (
    "workers.columnar",
    "core",
    "simulation.policies",
    "simulation.engine",
    "simulation.streaming",
    "serving.cluster",
    "experiments",
)

KeyOf = Callable[[tuple, dict, Any], Any]


def _key_from_frame(args: tuple, kwargs: dict, result: Any) -> Any:
    return tuple(result["fingerprints"])


def _key_from_frame_subproblems(args: tuple, kwargs: dict, result: Any) -> Any:
    return tuple(result[1])


def _key_from_router_call(args: tuple, kwargs: dict, result: Any) -> Any:
    fingerprints = args[2] if len(args) > 2 else kwargs["fingerprints"]
    return tuple(fingerprints)


def _key_from_design(args: tuple, kwargs: dict, result: Any) -> Any:
    return kwargs["fingerprint"]


@dataclass(frozen=True)
class Target:
    """One wrapped function: span name, layer, and where it is defined."""

    span: str
    layer: str
    module: str
    qualname: str
    key_of: Optional[KeyOf] = None


TARGETS: Tuple[Target, ...] = (
    Target("unique_rows", "workers.columnar", "repro.workers.columnar", "unique_rows"),
    Target("respond_unique", "workers.columnar", "repro.workers.columnar",
           "ColumnarPopulation.respond_unique"),
    Target("update_design_columns", "workers.columnar", "repro.workers.columnar",
           "ColumnarPopulation.update_design_columns"),
    Target("design", "core", "repro.core.designer", "ContractDesigner.design"),
    Target("sweep", "core", "repro.core.sweep", "sweep_candidates_with_stats"),
    Target("best_response", "core", "repro.core.best_response", "solve_best_response"),
    Target("design_epoch", "simulation.policies", "repro.simulation.policies",
           "DynamicContractPolicy.contracts_columnar"),
    Target("columnar_kernel", "simulation.engine", "repro.simulation.engine", "fast_columnar_step"),
    Target("payment", "simulation.engine", "repro.core.piecewise", "PiecewiseLinear.batch"),
    Target("feedback_noise", "simulation.engine", "repro.workers.base",
           "WorkerAgent.realize_feedback_batch"),
    Target("rating_noise", "simulation.engine", "repro.workers.base",
           "WorkerAgent.rating_deviation_batch"),
    Target("object_round", "simulation.engine", "repro.simulation.engine", "fast_step"),
    Target("ledger_append", "simulation.streaming", "repro.simulation.streaming",
           "StreamingLedger.append"),
    Target("histogram_observe", "simulation.streaming", "repro.simulation.streaming",
           "StreamingHistogram.observe"),
    Target("frame_decode", "serving.cluster", "repro.serving.cluster.codec", "frame_from_json",
           _key_from_frame),
    Target("frame_subproblems", "serving.cluster", "repro.serving.cluster.codec",
           "subproblems_from_frame", _key_from_frame_subproblems),
    Target("design_encode", "serving.cluster", "repro.serving.cluster.codec", "design_to_json",
           _key_from_design),
    Target("router", "serving.cluster", "repro.serving.cluster.router",
           "ShardRouter.solve_designs", _key_from_router_call),
    Target("shard_wait", "serving.cluster", "repro.serving.cluster.shard", "ShardProcess.request"),
    Target("context", "experiments", "repro.experiments.common", "build_context"),
    Target("population_build", "experiments", "repro.workers.population", "build_population"),
)

#: The experiment drivers, looked up by ``run_all`` in these registries.
DRIVER_MODULE = "repro.experiments.runner"
DRIVER_REGISTRIES = ("EXPERIMENTS", "EXTENSIONS")


_LAYER_OF_SPAN = {target.span: target.layer for target in TARGETS}


def layer_of(span: str) -> str:
    if span.startswith("driver."):
        return "experiments"
    return _LAYER_OF_SPAN.get(span, "bench")


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric of the traced run, per unit.

    ``stat`` is ``calls`` (span count), ``busy`` (outermost span time),
    ``self`` (span self time), ``layer`` (self time of a whole layer),
    ``remainder`` (the unit's own self time: nothing wrapped covers it),
    ``counter`` (a number the workload reads from the program) or
    ``overhead`` (traced over untraced ``unit_ms``).
    """

    name: str
    unit: str
    stat: str
    spans: Tuple[str, ...] = ()


LAYER_METRICS: Tuple[LayerMetric, ...] = (
    LayerMetric("columnar.unique_rows_calls", "count", "calls", ("unique_rows",)),
    LayerMetric("columnar.unique_rows_ms", "ms", "busy", ("unique_rows",)),
    LayerMetric("columnar.respond_unique_ms", "ms", "busy", ("respond_unique",)),
    LayerMetric("columnar.update_columns_ms", "ms", "busy", ("update_design_columns",)),
    LayerMetric("core.design_calls", "count", "calls", ("design",)),
    LayerMetric("core.design_ms", "ms", "busy", ("design",)),
    LayerMetric("core.sweep_calls", "count", "calls", ("sweep",)),
    LayerMetric("core.best_response_calls", "count", "calls", ("best_response",)),
    LayerMetric("core.best_response_ms", "ms", "busy", ("best_response",)),
    LayerMetric("simulation.design_epoch_ms", "ms", "busy", ("design_epoch",)),
    LayerMetric("simulation.n_dirty", "count", "counter"),
    LayerMetric("simulation.reuse_rate", "ratio", "counter"),
    LayerMetric("simulation.kernel_self_ms", "ms", "self", ("columnar_kernel",)),
    LayerMetric("simulation.payment_calls", "count", "calls", ("payment",)),
    LayerMetric("simulation.payment_ms", "ms", "busy", ("payment",)),
    LayerMetric("simulation.noise_ms", "ms", "busy", ("feedback_noise", "rating_noise")),
    LayerMetric("simulation.object_rounds", "count", "calls", ("object_round",)),
    LayerMetric("simulation.object_round_ms", "ms", "busy", ("object_round",)),
    LayerMetric("simulation.ledger_append_ms", "ms", "busy", ("ledger_append",)),
    LayerMetric("simulation.histogram_observe_ms", "ms", "busy", ("histogram_observe",)),
    LayerMetric("serving.decode_ms", "ms", "busy", ("frame_decode", "frame_subproblems")),
    LayerMetric("serving.encode_ms", "ms", "busy", ("design_encode",)),
    LayerMetric("serving.router_ms", "ms", "busy", ("router",)),
    LayerMetric("serving.shard_wait_ms", "ms", "busy", ("shard_wait",)),
    LayerMetric("serving.request_bytes", "bytes", "counter"),
    LayerMetric("serving.response_bytes", "bytes", "counter"),
    LayerMetric("serving.cache_hit_ratio", "ratio", "counter"),
    LayerMetric("serving.cache_misses", "count", "counter"),
    LayerMetric("serving.retries", "count", "counter"),
    LayerMetric("serving.transport_errors", "count", "counter"),
    LayerMetric("serving.local_fallbacks", "count", "counter"),
    LayerMetric("experiments.context_ms", "ms", "busy", ("context",)),
    *(
        LayerMetric(f"experiments.{driver}_ms", "ms", "busy", (f"driver.{driver}",))
        for driver in DRIVER_IDS
    ),
    LayerMetric("workers.population_build_ms", "ms", "busy", ("population_build",)),
    *(LayerMetric(f"self_ms.{layer}", "ms", "layer", (layer,)) for layer in LAYERS),
    LayerMetric("self_ms.unaccounted", "ms", "remainder"),
    LayerMetric("obs.trace_overhead", "ratio", "overhead"),
)


class SpanRecorder:
    """In-memory span sink with one open-span stack per thread.

    Wrappers record only in the process that created the recorder, so a
    process forked after installation (a serving shard) runs the
    originals untouched.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.roots: Dict[int, int] = {}
        self.unit: Optional[int] = None
        self._pid = os.getpid()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, unit: Optional[int] = None) -> int:
        stack = self._stack()
        record = [
            name,
            time.perf_counter(),
            0.0,
            stack[-1] if stack else -1,
            self.unit if unit is None else unit,
            threading.get_ident(),
            None,
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None, key: Any = None) -> None:
        record = self.spans[index]
        record[END] = time.perf_counter() if end is None else end
        record[KEY] = key
        self._stack().pop()

    def wrap(self, name: str, function: Callable, key_of: Optional[KeyOf] = None) -> Callable:
        recorder = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != recorder._pid:
                return function(*args, **kwargs)
            index = recorder.open(name)
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                key = None
                if key_of is not None:
                    try:
                        key = key_of(args, kwargs, result)
                    except (LookupError, TypeError):
                        key = None
                recorder.close(index, end, key)

        return traced


class Installation:
    """Wrappers installed into the loaded program; :meth:`uninstall` undoes them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.absent: Dict[str, str] = {}
        self._restore: List[Tuple[Any, Any, Any, bool]] = []

    def install(self, targets: Sequence[Target] = TARGETS, drivers: bool = True) -> "Installation":
        for target in targets:
            try:
                self._install(target)
            except (ImportError, AttributeError) as error:
                self.absent[target.span] = f"{target.module}.{target.qualname} not found ({error})"
        if drivers:
            self._install_drivers()
        return self

    def _install(self, target: Target) -> None:
        module = importlib.import_module(target.module)
        if "." in target.qualname:
            class_name, method = target.qualname.split(".")
            cls = getattr(module, class_name)
            raw = inspect.getattr_static(cls, method)
            owner = next(klass for klass in cls.__mro__ if method in vars(klass))
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self.recorder.wrap(target.span, raw.__func__, target.key_of))
            else:
                wrapped = self.recorder.wrap(target.span, raw, target.key_of)
            self._set(owner, method, wrapped)
            return
        original = getattr(module, target.qualname)
        wrapped = self.recorder.wrap(target.span, original, target.key_of)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attribute, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attribute, wrapped)

    def _install_drivers(self) -> None:
        try:
            module = importlib.import_module(DRIVER_MODULE)
            registries = [getattr(module, name) for name in DRIVER_REGISTRIES]
        except (ImportError, AttributeError) as error:
            for driver in DRIVER_IDS:
                self.absent[f"driver.{driver}"] = f"driver registries not found ({error})"
            return
        found = set()
        for registry in registries:
            for driver, function in list(registry.items()):
                registry[driver] = self.recorder.wrap(f"driver.{driver}", function)
                self._restore.append((registry, driver, function, True))
                found.add(driver)
        for driver in DRIVER_IDS:
            if driver not in found:
                self.absent[f"driver.{driver}"] = f"driver {driver!r} not registered"

    def _set(self, container: Any, name: str, value: Any) -> None:
        self._restore.append((container, name, inspect.getattr_static(container, name), False))
        setattr(container, name, value)

    def uninstall(self) -> None:
        for container, name, original, is_item in reversed(self._restore):
            if is_item:
                container[name] = original
            else:
                setattr(container, name, original)
        self._restore.clear()


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the intervals its child spans cover."""
    children: Dict[int, List[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(index)
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = union_length(
            (max(start, spans[child][START]), min(end, spans[child][END]))
            for child in children.get(index, ())
        )
        result.append((end - start) - covered)
    return result


def unit_of(spans: Sequence[list]) -> List[Optional[int]]:
    """Each span's unit: its own, else its nearest ancestor's."""
    units: List[Optional[int]] = [None] * len(spans)
    for index, span in enumerate(spans):
        unit = span[UNIT]
        if unit is None and span[PARENT] >= 0:
            unit = units[span[PARENT]] if span[PARENT] < index else None
        units[index] = unit
    return units


@dataclass
class UnitBreakdown:
    """Where one unit's time went."""

    unit: int
    total_ms: float
    layer_self_ms: Dict[str, float]
    remainder_ms: float
    calls: Dict[str, int]
    busy_ms: Dict[str, float]
    self_ms: Dict[str, float]


def breakdown(spans: Sequence[list], roots: Dict[int, int]) -> List[UnitBreakdown]:
    """Per-unit layer self times, call counts and busy times.

    ``roots`` maps each unit to the index of its root span, whose own
    self time is the unaccounted remainder.  Layer self times plus the
    remainder add up to the root's duration.
    """
    selfs = self_times(spans)
    units = unit_of(spans)
    root_indices = set(roots.values())
    result: Dict[int, UnitBreakdown] = {}
    for unit, root in roots.items():
        span = spans[root]
        result[unit] = UnitBreakdown(
            unit=unit,
            total_ms=(span[END] - span[START]) * 1e3,
            layer_self_ms=defaultdict(float),
            remainder_ms=selfs[root] * 1e3,
            calls=defaultdict(int),
            busy_ms=defaultdict(float),
            self_ms=defaultdict(float),
        )
    for index, span in enumerate(spans):
        unit = units[index]
        if index in root_indices or unit not in result:
            continue
        entry = result[unit]
        name = span[NAME]
        entry.calls[name] += 1
        entry.self_ms[name] += selfs[index] * 1e3
        entry.layer_self_ms[layer_of(name)] += selfs[index] * 1e3
        if not _has_ancestor_named(spans, index, name):
            entry.busy_ms[name] += (span[END] - span[START]) * 1e3
    return [result[unit] for unit in sorted(result)]


def _has_ancestor_named(spans: Sequence[list], index: int, name: str) -> bool:
    parent = spans[index][PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def layer_metric_values(
    units: Sequence[UnitBreakdown],
    counters: Dict[str, float],
    trace_overhead: float,
) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` value, as a mean per traced unit."""
    n = max(len(units), 1)
    values: Dict[str, float] = {}
    for metric in LAYER_METRICS:
        if metric.stat == "calls":
            value = sum(unit.calls.get(span, 0) for unit in units for span in metric.spans) / n
        elif metric.stat == "busy":
            value = sum(unit.busy_ms.get(span, 0.0) for unit in units for span in metric.spans) / n
        elif metric.stat == "self":
            value = sum(unit.self_ms.get(span, 0.0) for unit in units for span in metric.spans) / n
        elif metric.stat == "layer":
            value = sum(unit.layer_self_ms.get(metric.spans[0], 0.0) for unit in units) / n
        elif metric.stat == "remainder":
            value = sum(unit.remainder_ms for unit in units) / n
        elif metric.stat == "counter":
            value = counters.get(metric.name, 0.0)
        else:
            value = trace_overhead
        values[metric.name] = value
    return values


def absent_reason(metric: LayerMetric, absent: Dict[str, str], absent_counters: Dict[str, str]) -> Optional[str]:
    """Why a metric cannot be measured, if a function it wraps is gone."""
    if metric.stat == "counter":
        return absent_counters.get(metric.name)
    if metric.stat == "layer":
        reasons = [
            absent[target.span] for target in TARGETS
            if target.layer == metric.spans[0] and target.span in absent
        ]
        return "; ".join(reasons) or None
    reasons = [absent[span] for span in metric.spans if span in absent]
    return "; ".join(reasons) or None


def format_unit(entry: UnitBreakdown) -> str:
    """One line: the unit's time, each layer's self time and share, the remainder."""
    total = entry.total_ms or 1e-12
    parts = [f"unit {entry.unit:>5} {entry.total_ms:10.3f} ms ="]
    for layer in LAYERS:
        value = entry.layer_self_ms.get(layer, 0.0)
        if value > 0.0:
            parts.append(f"{layer} {value:.3f} ({100 * value / total:.1f}%) +")
    parts.append(
        f"unaccounted {entry.remainder_ms:.3f} ({100 * entry.remainder_ms / total:.1f}%)"
    )
    return " ".join(parts)
