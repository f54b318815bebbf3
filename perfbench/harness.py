"""Measurement plumbing shared by every workload.

Nothing here imports the program: the statistics, the failure
accounting, the host stamp and the environment pinning must work (and
be testable) before ``repro`` is on the path.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, MutableMapping, Optional, Sequence, Tuple

#: Program switches every run resets to their defaults (unset).  The
#: invariant layer alone makes a paper-small pass about 12x slower, and
#: ``REPRO_OBS`` would turn the program's own tracer on.
PINNED_SWITCHES = (
    "REPRO_CHECK_INVARIANTS",
    "REPRO_FASTPATH",
    "REPRO_OBS",
    "REPRO_BENCH_HISTORY",
)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10

#: ``unit_ms`` leaves out this percentage of a run's slowest units
#: (rounded up), so one stalled unit cannot move it.
SLOWEST_LEFT_OUT_PERCENT = 5


def pin_switches(environ: MutableMapping[str, str]) -> Dict[str, str]:
    """Unset the program's switches; returns what the caller had set."""
    overridden = {}
    for name in PINNED_SWITCHES:
        value = environ.pop(name, None)
        if value is not None:
            overridden[name] = value
    return overridden


def seconds_since_process_start() -> float:
    """Seconds since the kernel started this process (clock-tick resolution)."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        start_ticks = int(fields[19])  # field 22 of proc(5): starttime
        ticks_per_s = os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / ticks_per_s)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def host_stamp() -> Dict[str, object]:
    """nproc, CPU model, Python and NumPy versions of this host."""
    import numpy

    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: object = "self") -> float:
    """Peak resident set size (``VmHWM``) of process ``pid``, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM line for process {pid}")


def tail(samples: Sequence[float], q: float) -> Optional[Tuple[float, int]]:
    """The nearest-rank ``q`` percentile, or ``None`` if too few lie beyond it.

    Returns ``(value, n_beyond)``: a tail is reported only when at least
    :data:`MIN_BEYOND` samples rank above it, so a p90 needs 100 samples
    and a p99 needs 1000.
    """
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    beyond = n - rank
    if beyond < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1], beyond


def trimmed_mean(samples: Sequence[float]) -> Tuple[float, int]:
    """Mean of ``samples`` without the slowest :data:`SLOWEST_LEFT_OUT_PERCENT`.

    Returns ``(mean, n_kept)``; at least one sample is kept.  Unlike a
    median, the mean moves in proportion to the share of units a slow
    spell of the host covers: on a host that switches between a fast and
    a slow speed, a run's median jumps from one speed to the other as
    that share crosses one half.
    """
    ordered = sorted(samples)
    left_out = -(-len(ordered) * SLOWEST_LEFT_OUT_PERCENT // 100)
    kept = max(1, len(ordered) - left_out)
    return math.fsum(ordered[:kept]) / kept, kept


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass
class UnitLog:
    """Every attempted unit of one timed phase.

    A unit fails if it raised, got a non-200 response, or failed its
    output check; each failed unit counts once, whatever the reasons.
    Timings are kept for units that completed, in start order.
    """

    durations: List[float] = field(default_factory=list)
    failures: Dict[int, str] = field(default_factory=dict)
    attempted: int = 0
    elapsed_s: float = 0.0
    first_index: int = 0

    def record(self, index: int, duration: float, failure: Optional[str] = None) -> None:
        """Book one attempted unit (``failure`` is ``None`` on success)."""
        self.attempted += 1
        if failure is None:
            self.durations.append(duration)
        else:
            self.failures[index] = failure

    def fail(self, index: int, reason: str) -> None:
        """Mark an already-booked unit failed (an output check found it wrong)."""
        self.failures.setdefault(index, reason)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def median_ms(self) -> float:
        return statistics.median(self.durations) * 1e3 if self.durations else math.nan

    def unit_ms(self) -> float:
        """The gated unit time: :func:`trimmed_mean` of the completed units, in ms."""
        return trimmed_mean(self.durations)[0] * 1e3 if self.durations else math.nan


@dataclass(frozen=True)
class Metric:
    """One reported number."""

    name: str
    value: float
    unit: str
    note: str = ""


def format_metric(metric: Metric) -> str:
    text = f"{metric.name:<34} {metric.value:>14.6g} {metric.unit}"
    return f"{text}  ({metric.note})" if metric.note else text


def result_line(
    correct: bool, attempted: int, failed: int, metrics: Mapping[str, Metric]
) -> Dict[str, object]:
    """The result object printed as the last line of stdout."""
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metric.value), "unit": metric.unit}
            for name, metric in metrics.items()
        },
    }
