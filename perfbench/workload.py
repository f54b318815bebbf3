"""The workload interface and the sequential timed loop.

A unit is one timed operation.  Sequential workloads run units back to
back from one thread (a closed loop with one client); ``serve-http``
overrides :meth:`Workload.measure` with its two-connection client.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from perfbench.harness import UnitLog, peak_rss_mb
from perfbench.spans import Installation, SpanRecorder


@dataclass
class Check:
    """One output check of a run."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    """What a workload's output checks found after the timed phases."""

    checks: List[Check] = field(default_factory=list)
    digest: str = ""
    info: List[str] = field(default_factory=list)


@dataclass
class TracedPhase:
    """The traced phase: its units, spans and the counters read beside them."""

    log: UnitLog
    spans: List[list]
    roots: Dict[int, int]
    absent: Dict[str, str]
    counters: Dict[str, float]
    absent_counters: Dict[str, str]


class Workload:
    """One benchmark workload; subclasses fill in the hooks."""

    name = ""
    #: Set-up samples per run (this process and fresh ones); ``setup_s``
    #: is their median.
    setup_samples = 5
    #: Units every timed phase runs, however long they take.
    min_units = 3

    def inputs(self, seed: int) -> Any:
        """Inputs generated once per run, before :meth:`setup`."""
        return None

    def setup(self, seed: int, inputs: Any) -> Any:
        """Build the system (generating any other inputs) and run the warm-up units."""
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` started."""

    def has_input(self, state: Any, index: int) -> bool:
        """Whether unit ``index`` has pre-generated inputs left."""
        return True

    def unit(self, state: Any, index: int) -> Any:
        """Run unit ``index`` (timed); returns its output."""
        raise NotImplementedError

    def check_unit(self, state: Any, index: int, output: Any) -> Optional[str]:
        """Check one unit's output (untimed); a failure reason or ``None``."""
        return None

    def counters(self, state: Any, first: int, last: int) -> Dict[str, float]:
        """Per-unit program counters over units ``[first, last)``."""
        return {}

    def absent_counters(self, state: Any) -> Dict[str, str]:
        """Counters the program no longer offers, with the reason."""
        return {}

    def finish(self, state: Any, logs: Sequence[UnitLog]) -> Report:
        """Output checks after the timed phases; may fail units in ``logs``."""
        return Report()

    def peak_rss_mb(self, state: Any) -> float:
        """Peak RSS of the processes running the system, in MB."""
        return peak_rss_mb()

    def measure(
        self,
        state: Any,
        seconds: float,
        first_index: int = 0,
        recorder: Optional[SpanRecorder] = None,
    ) -> UnitLog:
        """Run units back to back for ``seconds`` (at least :attr:`min_units`).

        The heap is collected before each unit, outside the timed
        region, so one unit's garbage does not land in the next one's
        time.  With a ``recorder``, each unit is a root span and
        ``recorder.roots`` maps the unit to it.
        """
        log = UnitLog(first_index=first_index)
        started = time.perf_counter()
        index = first_index
        while index - first_index < self.min_units or time.perf_counter() - started < seconds:
            if not self.has_input(state, index):
                break
            gc.collect()
            root = None
            if recorder is not None:
                recorder.unit = index
                root = recorder.open("unit", unit=index)
            begin = time.perf_counter()
            output = None
            failure = None
            try:
                output = self.unit(state, index)
            except Exception as error:  # noqa: BLE001 - a raising unit is a failed unit
                failure = f"raised {type(error).__name__}: {error}"
            end = time.perf_counter()
            if recorder is not None:
                recorder.close(root, end)
                recorder.unit = None
                recorder.roots[index] = root
                begin = recorder.spans[root][1]
            if failure is None:
                failure = self.check_unit(state, index, output)
            log.record(index, end - begin, failure)
            index += 1
        log.elapsed_s = time.perf_counter() - started
        return log

    def traced_phase(self, state: Any, seconds: float, first_index: int) -> TracedPhase:
        """Run the timed loop again with every layer wrapper installed."""
        recorder = SpanRecorder()
        installation = Installation(recorder).install()
        try:
            log = self.measure(state, seconds, first_index, recorder)
        finally:
            installation.uninstall()
        return TracedPhase(
            log=log,
            spans=recorder.spans,
            roots=dict(recorder.roots),
            absent=dict(installation.absent),
            counters=self.counters(state, first_index, first_index + log.attempted),
            absent_counters=self.absent_counters(state),
        )
