"""The repository benchmark: one command per workload run.

Run from the repository root::

    python3 perfbench/run.py --workload churn-200k --seed 1 --seconds 25 --trace 0

Workloads: ``paper-small``, ``churn-200k`` and ``serve-http`` (see
``perfbench/README.md`` for why each exists).  A run generates every
input from ``--seed``, sets up, times units for ``--seconds`` seconds,
then checks the program's outputs; fresh processes sample the set-up
time again.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines above it print every metric by name and unit, the host stamp, the
output digest and each check.  With ``--trace 1`` the run times a
second phase with wrappers around each layer's public functions and
reports the per-layer metrics instead of the end-to-end ones.  The exit
code is 0 only when every output check passed.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402 - the clock above starts before any import
import sys  # noqa: E402

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perfbench.layout import exec_with_fixed_layout  # noqa: E402

# Run as a script, this process re-executes itself here (once), before
# the imports below, so the interpreter it replaces does little work.
LAYOUT = (
    exec_with_fixed_layout([sys.executable, os.path.abspath(__file__), *sys.argv[1:]])
    if __name__ == "__main__" else "as the caller's"
)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(_ROOT)
SRC = ROOT / "src"

from perfbench import harness, spans  # noqa: E402 - neither imports the program
from perfbench.harness import Metric  # noqa: E402

WORKLOADS = ("paper-small", "churn-200k", "serve-http")
#: Where a traced run writes its spans (inside the checkout).
SPAN_DIR = ROOT / ".perfbench"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, tear down and print the seconds from process start "
                             "until the set-up was done (a run samples setup_s this way)")
    return parser.parse_args(argv)


def fresh_setup_s(args):
    """``setup_s`` of a fresh process setting up the same workload and seed."""
    completed = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--setup-only"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=150, check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"a set-up sample failed:\n{completed.stdout}{completed.stderr}")
    return float(completed.stdout.split()[-1])


def make_workload(name, seconds, trace):
    if name == "paper-small":
        from perfbench.paper import PaperSmall

        return PaperSmall()
    if name == "churn-200k":
        from perfbench.rounds import Churn200K

        return Churn200K()
    from perfbench.serve import ServeHTTP

    return ServeHTTP(seconds, phases=2 if trace else 1)


def end_to_end(workload_name, setup_s, log, rss_mb):
    """The end-to-end metrics: gated ones, then the ones only printed."""
    kept = harness.trimmed_mean(log.durations)[1] if log.durations else 0
    gated = {
        "setup_s": Metric("setup_s", setup_s, "s"),
        "unit_ms": Metric("unit_ms", log.unit_ms(), "ms",
                          f"mean of the fastest {kept} of {len(log.durations)} units"),
        "peak_rss_mb": Metric("peak_rss_mb", rss_mb, "MB"),
    }
    extra = {
        "unit_median_ms": Metric("unit_median_ms", log.median_ms(), "ms",
                                 f"median of {len(log.durations)} units"),
        "failed_share": Metric("failed_share", log.failed_share, "ratio",
                               f"{log.failed} of {log.attempted} units"),
    }
    samples = [d * 1e3 for d in log.durations]
    for q, name in ((0.9, "unit_p90_ms"), (0.99, "unit_p99_ms")):
        found = harness.tail(samples, q)
        if found is not None:
            extra[name] = Metric(name, found[0], "ms",
                                 f"{found[1]} of {len(samples)} samples beyond it")
    if workload_name == "serve-http":
        completed = log.attempted - log.failed
        extra["units_per_s"] = Metric("units_per_s", completed / log.elapsed_s, "1/s",
                                      f"{completed} units in {log.elapsed_s:.3f} s")
    return gated, extra


def traced_metrics(phase, untraced_ms):
    """Per-layer metrics of the traced phase, plus the per-unit report lines."""
    units = spans.breakdown(phase.spans, phase.roots)
    overhead = phase.log.unit_ms() / untraced_ms
    values = spans.layer_metric_values(units, phase.counters, overhead)
    lines = [spans.format_unit(unit) for unit in units]
    worst = max(
        (abs(sum(unit.layer_self_ms.values()) + unit.remainder_ms - unit.total_ms) for unit in units),
        default=0.0,
    )
    lines.append(f"largest |layer self times + unaccounted - unit time| = {worst:.2e} ms")
    metrics = {}
    for metric in spans.LAYER_METRICS:
        reason = spans.absent_reason(metric, phase.absent, phase.absent_counters)
        if reason is not None:
            note = f"absent: {reason}"
        elif (metric.stat == "counter" and metric.name not in phase.counters) or (
            metric.stat in ("calls", "busy", "self")
            and not any(unit.calls.get(span) for unit in units for span in metric.spans)
        ):
            note = "not exercised by this workload"
        elif metric.stat == "overhead":
            note = f"unit_ms traced {phase.log.unit_ms():.4g} ms / untraced {untraced_ms:.4g} ms"
        else:
            note = "mean per unit"
        metrics[metric.name] = Metric(metric.name, values[metric.name], metric.unit, note)
    return metrics, lines


def write_spans(args, host, phase):
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "host": host,
                   "fields": ["name", "start", "end", "parent", "unit", "thread", "key"],
                   "roots": phase.roots, "spans": phase.spans}, handle)
    return path


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'}); "
              "run from the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The clock starts when the process started, before any re-execution.
    started = _T0 - (harness.seconds_since_process_start() - (time.perf_counter() - _T0))
    overridden = harness.pin_switches(os.environ)
    workload = make_workload(args.workload, args.seconds, args.trace)
    import_s = time.perf_counter() - started
    host = harness.host_stamp()

    print(f"perfbench {args.workload}: seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("host: " + ", ".join(f"{key} {value}" for key, value in host.items()))
    print(f"memory layout: {LAYOUT}")
    print("switches unset for every phase: " + ", ".join(harness.PINNED_SWITCHES)
          + (f" (caller had {overridden})" if overridden else ""))

    state = None
    phase = None
    try:
        begin = time.perf_counter()
        inputs = workload.inputs(args.seed)
        inputs_s = time.perf_counter() - begin
        begin = time.perf_counter()
        state = workload.setup(args.seed, inputs)
        prepare_s = time.perf_counter() - begin
        if args.setup_only:
            print(repr(import_s + inputs_s + prepare_s))
            return 0
        # This process gives the first set-up sample; fresh processes, one
        # after the timed phases and the rest after the output checks, give
        # the others.  The host's speed drifts by tens of percent within
        # seconds, so one sample would mostly measure the host.
        samples = [import_s + inputs_s + prepare_s]
        log = workload.measure(state, args.seconds)
        rss_mb = workload.peak_rss_mb(state)
        logs = [log]
        if args.trace and log.durations:
            phase = workload.traced_phase(state, args.seconds, log.first_index + log.attempted)
            logs.append(phase.log)
        samples.append(fresh_setup_s(args))
        report = workload.finish(state, logs)
        while len(samples) < workload.setup_samples:
            samples.append(fresh_setup_s(args))
        setup_s = statistics.median(samples)
    except Exception:  # noqa: BLE001 - report, clean up, exit non-zero without a result
        traceback.print_exc()
        return 1
    finally:
        if state is not None:
            workload.teardown(state)

    print(f"setup: median of [{', '.join(f'{value:.3f}' for value in samples)}] s: this "
          f"process (imports {import_s:.3f} s + inputs {inputs_s:.3f} s + set-up "
          f"{prepare_s:.3f} s), then fresh processes")
    print(f"timed: {log.attempted} units in {log.elapsed_s:.3f} s, {log.failed} failed")
    for index, reason in sorted(log.failures.items())[:10]:
        print(f"failed unit {index}: {reason}")
    if not log.durations or (phase is not None and not phase.log.durations):
        print("perfbench: no unit completed, so there is no time to report", file=sys.stderr)
        return 1
    gated, extra = end_to_end(args.workload, setup_s, log, rss_mb)
    for metric in list(gated.values()) + list(extra.values()):
        print(harness.format_metric(metric))
    if "unit_p90_ms" not in extra:
        print(f"no tail percentile: {len(log.durations)} units, a p90 needs 100 "
              f"({harness.MIN_BEYOND} beyond it)")

    reported = gated
    if phase is not None:
        reported, lines = traced_metrics(phase, log.unit_ms())
        print(f"traced: {phase.log.attempted} units in {phase.log.elapsed_s:.3f} s, "
              f"{phase.log.failed} failed; per unit, each layer's self time and share:")
        for line in lines:
            print(line)
        for metric in reported.values():
            print(harness.format_metric(metric))
        print(f"spans written to {write_spans(args, host, phase)}")

    for check in report.checks:
        print(f"[{'PASS' if check.passed else 'FAIL'}] {check.name}: {check.detail}")
    for line in report.info:
        print(line)
    print(f"digest: {report.digest}")

    failed = sum(entry.failed for entry in logs)
    attempted = sum(entry.attempted for entry in logs)
    correct = failed == 0 and all(check.passed for check in report.checks)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "host": host, "layout": LAYOUT, "digest": report.digest,
        "setup": {"imports_s": import_s, "inputs_s": inputs_s, "setup_s": prepare_s,
                  "samples_s": samples},
        "units": len(log.durations),
        "unit_ms_samples": (
            [round(d * 1e3, 3) for d in log.durations] if len(log.durations) <= 200 else None
        ),
        "metrics": {name: {"value": m.value, "unit": m.unit}
                    for name, m in {**gated, **extra}.items()},
        "checks": {check.name: check.passed for check in report.checks},
    }
    print("record: " + json.dumps(record))
    print(json.dumps(harness.result_line(correct, attempted, failed, reported)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
