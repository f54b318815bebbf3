"""Steadiness runs: one benchmark run per seed and workload, then quartiles.

Run from the repository root::

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` this runs
``perfbench/run.py --trace 0`` once per seed, one run at a time, and
reports each end-to-end metric's median, quartiles and spread (the
interquartile distance as a share of the median) beside its bound.  The
metrics a run only prints (``failed_share``, ``unit_p90_ms``,
``units_per_s``, ...) are summarised the same way.  ``--out`` writes the
host-stamped summary as JSON.  The exit code is 0 only if every bounded
metric, ``setup_s`` included, spreads by less than a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from perfbench.harness import host_stamp, quartiles  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            first, last = part.split("-")
            seeds.extend(range(int(first), int(last) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> Dict[str, object]:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    began = time.perf_counter()
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                               timeout=600, check=False)
    wall = time.perf_counter() - began
    lines = completed.stdout.strip().splitlines()
    record = next((json.loads(line[len("record: "):]) for line in lines
                   if line.startswith("record: ")), None)
    if completed.returncode != 0 or record is None:
        sys.stderr.write(completed.stdout[-4000:] + completed.stderr[-4000:])
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return {"seed": seed, "exit": completed.returncode, "wall_s": wall,
            "result": result, "record": record}


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def verdict(spread: float, bound: float) -> str:
    """``steady`` below a third of the bound, else ``within bound`` or ``OUT OF BOUND``."""
    if spread < bound / 3:
        return "steady"
    return "within bound" if spread <= bound else "OUT OF BOUND"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default="", help="comma-separated; default all")
    parser.add_argument("--out", default="")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [
        workload["name"] for workload in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    summary: Dict[str, object] = {"host": host_stamp(), "run_seconds": spec["run_seconds"],
                                  "seeds": seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, spec["run_seconds"]) for seed in seeds]
        ok = [run for run in runs if run["exit"] == 0 and run["record"] is not None]
        metrics: Dict[str, Dict[str, float]] = {}
        names = sorted({name for run in ok for name in run["record"]["metrics"]})
        for name in names:
            by_seed = {run["seed"]: run["record"]["metrics"][name]["value"] for run in ok
                       if name in run["record"]["metrics"]}
            entry = summarise(list(by_seed.values()))
            entry["unit"] = ok[0]["record"]["metrics"][name]["unit"] if ok else ""
            entry["n"] = len(by_seed)
            entry["values"] = by_seed
            if name in bounds:
                entry["bound"] = bounds[name]
                entry["verdict"] = verdict(entry["spread"], bounds[name])
                steady = steady and entry["verdict"] == "steady"
            metrics[name] = entry
        summary["workloads"][workload] = {
            "correct_runs": sum(1 for run in runs if run["result"] and run["result"]["correct"]),
            "runs": len(runs),
            "wall_s_max": max(run["wall_s"] for run in runs),
            "digests": {run["seed"]: run["record"]["digest"] for run in ok},
            "setup": {run["seed"]: run["record"].get("setup") for run in ok},
            "metrics": metrics,
        }
        print(f"{workload}: {len(ok)}/{len(runs)} runs ok, "
              f"slowest {summary['workloads'][workload]['wall_s_max']:.1f} s")
        for name, entry in metrics.items():
            bound = f"  bound {entry['bound']}: {entry['verdict']}" if "bound" in entry else ""
            print(f"  {name:<16} median {entry['median']:<12.6g} q1 {entry['q1']:<12.6g} "
                  f"q3 {entry['q3']:<12.6g} spread {entry['spread']:.4f}{bound}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
