"""Benchmarks and gates for the sharded parallel round engine.

Two quantitative claims back the parallel tier, and both are asserted:

* **Throughput** — at 1M subjects on 4 workers, sharded
  ``parallel_columnar_step`` rounds must be >= 3x faster than the
  sequential ``fast_columnar_step`` on the identical workload, while
  staying bit-identical (checked by ``require_parallel_steps_agree``
  inside the measurement subprocess).  The gate runs in a fresh
  subprocess so the RSS high-water mark is honest, and skips on
  machines with fewer than 4 cores — shard processes without cores to
  run on measure the scheduler, not the engine.
* **Payload** — the columnar wire frame shipped to cluster shards must
  be >= 5x smaller than the pickled ``Subproblem`` list + fingerprint
  payload it replaces, at the 16-archetype batch shape the round engine
  produces.  This gate is pure serialization and runs everywhere.

Both gates merge their numbers into a ``BENCH_parallel.json`` artifact
(path overridable via ``REPRO_BENCH_OUT``) so CI runs leave one
machine-readable record, and append to the bench-history trajectory.
"""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serving.cluster.codec import columnar_frame, frame_to_json
from repro.serving.fingerprint import subproblem_fingerprint
from repro.serving.workload import synthetic_subproblems
from repro.simulation import DynamicContractPolicy
from repro.simulation.parallel import ParallelRoundEngine, parallel_columnar_step
from repro.workers.columnar import synthetic_columnar

_GATE_SPEEDUP = 3.0
_GATE_PAYLOAD_SHRINK = 5.0
_MIN_CORES = 4
_N_WORKERS = 4
_MILLION = 1_000_000
_N_ARCHETYPES = 16
_N_ROUNDS = 2
_SEED = 0
_FEEDBACK_NOISE = 0.3
_RSS_CEILING_MB = 2048.0
_PAYLOAD_SUBJECTS = 5_000


def _update_artifact(update: dict) -> None:
    """Merge gate metrics into the shared BENCH_parallel.json artifact."""
    out_path = Path(os.environ.get("REPRO_BENCH_OUT", "BENCH_parallel.json"))
    artifact: dict = {}
    if out_path.is_file():
        try:
            artifact = json.loads(out_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, OSError):
            artifact = {}
    artifact.update(update)
    artifact.setdefault("gates", {}).update(update.get("gates", {}))
    out_path.write_text(json.dumps(artifact, indent=2), encoding="utf-8")


def test_bench_parallel_round(benchmark):
    """Time one sharded round at a mid-size slice (pool built outside)."""
    columnar = synthetic_columnar(
        20_000,
        n_archetypes=_N_ARCHETYPES,
        seed=_SEED,
        feedback_noise=_FEEDBACK_NOISE,
    )
    assignment = DynamicContractPolicy(mu=1.0).contracts_columnar(
        columnar
    )
    import numpy as np

    excluded = np.zeros(columnar.n_subjects, dtype=bool)
    previous = np.zeros(columnar.n_subjects)
    rng = np.random.default_rng(_SEED)
    with ParallelRoundEngine(columnar, n_workers=2) as engine:
        result = benchmark(
            lambda: parallel_columnar_step(
                columnar, assignment, excluded, previous, False, rng, engine
            )
        )
    assert result.active.any()


def test_parallel_payload_gate(bench_history):
    """Frame payloads are >= 5x smaller than pickled object batches.

    Measures the actual bytes a shard pipe (pickle) and the HTTP hop
    (JSON) would carry for the same n-subject, K-archetype batch.
    """
    subproblems = synthetic_subproblems(
        n_subjects=_PAYLOAD_SUBJECTS, n_archetypes=_N_ARCHETYPES, seed=_SEED
    )
    fingerprints = [subproblem_fingerprint(s) for s in subproblems]
    frame = columnar_frame(subproblems, fingerprints)

    object_payload = len(pickle.dumps((list(subproblems), fingerprints)))
    frame_payload = len(pickle.dumps(frame))
    shrink = object_payload / frame_payload
    assert shrink >= _GATE_PAYLOAD_SHRINK, (
        f"columnar frame only {shrink:.1f}x smaller than the pickled "
        f"object batch at {_PAYLOAD_SUBJECTS} subjects x "
        f"{_N_ARCHETYPES} archetypes; gate is {_GATE_PAYLOAD_SHRINK}x"
    )

    object_json = len(
        json.dumps(
            [
                {
                    "subject_id": s.subject_id,
                    "fingerprint": fingerprint,
                }
                for s, fingerprint in zip(subproblems, fingerprints)
            ]
        )
    )
    frame_json = len(json.dumps(frame_to_json(frame)))
    # The JSON frame must beat even a *minimal* per-subject JSON list
    # (ids + fingerprints alone, no model fields).
    assert frame_json < object_json

    _update_artifact(
        {
            "payload_subjects": _PAYLOAD_SUBJECTS,
            "payload_archetypes": _N_ARCHETYPES,
            "object_payload_bytes": object_payload,
            "frame_payload_bytes": frame_payload,
            "payload_shrink": shrink,
            "frame_json_bytes": frame_json,
            "gates": {"payload_shrink": _GATE_PAYLOAD_SHRINK},
        }
    )
    bench_history(
        "parallel",
        {"payload_shrink": shrink, "frame_payload_bytes": frame_payload},
        directions={
            "payload_shrink": "higher",
            "frame_payload_bytes": "lower",
        },
    )


_STEP_SCRIPT = """
import json
import resource
import time

import numpy as np

from repro.simulation import DynamicContractPolicy
from repro.simulation.engine import fast_columnar_step
from repro.simulation.parallel import (
    ParallelRoundEngine,
    parallel_columnar_step,
    require_parallel_steps_agree,
)
from repro.workers.columnar import synthetic_columnar

n_subjects = {n_subjects}
n_workers = {n_workers}
n_rounds = {n_rounds}

columnar = synthetic_columnar(
    n_subjects, n_archetypes={n_archetypes}, seed={seed},
    feedback_noise={feedback_noise},
)
assignment = DynamicContractPolicy(mu=1.0).contracts_columnar(
    columnar
)
excluded = np.zeros(n_subjects, dtype=bool)

sequential_previous = np.zeros(n_subjects)
rng = np.random.default_rng({seed})
started = time.perf_counter()
sequential_results = [
    fast_columnar_step(
        columnar, assignment, excluded, sequential_previous, True, rng
    )
    for _ in range(n_rounds)
]
sequential_seconds = time.perf_counter() - started

parallel_previous = np.zeros(n_subjects)
rng = np.random.default_rng({seed})
with ParallelRoundEngine(columnar, n_workers=n_workers) as engine:
    started = time.perf_counter()
    parallel_results = [
        parallel_columnar_step(
            columnar, assignment, excluded, parallel_previous, True, rng,
            engine,
        )
        for _ in range(n_rounds)
    ]
    parallel_seconds = time.perf_counter() - started

for produced, reference in zip(parallel_results, sequential_results):
    require_parallel_steps_agree(produced, reference)
assert np.array_equal(parallel_previous, sequential_previous)

print(json.dumps({{
    "sequential_seconds": sequential_seconds,
    "parallel_seconds": parallel_seconds,
    "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}}))
"""


def _run_step_subprocess(n_subjects: int, n_workers: int) -> dict:
    """Run the timed sequential-vs-parallel comparison in a fresh process."""
    script = _STEP_SCRIPT.format(
        n_subjects=n_subjects,
        n_workers=n_workers,
        n_rounds=_N_ROUNDS,
        n_archetypes=_N_ARCHETYPES,
        seed=_SEED,
        feedback_noise=_FEEDBACK_NOISE,
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
    completed = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=600,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_parallel_equivalence_subprocess_smoke():
    """The measurement script itself stays bit-exact at smoke scale.

    Runs everywhere (including single-core machines) so the speedup
    gate's harness — shm segment, fork pool, contract replay — is
    exercised in CI even when the gate skips.
    """
    report = _run_step_subprocess(n_subjects=20_000, n_workers=2)
    assert report["sequential_seconds"] > 0.0
    assert report["parallel_seconds"] > 0.0


def test_parallel_speedup_gate(bench_history):
    """The ISSUE acceptance gate: >= 3x at 1M subjects on 4 workers,
    bit-identical, under a hard RSS ceiling."""
    cores = os.cpu_count() or 1
    if cores < _MIN_CORES:
        pytest.skip(
            f"parallel speedup gate needs >= {_MIN_CORES} cores, "
            f"machine has {cores}"
        )
    started = time.perf_counter()
    report = _run_step_subprocess(n_subjects=_MILLION, n_workers=_N_WORKERS)
    wall_seconds = time.perf_counter() - started

    speedup = report["sequential_seconds"] / report["parallel_seconds"]
    rss_mb = report["ru_maxrss_kb"] / 1024.0
    assert speedup >= _GATE_SPEEDUP, (
        f"parallel engine only {speedup:.1f}x faster than the sequential "
        f"kernel at {_MILLION} subjects x {_N_ROUNDS} rounds on "
        f"{_N_WORKERS} workers; gate is {_GATE_SPEEDUP}x"
    )
    assert rss_mb <= _RSS_CEILING_MB, (
        f"1M-subject parallel run peaked at {rss_mb:.0f} MB RSS; "
        f"ceiling is {_RSS_CEILING_MB:.0f} MB"
    )

    _update_artifact(
        {
            "n_subjects": _MILLION,
            "n_workers": _N_WORKERS,
            "n_rounds": _N_ROUNDS,
            "sequential_seconds": report["sequential_seconds"],
            "parallel_seconds": report["parallel_seconds"],
            "speedup": speedup,
            "rss_mb": rss_mb,
            "harness_wall_seconds": wall_seconds,
            "gates": {
                "parallel_speedup": _GATE_SPEEDUP,
                "rss_ceiling_mb": _RSS_CEILING_MB,
            },
        }
    )
    bench_history(
        "parallel",
        {"speedup": speedup, "rss_mb": rss_mb},
        directions={"speedup": "higher", "rss_mb": "lower"},
    )
