"""Benchmarks and gates for the columnar (structure-of-arrays) engine.

* **Equivalence** — at 100k subjects, a ``synthetic_columnar``
  population streamed into a ``StreamingLedger`` and the matching
  object ``synthetic_population`` (packed by the simulation) into an
  eager ledger produce bit-identical utility series.  Both times are
  recorded; there is no speed ratio to gate, because every simulation
  steps the same kernel.
* **Memory** — a 1M-subject, multi-round run (a 10x scale model of the
  10M-subject target) must stay under a hard RSS ceiling, checked in a
  subprocess via ``getrusage``: the columnar store holds a few dozen
  bytes per subject per column plus running aggregates.

The gate test writes a ``BENCH_columnar.json`` artifact (path
overridable via ``REPRO_BENCH_OUT``) so CI runs leave a
machine-readable record (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.utility import RequesterObjective
from repro.simulation import (
    DynamicContractPolicy,
    MarketplaceSimulation,
    StreamingLedger,
)
from repro.workers import synthetic_population
from repro.workers.columnar import synthetic_columnar

_N_SUBJECTS = 100_000
_N_ARCHETYPES = 16
_N_ROUNDS = 3
_SEED = 0
_FEEDBACK_NOISE = 0.3
_MILLION = 1_000_000
_RSS_CEILING_MB = 1024.0


def _columnar_simulation(n_subjects: int, ledger: StreamingLedger):
    population = synthetic_columnar(
        n_subjects,
        n_archetypes=_N_ARCHETYPES,
        seed=_SEED,
        feedback_noise=_FEEDBACK_NOISE,
    )
    return MarketplaceSimulation(
        population,
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0),
        seed=_SEED,
        ledger=ledger,
    )


def _object_simulation(n_subjects: int):
    population = synthetic_population(
        n_subjects,
        n_archetypes=_N_ARCHETYPES,
        seed=_SEED,
        feedback_noise=_FEEDBACK_NOISE,
    )
    return MarketplaceSimulation(
        population,
        RequesterObjective(),
        DynamicContractPolicy(mu=1.0),
        seed=_SEED,
    )


def test_bench_columnar_rounds(benchmark):
    """Time the columnar engine on a mid-sized slice of the gate load."""

    def run():
        ledger = StreamingLedger()
        _columnar_simulation(20_000, ledger).run(_N_ROUNDS)
        return ledger

    ledger = benchmark(run)
    assert ledger.n_rounds == _N_ROUNDS


def test_columnar_speedup_gate():
    """Bit-identical streamed and eager runs at 100k subjects, and the
    1M-subject RSS ceiling.

    Construction stays outside the timed region on both sides; the
    object side's includes packing, which happens at construction.
    """
    streaming = StreamingLedger()
    columnar_sim = _columnar_simulation(_N_SUBJECTS, streaming)
    started = time.perf_counter()
    columnar_sim.run(_N_ROUNDS)
    columnar_seconds = time.perf_counter() - started

    object_sim = _object_simulation(_N_SUBJECTS)
    started = time.perf_counter()
    eager = object_sim.run(_N_ROUNDS)
    object_seconds = time.perf_counter() - started

    # The streamed reductions are bit-identical to the eager ledger's
    # (same seed, same pinned draw order, same cumsum bits).
    assert np.array_equal(streaming.utility_series(), eager.utility_series())
    assert streaming.total_utility() == eager.total_utility()
    assert streaming.n_rounds == eager.n_rounds == _N_ROUNDS

    rss_mb = _million_subject_rss_mb()
    assert rss_mb <= _RSS_CEILING_MB, (
        f"1M-subject columnar run peaked at {rss_mb:.0f} MB RSS; "
        f"ceiling is {_RSS_CEILING_MB:.0f} MB"
    )

    artifact = {
        "n_subjects": _N_SUBJECTS,
        "n_archetypes": _N_ARCHETYPES,
        "n_rounds": _N_ROUNDS,
        "columnar_seconds": columnar_seconds,
        "object_seconds": object_seconds,
        "million_subject_rss_mb": rss_mb,
        "gates": {"rss_ceiling_mb": _RSS_CEILING_MB},
    }
    out_path = os.environ.get("REPRO_BENCH_OUT", "BENCH_columnar.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2)


_RSS_SCRIPT = """
import resource
from repro.core.utility import RequesterObjective
from repro.simulation import (
    DynamicContractPolicy, MarketplaceSimulation, StreamingLedger,
)
from repro.workers.columnar import synthetic_columnar

population = synthetic_columnar(
    {n_subjects}, n_archetypes={n_archetypes}, seed={seed},
    feedback_noise={feedback_noise},
)
ledger = StreamingLedger()
MarketplaceSimulation(
    population,
    RequesterObjective(),
    DynamicContractPolicy(mu=1.0),
    seed={seed},
    ledger=ledger,
).run(2)
assert ledger.n_rounds == 2
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _million_subject_rss_mb() -> float:
    """Peak RSS (MB) of a 1M-subject, 2-round run in a fresh process.

    A subprocess keeps the measurement honest: ``ru_maxrss`` is a
    process-lifetime high-water mark, so measuring in the test process
    would report whatever earlier tests peaked at.
    """
    script = _RSS_SCRIPT.format(
        n_subjects=_MILLION,
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
    ru_maxrss_kb = float(completed.stdout.strip().splitlines()[-1])
    return ru_maxrss_kb / 1024.0
