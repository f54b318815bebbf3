"""churn-200k: columnar marketplace rounds under design churn.

The workload steps a 200k-subject ``synthetic_columnar`` population (16
archetypes, feedback noise 0.3) under the default
``DynamicContractPolicy(mu=1.0)`` into a ``StreamingLedger``; round 0
runs in set-up.  Before each round 1% of the subjects move to
never-seen Eq. (5) design weights (64 groups, so 64 fresh designs) and
the previous round's movers return to their own weights, the way an
adaptive requester re-weights subjects.  Every unit rediscovers
archetypes and re-solves a real dirty set over about 80 contract codes.

The output check replays the same workload shape at a few thousand
subjects with ``REPRO_CHECK_INVARIANTS=1``: every round against the
reference oracle, every reused design against a fresh solve, and
Lemma 4.2/4.3 on every contract.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.utility import RequesterObjective
from repro.simulation.engine import MarketplaceSimulation
from repro.simulation.policies import DynamicContractPolicy
from repro.simulation.streaming import StreamingLedger
from repro.types import RequesterParameters
from repro.workers.columnar import synthetic_columnar

from perfbench.harness import UnitLog
from perfbench.workload import Check, Report, Workload

ARCHETYPES = 16
FEEDBACK_NOISE = 0.3
MU = 1.0
#: Share of subjects that move each churn round, and the most distinct
#: new weights they move to (each group of at least 5 movers shares one).
MOVER_SHARE = 0.01
MOVER_GROUPS = 64
#: Churn rounds whose movers are drawn in set-up; a timed phase stops
#: early if it runs out (about 7x the rounds of a 25 s churn phase on the
#: 2-core host in baseline.json).
PLANNED_ROUNDS = 400
#: Rounds whose records the output digest covers (round 0 included).
DIGEST_ROUNDS = 4
#: The invariant replay: subjects and rounds after round 0.
REPLAY_SUBJECTS = 1_500
REPLAY_ROUNDS = 3
INVARIANTS_SWITCH = "REPRO_CHECK_INVARIANTS"
#: Mixed into the seed, so this workload's streams differ from any other's.
TAG = 2


def derive_seeds(seed: int) -> Tuple[int, int, int]:
    """Population, round-noise and mover seeds of one workload run."""
    population, noise, movers = np.random.SeedSequence([seed, TAG]).generate_state(3)
    return int(population), int(noise), int(movers)


def mover_plans(
    codes: np.ndarray,
    weights: np.ndarray,
    n_rounds: int,
    rng: np.random.Generator,
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Each round's movers and the never-seen design weights they take.

    Movers are grouped within one design archetype each, so a group of
    movers forms exactly one new archetype; within a round no subject
    moves twice.
    """
    n_movers = max(1, int(codes.size * MOVER_SHARE))
    n_groups = max(1, min(MOVER_GROUPS, n_movers // 5))
    n_archetypes = int(codes.max()) + 1
    members = [np.flatnonzero(codes == code) for code in range(n_archetypes)]
    sizes = [n_movers // n_groups + (1 if g < n_movers % n_groups else 0) for g in range(n_groups)]
    seen = set(np.unique(weights).tolist())
    plans = []
    for _ in range(n_rounds):
        rows: List[np.ndarray] = []
        new_weights: List[np.ndarray] = []
        for code in range(n_archetypes):
            groups = [g for g in range(n_groups) if g % n_archetypes == code]
            if not groups:
                continue
            chosen = rng.choice(members[code], size=sum(sizes[g] for g in groups), replace=False)
            offset = 0
            for g in groups:
                weight = float(rng.uniform(0.5, 2.0))
                while weight in seen:
                    weight = float(rng.uniform(0.5, 2.0))
                seen.add(weight)
                rows.append(chosen[offset: offset + sizes[g]])
                new_weights.append(np.full(sizes[g], weight))
                offset += sizes[g]
        plans.append((np.concatenate(rows), np.concatenate(new_weights)))
    return plans


@dataclass
class RoundsState:
    seed: int
    population: Any
    simulation: Any
    base_weights: np.ndarray
    plans: List[Tuple[np.ndarray, np.ndarray]]
    records: Dict[int, Any] = field(default_factory=dict)
    warmup: Any = None


def build(n_subjects: int, seed: int, n_rounds: int) -> RoundsState:
    """Generate the inputs, build the simulation and run round 0."""
    population_seed, noise_seed, mover_seed = derive_seeds(seed)
    population = synthetic_columnar(
        n_subjects, n_archetypes=ARCHETYPES, seed=population_seed, feedback_noise=FEEDBACK_NOISE
    )
    base_weights = population.design_weight.copy()
    plans = mover_plans(population.archetype_codes, base_weights, n_rounds,
                        np.random.default_rng(mover_seed))
    simulation = MarketplaceSimulation(
        population,
        RequesterObjective(RequesterParameters(mu=MU)),
        DynamicContractPolicy(mu=MU),
        seed=noise_seed,
        ledger=StreamingLedger(),
    )
    state = RoundsState(seed, population, simulation, base_weights, plans)
    state.warmup = simulation.step()
    return state


def churn_unit(state: RoundsState, index: int) -> Any:
    """Move this round's subjects (restoring the last round's), then step."""
    rows, weights = state.plans[index]
    column = state.base_weights.copy()
    column[rows] = weights
    state.population.update_design_columns(design_weight=column)
    return state.simulation.step()


def record_digest(records: Sequence[Any]) -> str:
    """Hash of the rounds' realized benefit, pay and utility bits."""
    digest = hashlib.sha256()
    for record in records:
        for value in (record.benefit, record.total_compensation, record.utility):
            digest.update(float(value).hex().encode())
    return digest.hexdigest()[:16]


def replay_with_invariants(seed: int) -> Check:
    """The same workload shape, small, with the invariant layer on."""
    name = (
        f"{REPLAY_SUBJECTS}-subject x {REPLAY_ROUNDS}-round replay with "
        f"{INVARIANTS_SWITCH}=1 (oracle, reuse and Lemma 4.2/4.3 checks)"
    )
    previous = os.environ.get(INVARIANTS_SWITCH)
    os.environ[INVARIANTS_SWITCH] = "1"
    try:
        state = build(REPLAY_SUBJECTS, seed, REPLAY_ROUNDS)
        dirty = [state.warmup.n_dirty]
        for index in range(REPLAY_ROUNDS):
            dirty.append(churn_unit(state, index).n_dirty)
    except Exception as error:  # noqa: BLE001 - any violation fails the check
        return Check(name, False, f"{type(error).__name__}: {error}")
    finally:
        if previous is None:
            os.environ.pop(INVARIANTS_SWITCH, None)
        else:
            os.environ[INVARIANTS_SWITCH] = previous
    return Check(name, True, f"n_dirty per round {dirty}")


class Churn200K(Workload):
    name = "churn-200k"
    n_subjects = 200_000
    min_units = 5

    def setup(self, seed: int, inputs: Any) -> RoundsState:
        return build(self.n_subjects, seed, PLANNED_ROUNDS)

    def has_input(self, state: RoundsState, index: int) -> bool:
        return index < len(state.plans)

    def unit(self, state: RoundsState, index: int) -> Any:
        return churn_unit(state, index)

    def check_unit(self, state: RoundsState, index: int, output: Any) -> Optional[str]:
        state.records[index] = output
        return None

    def counters(self, state: RoundsState, first: int, last: int) -> Dict[str, float]:
        records = [state.records[i] for i in range(first, last) if i in state.records]
        if not records or any(r.n_dirty is None or r.reuse_rate is None for r in records):
            return {}
        return {
            "simulation.n_dirty": sum(r.n_dirty for r in records) / len(records),
            "simulation.reuse_rate": sum(r.reuse_rate for r in records) / len(records),
        }

    def absent_counters(self, state: RoundsState) -> Dict[str, str]:
        if getattr(state.warmup, "n_dirty", None) is None:
            reason = "RoundRecord carries no n_dirty/reuse_rate"
            return {"simulation.n_dirty": reason, "simulation.reuse_rate": reason}
        return {}

    def finish(self, state: RoundsState, logs: Sequence[UnitLog]) -> Report:
        first = [state.records[i] for i in sorted(state.records)[: DIGEST_ROUNDS - 1]]
        dirty = sorted({record.n_dirty for record in state.records.values()})
        return Report(
            checks=[replay_with_invariants(state.seed)],
            digest=record_digest([state.warmup, *first]),
            info=[
                f"archetypes K={state.population.n_archetypes}, "
                f"n_dirty per timed round in {dirty}"
            ],
        )
