"""Extension: camouflaged attackers vs one-shot and online estimation.

The paper's Section VII flags "more sophisticated malicious workers" as
future work; its introduction already observes that malicious behaviour
"may be temporary or targeted in scope".  This experiment plants
camouflaged attackers — honest for the first rounds, then biased and
influence-motivated — and compares two requesters:

* **one-shot** — estimates Eq. (5) weights from the first observed
  round and never re-checks (the offline-estimation analogue); it keeps
  trusting the attackers after they flip;
* **online** — keeps re-estimating (the adaptive policy); it withdraws
  the attackers' incentive pay within a few rounds of the flip.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..metrics.comparison import ComparisonTable
from ..simulation.adaptive import AdaptiveDynamicPolicy
from ..simulation.engine import MarketplaceSimulation
from ..types import WorkerType
from ..workers.strategic import CamouflagedWorker
from .common import ExperimentContext, ExperimentResult, build_context
from .config import ExperimentConfig

__all__ = ["run"]

_N_ROUNDS = 14
_ATTACK_ROUND = 6
_N_ATTACKERS = 15
_HONEST_SAMPLE = 150
_ATTACK_OMEGA = 0.5
_ATTACK_BIAS = 2.5


def _plant_attackers(population) -> List[str]:
    """Replace some malicious agents with camouflaged ones."""
    attacker_ids = population.subjects_of_type(WorkerType.NONCOLLUSIVE_MALICIOUS)[
        :_N_ATTACKERS
    ]
    for subject_id in attacker_ids:
        old_agent = population.agents[subject_id]
        population.agents[subject_id] = CamouflagedWorker(
            worker_id=subject_id,
            effort_function=old_agent.effort_function,
            beta=old_agent.params.beta,
            omega=_ATTACK_OMEGA,
            rating_bias=_ATTACK_BIAS,
            attack_round=_ATTACK_ROUND,
        )
    return attacker_ids


def _attacker_pay_series(ledger, attacker_ids) -> np.ndarray:
    """Mean per-round pay across the planted attackers."""
    series = []
    for record in ledger.records:
        pays = [record.outcomes[a].compensation for a in attacker_ids]
        series.append(float(np.mean(pays)))
    return np.array(series)


def run(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Run the camouflage experiment.

    Stress-test of the Eq. (5) weight estimation: malicious workers rate
    honestly for a warm-up phase before deploying their bias, and the
    online estimator must catch the switch.
    """
    context = context if context is not None else build_context(ExperimentConfig())
    config = context.config
    objective = context.objective()

    results = {}
    for name, freeze in (("one-shot", 1), ("online", None)):
        # Fresh population per policy: planting replaces agents in it.
        population = context.population(honest_sample=_HONEST_SAMPLE)
        attacker_ids = _plant_attackers(population)
        policy = AdaptiveDynamicPolicy(
            mu=config.mu_default,
            weight_params=config.weight_params,
            freeze_after=freeze,
        )
        ledger = MarketplaceSimulation(
            population, objective, policy, seed=config.seed
        ).run(_N_ROUNDS)
        results[name] = (ledger, attacker_ids)
        # Reset the shared cached population's agents for the next run.
        context.invalidate_populations()

    oneshot_ledger, attacker_ids = results["one-shot"]
    online_ledger, _ = results["online"]
    oneshot_pay = _attacker_pay_series(oneshot_ledger, attacker_ids)
    online_pay = _attacker_pay_series(online_ledger, attacker_ids)
    post = slice(_ATTACK_ROUND + 2, _N_ROUNDS)

    oneshot_utility = oneshot_ledger.utility_series()
    online_utility = online_ledger.utility_series()

    table = ComparisonTable(
        title=(
            f"EXT camouflage: {_N_ATTACKERS} attackers flip at round "
            f"{_ATTACK_ROUND} of {_N_ROUNDS}"
        ),
        rows=[],
    )
    table.add(
        "attacker pay post-flip (one-shot)",
        measured=float(oneshot_pay[post].mean()),
        note="keeps trusting the camouflage-era estimate",
    )
    table.add(
        "attacker pay post-flip (online)",
        measured=float(online_pay[post].mean()),
        note="withdraws pay after the flip",
    )
    table.add(
        "utility post-flip (one-shot)", measured=float(oneshot_utility[post].mean())
    )
    table.add(
        "utility post-flip (online)", measured=float(online_utility[post].mean())
    )

    checks = {
        "online_cuts_attacker_pay_after_flip": float(online_pay[post].mean())
        <= 0.7 * max(float(oneshot_pay[post].mean()), 1e-9),
        "online_utility_not_worse_post_flip": float(online_utility[post].mean())
        >= float(oneshot_utility[post].mean()) * 0.98,
        "attackers_paid_during_camouflage": float(
            online_pay[:_ATTACK_ROUND].mean()
        )
        >= 0.0,
    }
    data: Dict[str, object] = {
        "oneshot_pay": oneshot_pay.tolist(),
        "online_pay": online_pay.tolist(),
        "oneshot_utility": oneshot_utility.tolist(),
        "online_utility": online_utility.tolist(),
        "attack_round": _ATTACK_ROUND,
    }
    return ExperimentResult(
        experiment_id="ext_camouflage",
        tables=[table.format()],
        data=data,
        checks=checks,
    )
