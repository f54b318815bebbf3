"""Fig. 8c: dynamic contract vs exclude-all-malicious baseline.

Runs the marketplace simulation twice over the same population and noise
seed: once with the paper's dynamic contract for everyone, once with the
baseline that bars every malicious subject from the system.  The paper's
claim: the dynamic contract wins because it still harvests feedback from
malicious workers that are "biased but still accurate within a certain
acceptable range", while heavily down-weighting the rest.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..baselines.comparison import compare_policies
from ..metrics.comparison import ComparisonTable
from ..simulation.policies import DynamicContractPolicy, ExclusionPolicy
from .common import ExperimentContext, ExperimentResult, build_context
from .config import ExperimentConfig

__all__ = ["run"]


def run(context: Optional[ExperimentContext] = None) -> ExperimentResult:
    """Regenerate Fig. 8c's policy comparison."""
    context = context if context is not None else build_context(ExperimentConfig())
    config = context.config
    population = context.population(honest_sample=config.fig8c_honest_sample)
    objective = context.objective()

    comparison = compare_policies(
        population=population,
        objective=objective,
        policies={
            "dynamic": DynamicContractPolicy(mu=config.mu_default),
            "exclusion": ExclusionPolicy(
                inner=DynamicContractPolicy(mu=config.mu_default)
            ),
        },
        n_rounds=config.fig8c_rounds,
        seed=config.seed,
    )

    dynamic_series = comparison.utility_series["dynamic"]
    exclusion_series = comparison.utility_series["exclusion"]
    table = ComparisonTable(
        title=f"Fig. 8c: requester utility over {config.fig8c_rounds} rounds",
        rows=[],
    )
    table.add(label="dynamic total", measured=comparison.total("dynamic"))
    table.add(label="exclusion total", measured=comparison.total("exclusion"))
    table.add(
        label="margin (dynamic - exclusion)",
        measured=comparison.margin("dynamic", "exclusion"),
        note="paper: dynamic strictly better",
    )
    table.add(
        label="dynamic mean/round", measured=float(dynamic_series.mean())
    )
    table.add(
        label="exclusion mean/round", measured=float(exclusion_series.mean())
    )

    checks = {
        "dynamic_beats_exclusion_total": comparison.total("dynamic")
        > comparison.total("exclusion"),
        "dynamic_wins_every_round": bool(
            np.all(dynamic_series >= exclusion_series)
        ),
        "both_policies_profitable": comparison.total("dynamic") > 0.0
        and comparison.total("exclusion") > 0.0,
    }
    data: Dict[str, object] = {
        "dynamic_series": dynamic_series.tolist(),
        "exclusion_series": exclusion_series.tolist(),
        "dynamic_total": comparison.total("dynamic"),
        "exclusion_total": comparison.total("exclusion"),
        "margin": comparison.margin("dynamic", "exclusion"),
    }
    return ExperimentResult(
        experiment_id="fig8c", tables=[table.format()], data=data, checks=checks
    )
