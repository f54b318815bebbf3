"""paper-small: one full reproduction pass per unit.

A unit is ``run_all(ExperimentConfig.small(seed), include_extensions=True)``
after ``clear_context_cache()``: trace generation, clustering,
estimation, the 7 paper artifacts and the 5 extensions.  It is the only
workload on the object round path and the designer-heavy drivers.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.common import clear_context_cache
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_all

from perfbench.harness import UnitLog
from perfbench.workload import Check, Report, Workload

#: Shape checks that hold by construction on every seed: Theorem 4.1's
#: utility bounds, Lemma 4.3's pay floor and the budget constraint.
#: The statistical shape checks are counted, not gated (at small scale
#: table3's ``C-Mal_*`` checks fail on some seeds).
THEOREM_CHECKS: Tuple[Tuple[str, str], ...] = (
    ("fig6", "achieved_within_bounds"),
    ("fig8a", "pay_never_below_floor"),
    ("ext_budget", "budget_always_respected"),
)


def render(results: Sequence[Any]) -> str:
    """A pass's printed output: every result's tables and checks."""
    return "\n".join(result.format() for result in results)


def theorem_failures(results: Sequence[Any]) -> List[str]:
    """The theorem-type checks a pass failed (or could not find)."""
    by_id = {result.experiment_id: result for result in results}
    failures = []
    for experiment_id, check in THEOREM_CHECKS:
        result = by_id.get(experiment_id)
        if result is None or not result.checks.get(check, False):
            failures.append(f"{experiment_id}.{check}")
    return failures


def shape_failures(results: Sequence[Any]) -> int:
    """How many statistical (non-theorem) shape checks a pass failed."""
    gated = set(THEOREM_CHECKS)
    return sum(
        1
        for result in results
        for name, passed in result.checks.items()
        if not passed and (result.experiment_id, name) not in gated
    )


@dataclass
class PaperState:
    config: Any
    reference: Optional[str] = None
    shape_failures: Dict[int, int] = field(default_factory=dict)


class PaperSmall(Workload):
    name = "paper-small"
    min_units = 3

    def _pass(self, config: Any) -> List[Any]:
        clear_context_cache()
        return run_all(config, include_extensions=True)

    def setup(self, seed: int, inputs: Any) -> PaperState:
        # A pass builds its own inputs (it clears the context cache), so
        # set-up is the configuration alone and the first pass runs cold.
        return PaperState(config=ExperimentConfig.small(seed))

    def unit(self, state: PaperState, index: int) -> List[Any]:
        return self._pass(state.config)

    def check_unit(self, state: PaperState, index: int, output: List[Any]) -> Optional[str]:
        state.shape_failures[index] = shape_failures(output)
        if state.reference is None:
            state.reference = render(output)
        return pass_failure(state.reference, output)

    def finish(self, state: PaperState, logs: Sequence[UnitLog]) -> Report:
        passes = sum(log.attempted for log in logs)
        wrong = sum(log.failed for log in logs)
        counts = sorted(set(state.shape_failures.values()))
        return Report(
            checks=[
                Check(
                    "passes print byte-identical output and pass the theorem checks",
                    wrong == 0,
                    f"{passes - wrong} of {passes} passes",
                )
            ],
            digest=hashlib.sha256((state.reference or "").encode()).hexdigest()[:16],
            info=[f"statistical shape checks failed per pass (not gated): {counts}"],
        )


def pass_failure(reference: Optional[str], results: Sequence[Any]) -> Optional[str]:
    """Why a pass is wrong: output differing from the first pass, or a theorem check."""
    if render(results) != reference:
        return "output differs from the first pass"
    failed = theorem_failures(results)
    if failed:
        return "theorem checks failed: " + ", ".join(failed)
    return None
