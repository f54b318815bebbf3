"""Worker retention dynamics.

The paper's abstract frames the goal as incentivizing "users' quality
*and retention*", but its model keeps the worker pool fixed.  This
module adds the retention half: each worker has a reservation utility
(its outside option per task) and a patience; after ``patience``
consecutive rounds of realized utility below the reservation level, the
worker leaves the marketplace for good.

Departure is what makes under-paying expensive in the long run: a flat
low payment doesn't just buy zero effort this round — it bleeds the
honest workforce, and with it all future benefit.  The ``ext_retention``
experiment quantifies exactly that against the dynamic contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set, Union

import numpy as np

from ..core.utility import RequesterObjective
from ..errors import SimulationError
from ..types import WorkerType
from ..workers.columnar import WORKER_TYPE_CODES, ColumnarPopulation
from ..workers.population import PopulationModel
from .engine import MarketplaceSimulation
from .ledger import RoundRecord, SimulationLedger
from .policies import PaymentPolicy

__all__ = ["RetentionModel", "RetentionSimulation"]


@dataclass(frozen=True)
class RetentionModel:
    """When a worker gives up on the marketplace.

    Attributes:
        reservation_utility: the per-member utility the worker could get
            outside; per-round realized utility below this counts as a
            bad round.
        patience: consecutive bad rounds tolerated before leaving.
    """

    reservation_utility: float = 0.1
    patience: int = 2

    def __post_init__(self) -> None:
        if self.patience < 1:
            raise SimulationError(f"patience must be >= 1, got {self.patience!r}")


class RetentionSimulation(MarketplaceSimulation):
    """A marketplace where underpaid workers quit.

    After every round, each active subject's realized per-member utility
    is compared with the retention model's reservation level; subjects
    accumulating ``patience`` consecutive bad rounds depart permanently
    (they are treated as excluded from then on — no pay, no feedback).

    Args:
        population: the assembled worker population.
        objective: the requester's parameters.
        policy: the payment policy under test.
        retention: the departure rule.
        seed: feedback-noise seed.
        redesign_every: policy re-design cadence.
        ledger: the round sink, as in
            :class:`~repro.simulation.engine.MarketplaceSimulation`.
    """

    def __init__(
        self,
        population: Union[PopulationModel, ColumnarPopulation],
        objective: RequesterObjective,
        policy: PaymentPolicy,
        retention: Optional[RetentionModel] = None,
        seed: int = 0,
        redesign_every: int = 1,
        ledger: Optional[SimulationLedger] = None,
    ) -> None:
        super().__init__(
            population=population,
            objective=objective,
            policy=policy,
            seed=seed,
            redesign_every=redesign_every,
            ledger=ledger,
        )
        self.retention = retention if retention is not None else RetentionModel()
        self._bad_counts = np.zeros(self.population.n_subjects, dtype=np.int64)

    @property
    def departed(self) -> Set[str]:
        """Subjects that have left the marketplace."""
        return {
            self.population.subject_id(int(row))
            for row in np.flatnonzero(self._departed)
        }

    def retention_rate(self, worker_type: Optional[WorkerType] = None) -> float:
        """Fraction of (optionally type-filtered) subjects still active."""
        population = self.population
        if worker_type is None:
            selected = np.ones(population.n_subjects, dtype=bool)
        else:
            selected = population.type_codes == WORKER_TYPE_CODES[worker_type]
        total = int(np.count_nonzero(selected))
        if not total:
            return 1.0
        departed = int(np.count_nonzero(selected & self._departed))
        return (total - departed) / total

    def step(self) -> RoundRecord:
        """One round, then apply the departure rule.

        Comparisons are the scalar rule's exact ``<`` on the round's
        realized utility columns, and excluded subjects' counters are
        left alone, not reset.
        """
        record = super().step()
        result = self._last_result
        assert result is not None
        per_member = result.worker_utility / self.population.n_members
        bad = result.active & (per_member < self.retention.reservation_utility)
        good = result.active & ~bad
        self._bad_counts[bad] += 1
        self._bad_counts[good] = 0
        self._departed |= self._bad_counts >= self.retention.patience
        return record
