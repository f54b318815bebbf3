"""Payment policies: how the requester sets contracts each round.

Three policies cover the paper's evaluation:

* :class:`DynamicContractPolicy` — the paper's algorithm: solve the
  decomposed subproblems and post the designed contracts.
* :class:`ExclusionPolicy` — the Fig. 8c baseline: run an inner policy
  but exclude every (labelled) malicious subject from the system — they
  are neither paid nor does their feedback count.
* :class:`FixedPaymentPolicy` — the classic fixed-price scheme the
  introduction argues against: one flat pay per task, independent of
  feedback.

Every policy speaks the columnar API: :meth:`PaymentPolicy.contracts_columnar`
posts an archetype contract table plus per-subject codes, and
:meth:`PaymentPolicy.observe` reads each realized round back as result
columns — the one hook a learning requester plugs into.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.contract import Contract
from ..core.decomposition import Subproblem, SubproblemSolution, solve_subproblems
from ..core.designer import DesignerConfig
from ..errors import SimulationError
from ..serving.cache import ContractCache
from ..serving.pool import (
    ColumnarDeltaState,
    ContractAssignment,
    RedesignStats,
    SolveDiagnostics,
    SolverPool,
)
from ..workers.columnar import WORKER_TYPE_ORDER, ColumnarPopulation
from ..workers.population import PopulationModel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> policies)
    from .engine import ColumnarStepResult

#: ``type_codes -> is_malicious`` lookup for vectorized exclusion.
_MALICIOUS_TYPE = np.array(
    [worker_type.is_malicious for worker_type in WORKER_TYPE_ORDER]
)

__all__ = ["PaymentPolicy", "DynamicContractPolicy", "ExclusionPolicy", "FixedPaymentPolicy"]


class PaymentPolicy(abc.ABC):
    """Strategy interface: population knowledge -> posted contracts."""

    @abc.abstractmethod
    def contracts_columnar(
        self, population: ColumnarPopulation
    ) -> ContractAssignment:
        """Contracts as an archetype table plus per-subject codes
        (code ``-1``: no contract posted, the subject is excluded)."""

    def excluded_mask(self, population: ColumnarPopulation) -> np.ndarray:
        """Boolean per-subject mask of subjects this policy bars from
        the system entirely (none by default)."""
        return np.zeros(population.n_subjects, dtype=bool)

    def current_weights(
        self, population: Union[PopulationModel, ColumnarPopulation]
    ) -> Optional[Dict[str, float]]:
        """Per-subject Eq. (5) weights this policy wants applied.

        ``None`` (the default) means "use the population's static
        weights"; adaptive policies return their online estimates.
        """
        return None

    def posted_weights(self) -> Optional[np.ndarray]:
        """The per-subject Eq. (5) weights the latest design believed,
        in population row order.

        ``None`` (the default) means the design used the population's
        weights.  The engine records this column with every round under
        the design (``policy_weight`` in the ledger).
        """
        return None

    def observe(self, result: "ColumnarStepResult") -> None:
        """Feed one realized round back into the policy (no-op here).

        Adaptive policies override this to update their estimators from
        the round's result columns (population row order).
        """

    def solve_diagnostics(self) -> Tuple[Optional[SolveDiagnostics], ...]:
        """Serving provenance per code of the latest posted contract table.

        Empty (the default) when the contracts did not come through the
        serving layer; policies routed through a
        :class:`~repro.serving.pool.SolverPool` report each archetype's
        design fingerprint and cache-hit flag, which the ledger records
        for every subject through the posted codes, for replay
        verification.
        """
        return ()

    def redesign_stats(self) -> Optional[RedesignStats]:
        """Dirty-set accounting of the most recent design call.

        ``None`` (the default) means the policy does not track redesign
        deltas; delta-aware policies report how many subjects were
        re-solved vs reused, which the engine stamps onto the
        ``simulation.round`` span (``n_dirty``, ``reuse_rate``) and the
        round ledger.
        """
        return None


class DynamicContractPolicy(PaymentPolicy):
    """The paper's dynamic contract design (Sections III-IV).

    One contract is designed per design archetype and fanned out by
    code; a :class:`~repro.serving.pool.ColumnarDeltaState` re-solves
    only archetypes the previous epoch did not hold, so a static
    population costs zero solves after the first round.  Reuse is
    cross-verified against fresh solves under
    ``REPRO_CHECK_INVARIANTS=1``.

    Args:
        mu: the requester's compensation weight.
        config: designer configuration.
        cache: an optional shared contract cache.  Supplying one routes
            the per-round solves through a
            :class:`~repro.serving.pool.SolverPool`, so repeat
            subproblems across rounds are deduplicated and the ledger
            carries each subject's design fingerprint.
    """

    def __init__(
        self,
        mu: float = 1.0,
        config: Optional[DesignerConfig] = None,
        cache: Optional[ContractCache] = None,
    ) -> None:
        if mu <= 0.0:
            raise SimulationError(f"mu must be positive, got {mu!r}")
        self.mu = mu
        self.config = config
        self.cache = cache
        self._pool: Optional[SolverPool] = (
            SolverPool(mu=mu, config=config, cache=cache)
            if cache is not None
            else None
        )
        self._delta = ColumnarDeltaState()
        self._stats: Optional[RedesignStats] = None

    def _solve_fresh(
        self, subproblems: Sequence[Subproblem]
    ) -> Tuple[Dict[str, SubproblemSolution], Dict[str, SolveDiagnostics]]:
        if self._pool is not None:
            return self._pool.solve_with_diagnostics(subproblems)
        return solve_subproblems(subproblems, mu=self.mu, config=self.config), {}

    def contracts_columnar(
        self, population: ColumnarPopulation
    ) -> ContractAssignment:
        """Design one contract per archetype; fan out by code."""
        assignment, self._stats = self._delta.resolve(
            population, solve=self._solve_fresh
        )
        return assignment

    def solve_diagnostics(self) -> Tuple[Optional[SolveDiagnostics], ...]:
        return self._delta.last_diagnostics

    def redesign_stats(self) -> Optional[RedesignStats]:
        return self._stats


class ExclusionPolicy(PaymentPolicy):
    """Exclude all malicious subjects; delegate the rest to ``inner``.

    The paper's baseline "in which all the malicious workers are simply
    excluded from the system": excluded subjects earn nothing and their
    feedback does not enter the requester's benefit.  Everything else —
    weights, observations, provenance, redesign accounting — is the
    inner policy's.

    Args:
        inner: the policy applied to the surviving (honest) subjects.
        malice_threshold: subjects with estimated ``e_mal`` above this
            are excluded.  The default 0.5 with oracle estimates excludes
            exactly the labelled-malicious population.
    """

    def __init__(self, inner: PaymentPolicy, malice_threshold: float = 0.5) -> None:
        if not 0.0 <= malice_threshold <= 1.0:
            raise SimulationError(
                f"malice_threshold must lie in [0, 1], got {malice_threshold!r}"
            )
        self.inner = inner
        self.malice_threshold = malice_threshold

    def excluded_mask(self, population: ColumnarPopulation) -> np.ndarray:
        return (population.e_mal > self.malice_threshold) | _MALICIOUS_TYPE[
            population.type_codes
        ]

    def contracts_columnar(
        self, population: ColumnarPopulation
    ) -> ContractAssignment:
        inner = self.inner.contracts_columnar(population)
        codes = np.where(self.excluded_mask(population), -1, inner.codes)
        return ContractAssignment(contracts=inner.contracts, codes=codes)

    def current_weights(
        self, population: Union[PopulationModel, ColumnarPopulation]
    ) -> Optional[Dict[str, float]]:
        return self.inner.current_weights(population)

    def posted_weights(self) -> Optional[np.ndarray]:
        return self.inner.posted_weights()

    def observe(self, result: "ColumnarStepResult") -> None:
        self.inner.observe(result)

    def solve_diagnostics(self) -> Tuple[Optional[SolveDiagnostics], ...]:
        return self.inner.solve_diagnostics()

    def redesign_stats(self) -> Optional[RedesignStats]:
        return self.inner.redesign_stats()


class FixedPaymentPolicy(PaymentPolicy):
    """A single flat payment per task, independent of feedback.

    Args:
        pay_per_member: the flat pay offered to each human worker (a
            community receives ``size * pay_per_member``).
        n_intervals: grid resolution of the (degenerate) flat contract.
    """

    def __init__(self, pay_per_member: float = 1.0, n_intervals: int = 4) -> None:
        if pay_per_member < 0.0:
            raise SimulationError(
                f"pay_per_member must be >= 0, got {pay_per_member!r}"
            )
        if n_intervals < 1:
            raise SimulationError(f"n_intervals must be >= 1, got {n_intervals!r}")
        self.pay_per_member = pay_per_member
        self.n_intervals = n_intervals

    def contracts_columnar(
        self, population: ColumnarPopulation
    ) -> ContractAssignment:
        # Membership size is part of the design-archetype key, so one
        # flat contract per archetype is exact.
        config = DesignerConfig(n_intervals=self.n_intervals)
        contracts = []
        for representative in population.archetype_subproblems():
            grid = config.grid_for(
                representative.effort_function,
                max_effort=representative.max_effort,
            )
            contracts.append(
                Contract.flat(
                    grid,
                    representative.effort_function,
                    pay=self.pay_per_member * len(representative.member_ids),
                )
            )
        return ContractAssignment(
            contracts=tuple(contracts), codes=population.archetype_codes
        )
