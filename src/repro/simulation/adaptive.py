"""Online-adaptive dynamic contracts.

The paper's contract is already *quality-contingent* — pay depends on
last round's feedback — but its Section V evaluation estimates the
Eq. (5) weights once, offline, from the historical trace.  This module
closes the remaining loop (the paper's "adaptive to changes in workers'
behavior" claim, and the Section VII plan to handle "more sophisticated
malicious workers"): the requester re-estimates every subject's rating
deviation and malice probability from the rounds it actually observes,
via exponentially-weighted moving averages, and re-designs contracts on
the updated weights.

Against stationary workers the adaptive policy converges to the
offline-weighted one; against camouflaged or intermittent attackers it
withdraws incentive pay within a few rounds of a behaviour flip — the
`ext_adaptive` and `ext_camouflage` experiments quantify both.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.decomposition import Subproblem, SubproblemSolution, solve_subproblems
from ..core.designer import DesignerConfig
from ..errors import SimulationError
from ..estimation.malice import deviation_to_malice
from ..serving.pool import (
    ColumnarDeltaState,
    ContractAssignment,
    RedesignStats,
    SolveDiagnostics,
)
from ..types import FeedbackWeightParameters
from ..workers.columnar import ColumnarPopulation
from ..workers.population import PopulationModel
from .policies import PaymentPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> policies)
    from .engine import ColumnarStepResult

__all__ = ["EwmaDeviationTracker", "AdaptiveDynamicPolicy"]


class EwmaDeviationTracker:
    """Per-subject exponentially-weighted rating-deviation estimates.

    Estimates and observation counts are held as columns, one slot per
    tracked subject: a policy resolves its population's rows to slots
    once (:meth:`slots`) and folds whole rounds in with
    :meth:`observe_slots`.  The update is elementwise IEEE arithmetic,
    so it is bit-identical to the scalar :meth:`observe`.

    Args:
        smoothing: weight of the newest observation in ``(0, 1]``; 1.0
            means "trust only the latest round".
        prior_deviation: estimate before any observation.
    """

    def __init__(self, smoothing: float = 0.4, prior_deviation: float = 0.4) -> None:
        if not 0.0 < smoothing <= 1.0:
            raise SimulationError(
                f"smoothing must lie in (0, 1], got {smoothing!r}"
            )
        if prior_deviation <= 0.0:
            raise SimulationError(
                f"prior_deviation must be positive, got {prior_deviation!r}"
            )
        self.smoothing = smoothing
        self.prior_deviation = prior_deviation
        self._slots: Dict[str, int] = {}
        self._estimates = np.zeros(0)
        self._counts = np.zeros(0, dtype=np.int64)

    def slots(self, subject_ids: Sequence[str]) -> np.ndarray:
        """Each subject's slot, opening a prior-valued slot for new ones."""
        for subject_id in subject_ids:
            self._slots.setdefault(subject_id, len(self._slots))
        grown = len(self._slots) - self._estimates.shape[0]
        if grown:
            self._estimates = np.concatenate(
                [self._estimates, np.full(grown, self.prior_deviation)]
            )
            self._counts = np.concatenate(
                [self._counts, np.zeros(grown, dtype=np.int64)]
            )
        return np.array(
            [self._slots[subject_id] for subject_id in subject_ids], dtype=np.int64
        )

    def observe_slots(self, slots: np.ndarray, deviations: np.ndarray) -> None:
        """Fold one observed deviation into each of the (distinct) slots."""
        deviations = np.asarray(deviations, dtype=np.float64)
        if np.any(deviations < 0.0):
            raise SimulationError(
                f"deviations must be >= 0, got min {float(deviations.min())!r}"
            )
        self._estimates[slots] = (
            self.smoothing * deviations
            + (1.0 - self.smoothing) * self._estimates[slots]
        )
        self._counts[slots] += 1

    def observe(self, subject_id: str, deviation: float) -> None:
        """Fold one observed deviation into the subject's estimate."""
        if deviation < 0.0:
            raise SimulationError(f"deviation must be >= 0, got {deviation!r}")
        self.observe_slots(self.slots([subject_id]), np.array([deviation]))

    def estimates(self, slots: np.ndarray) -> np.ndarray:
        """The current estimates at ``slots`` (a copy)."""
        return self._estimates[slots]

    def estimate(self, subject_id: str) -> float:
        """The current deviation estimate (the prior if never observed)."""
        slot = self._slots.get(subject_id)
        if slot is None:
            return self.prior_deviation
        return float(self._estimates[slot])

    def n_observations(self, subject_id: str) -> int:
        """How many rounds have informed this subject's estimate."""
        slot = self._slots.get(subject_id)
        return 0 if slot is None else int(self._counts[slot])


class AdaptiveDynamicPolicy(PaymentPolicy):
    """Dynamic contracts with online weight re-estimation.

    Each round the policy maps every subject's EWMA rating deviation to
    an Eq. (5) weight (accuracy term, malice-ramp penalty, partner
    penalty), substitutes those weights for the population's design
    weights and designs one contract per resulting archetype.  A
    :class:`~repro.serving.pool.ColumnarDeltaState` re-solves only the
    archetypes whose weight moved; reuse is cross-verified under
    ``REPRO_CHECK_INVARIANTS=1``.

    Args:
        mu: requester compensation weight.
        weight_params: Eq. (5) coefficients.
        config: designer configuration.
        smoothing: EWMA smoothing factor.
        prior_deviation: deviation assumed before any observation (the
            benefit of the doubt new workers get).
        honest_deviation / malicious_deviation / steepness: the malice
            ramp (see :func:`repro.estimation.malice.deviation_to_malice`).
        freeze_after: stop folding in observations after this many
            rounds; ``freeze_after=1`` models a requester that estimates
            once (the paper's offline estimation) and never re-checks —
            the baseline the camouflage experiment exposes.  ``None``
            (default) keeps learning forever.
    """

    def __init__(
        self,
        mu: float = 1.0,
        weight_params: Optional[FeedbackWeightParameters] = None,
        config: Optional[DesignerConfig] = None,
        smoothing: float = 0.4,
        prior_deviation: float = 0.4,
        honest_deviation: float = 0.4,
        malicious_deviation: float = 1.5,
        steepness: float = 4.0,
        freeze_after: Optional[int] = None,
    ) -> None:
        if mu <= 0.0:
            raise SimulationError(f"mu must be positive, got {mu!r}")
        if freeze_after is not None and freeze_after < 1:
            raise SimulationError(
                f"freeze_after must be >= 1 when set, got {freeze_after!r}"
            )
        self.mu = mu
        self.weight_params = (
            weight_params if weight_params is not None else FeedbackWeightParameters()
        )
        self.config = config
        self.tracker = EwmaDeviationTracker(
            smoothing=smoothing, prior_deviation=prior_deviation
        )
        self.honest_deviation = honest_deviation
        self.malicious_deviation = malicious_deviation
        self.steepness = steepness
        self.freeze_after = freeze_after
        self._observed_rounds = 0
        self._delta = ColumnarDeltaState()
        self._stats: Optional[RedesignStats] = None
        # Tracker slot of each population row, resolved once per
        # population (keyed by the identity of its id list).
        self._slot_ids: Optional[List[str]] = None
        self._slots = np.zeros(0, dtype=np.int64)
        # The per-row weights of the latest design.
        self._weights: Optional[np.ndarray] = None

    def _weight_from(self, deviation: float, n_partners: int) -> float:
        # Scalar on purpose: deviation_to_malice uses math.exp, which
        # NumPy's exp is not guaranteed to match bit for bit.
        malice = deviation_to_malice(
            deviation,
            honest_deviation=self.honest_deviation,
            malicious_deviation=self.malicious_deviation,
            steepness=self.steepness,
        )
        return self.weight_params.weight_from_deviation(
            deviation, malice_probability=malice, n_partners=n_partners
        )

    def _row_slots(self, population: ColumnarPopulation) -> np.ndarray:
        subject_ids = population.subject_ids()
        if self._slot_ids is not subject_ids:
            self._slots = self.tracker.slots(subject_ids)
            self._slot_ids = subject_ids
        return self._slots

    def _solve_fresh(
        self, subproblems: Sequence[Subproblem]
    ) -> Tuple[Dict[str, SubproblemSolution], Dict[str, SolveDiagnostics]]:
        return (
            solve_subproblems(subproblems, mu=self.mu, config=self.config),
            {},
        )

    def contracts_columnar(
        self, population: ColumnarPopulation
    ) -> ContractAssignment:
        """Design on the online weights, substituted as the design-weight
        column; codes index the substituted population's archetypes."""
        estimates = self.tracker.estimates(self._row_slots(population))
        partners = population.n_members - 1
        self._weights = np.array(
            [
                self._weight_from(deviation, n_partners)
                for deviation, n_partners in zip(
                    estimates.tolist(), partners.tolist()
                )
            ]
        )
        design = population.with_design_weight(self._weights)
        assignment, self._stats = self._delta.resolve(
            design, solve=self._solve_fresh
        )
        return assignment

    def redesign_stats(self) -> Optional[RedesignStats]:
        return self._stats

    def posted_weights(self) -> Optional[np.ndarray]:
        """The online Eq. (5) weights the latest contracts were designed on."""
        return self._weights

    def current_weights(
        self, population: Union[PopulationModel, ColumnarPopulation]
    ) -> Dict[str, float]:
        """The online Eq. (5) weights used for the latest contracts."""
        if self._weights is None or self._slot_ids is None:
            # First round, not yet designed: compute from priors.
            return {
                subproblem.subject_id: self._weight_from(
                    self.tracker.estimate(subproblem.subject_id),
                    subproblem.size - 1,
                )
                for subproblem in population.subproblems
            }
        return dict(zip(self._slot_ids, self._weights.tolist()))

    def observe(self, result: "ColumnarStepResult") -> None:
        """Fold each active subject's observed deviation in.

        Observation stops once ``freeze_after`` rounds have been
        absorbed (the one-shot-estimation baseline).
        """
        if self.freeze_after is not None and self._observed_rounds >= self.freeze_after:
            return
        active = result.active
        self.tracker.observe_slots(
            self._slots[active], result.rating_deviation[active]
        )
        self._observed_rounds += 1
