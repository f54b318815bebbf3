"""Sophisticated malicious workers (the paper's Section VII future work).

The paper notes that malicious behaviour "may be temporary or targeted
in scope or masked through collusion" and plans to "account for more
sophisticated malicious workers".  This module implements the two
archetypes that stress a dynamic contract:

* :class:`CamouflagedWorker` — builds reputation by behaving honestly
  for a warm-up phase, then attacks (biased ratings, influence-motivated
  effort).  A static one-shot weighting keeps overpaying it after the
  flip; an online re-estimating requester catches it.
* :class:`IntermittentWorker` — alternates honest and attack phases on a
  fixed cycle, modelling "temporary" malice; exclusion-style responses
  (banning once flagged) forgo all of its honest-phase value.
"""

from __future__ import annotations

from ..core.effort import QuadraticEffort
from ..errors import ModelError
from ..types import WorkerParameters, WorkerType
from .base import WorkerAgent

__all__ = ["CamouflagedWorker", "IntermittentWorker"]


class CamouflagedWorker(WorkerAgent):
    """Honest-looking until round ``attack_round``, malicious after.

    During camouflage the agent rates truthfully and works purely for
    pay (``omega`` effectively 0); from ``attack_round`` on it applies
    its rating bias and values influence.

    Args:
        worker_id: unique identifier.
        effort_function: the worker's true ``psi``.
        beta: effort-cost weight.
        omega: influence weight once attacking.
        rating_bias: rating shift once attacking.
        attack_round: first round (0-based) of malicious behaviour.
        feedback_noise: std of realized-feedback noise.
    """

    def __init__(
        self,
        worker_id: str,
        effort_function: QuadraticEffort,
        beta: float = 1.0,
        omega: float = 0.5,
        rating_bias: float = 2.0,
        attack_round: int = 5,
        feedback_noise: float = 0.0,
    ) -> None:
        if omega <= 0.0:
            raise ModelError(f"omega must be positive, got {omega!r}")
        if attack_round < 0:
            raise ModelError(f"attack_round must be >= 0, got {attack_round!r}")
        super().__init__(
            worker_id=worker_id,
            params=WorkerParameters.honest(beta=beta),
            effort_function=effort_function,
            feedback_noise=feedback_noise,
        )
        self._honest_params = WorkerParameters.honest(beta=beta)
        self._attack_params = WorkerParameters.malicious(beta=beta, omega=omega)
        self.attack_round = attack_round
        self.attack_omega = omega
        self.attack_bias = rating_bias
        self._attacking = attack_round == 0
        self._sync_params()

    def _sync_params(self) -> None:
        self.params = self._attack_params if self._attacking else self._honest_params

    @property
    def is_attacking(self) -> bool:
        """Whether the agent is currently in its malicious phase."""
        return self._attacking

    def on_round(self, round_index: int) -> None:
        """Flip to attack mode once the camouflage phase ends."""
        self._attacking = round_index >= self.attack_round
        self._sync_params()

    @property
    def rating_bias_now(self) -> float:
        """Zero while camouflaged, the planted bias while attacking."""
        return self.attack_bias if self._attacking else 0.0

    @property
    def n_members(self) -> int:
        """A camouflaged worker acts alone."""
        return 1

    @property
    def worker_type(self) -> WorkerType:
        """Ground-truth class (the camouflage hides it from the
        requester, not from the evaluation)."""
        return WorkerType.NONCOLLUSIVE_MALICIOUS


class IntermittentWorker(WorkerAgent):
    """Alternates honest and attack phases on a fixed cycle.

    The cycle is ``honest_rounds`` of truthful work followed by
    ``attack_rounds`` of biased, influence-motivated work, repeating.

    Args:
        worker_id: unique identifier.
        effort_function: the worker's true ``psi``.
        beta: effort-cost weight.
        omega: influence weight during attack phases.
        rating_bias: rating shift during attack phases.
        honest_rounds: length of each honest phase (>= 1).
        attack_rounds: length of each attack phase (>= 1).
        feedback_noise: std of realized-feedback noise.
    """

    def __init__(
        self,
        worker_id: str,
        effort_function: QuadraticEffort,
        beta: float = 1.0,
        omega: float = 0.5,
        rating_bias: float = 2.0,
        honest_rounds: int = 3,
        attack_rounds: int = 2,
        feedback_noise: float = 0.0,
    ) -> None:
        if omega <= 0.0:
            raise ModelError(f"omega must be positive, got {omega!r}")
        if honest_rounds < 1 or attack_rounds < 1:
            raise ModelError("honest_rounds and attack_rounds must be >= 1")
        super().__init__(
            worker_id=worker_id,
            params=WorkerParameters.honest(beta=beta),
            effort_function=effort_function,
            feedback_noise=feedback_noise,
        )
        self._honest_params = WorkerParameters.honest(beta=beta)
        self._attack_params = WorkerParameters.malicious(beta=beta, omega=omega)
        self.attack_omega = omega
        self.attack_bias = rating_bias
        self.honest_rounds = honest_rounds
        self.attack_rounds = attack_rounds
        self._attacking = False

    @property
    def cycle_length(self) -> int:
        """Length of one honest+attack cycle."""
        return self.honest_rounds + self.attack_rounds

    @property
    def is_attacking(self) -> bool:
        """Whether the agent is currently in an attack phase."""
        return self._attacking

    def on_round(self, round_index: int) -> None:
        """Enter the phase the cycle dictates for this round."""
        position = round_index % self.cycle_length
        self._attacking = position >= self.honest_rounds
        self.params = (
            self._attack_params if self._attacking else self._honest_params
        )

    @property
    def rating_bias_now(self) -> float:
        """Bias only while attacking."""
        return self.attack_bias if self._attacking else 0.0

    @property
    def n_members(self) -> int:
        """An intermittent worker acts alone."""
        return 1

    @property
    def worker_type(self) -> WorkerType:
        """Ground-truth class."""
        return WorkerType.NONCOLLUSIVE_MALICIOUS
