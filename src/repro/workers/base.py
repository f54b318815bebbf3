"""Behavioural worker agents (the follower side of the game).

Agents wrap the paper's worker model for use by the marketplace
simulation: each agent owns its *true* effort function (which can differ
from the requester's fitted one), its ``(beta, omega)`` parameters, and
a noisy feedback realization — the requester only ever observes the
realized feedback, never the effort.
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from ..core.best_response import BestResponse, solve_best_response
from ..core.contract import Contract
from ..core.effort import QuadraticEffort
from ..errors import ModelError
from ..numerics import is_zero
from ..types import WorkerParameters

__all__ = ["WorkerAgent"]


class WorkerAgent(abc.ABC):
    """A worker (or meta-worker) participating in repeated tasks.

    Args:
        worker_id: unique identifier.
        params: the agent's ``(beta, omega)`` utility parameters.
        effort_function: the agent's true ``psi``.
        feedback_noise: std of the noise on realized feedback.
    """

    def __init__(
        self,
        worker_id: str,
        params: WorkerParameters,
        effort_function: QuadraticEffort,
        feedback_noise: float = 0.0,
        rating_noise: float = 0.35,
    ) -> None:
        if not worker_id:
            raise ModelError("worker_id must be non-empty")
        if feedback_noise < 0.0:
            raise ModelError(f"feedback_noise must be >= 0, got {feedback_noise!r}")
        if rating_noise < 0.0:
            raise ModelError(f"rating_noise must be >= 0, got {rating_noise!r}")
        self.worker_id = worker_id
        self.params = params
        self.effort_function = effort_function
        self.feedback_noise = feedback_noise
        self.rating_noise = rating_noise

    def respond(self, contract: Contract) -> BestResponse:
        """Best-respond to a posted contract using the *true* psi."""
        return solve_best_response(
            contract, self.params, effort_function=self.effort_function
        )

    @property
    def needs_feedback_draw(self) -> bool:
        """Whether :meth:`realize_feedback` consumes one generator draw."""
        return not is_zero(self.feedback_noise)

    @property
    def needs_rating_draw(self) -> bool:
        """Whether :meth:`rating_deviation` consumes one generator draw."""
        return not is_zero(self.rating_noise)

    @staticmethod
    def realize_feedback_batch(
        expected: np.ndarray, noise_scales: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`realize_feedback` over stacked subjects.

        Bit-identical to the scalar path: ``expected + scale * z``
        clamped at zero, where ``z`` is the subject's standard-normal
        draw.  Callers must zero ``noise_scales`` (and not consume a
        draw) for agents whose ``needs_feedback_draw`` is false — the
        scalar path skips the generator entirely for them.
        """
        return np.maximum(expected + noise_scales * draws, 0.0)

    @staticmethod
    def rating_deviation_batch(
        biases: np.ndarray, noise_scales: np.ndarray, draws: np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`rating_deviation` over stacked subjects.

        ``|bias + scale * z|``, with the same zero-scale convention as
        :meth:`realize_feedback_batch` for agents that draw no noise.
        """
        return np.abs(biases + noise_scales * draws)

    def on_round(self, round_index: int) -> None:
        """Enter the behaviour of round ``round_index``.

        Stationary agents ignore it; strategic agents (e.g. camouflaged
        malicious workers) use it to switch behaviour over time.  The
        simulation applies the same rule to packed rows through
        :meth:`~repro.workers.columnar.ColumnarPopulation.behaviour_at`.
        """

    @property
    def rating_bias_now(self) -> float:
        """The agent's current rating bias over the expert consensus.

        Honest agents rate truthfully (zero bias); malicious agents
        override this with their planted bias.
        """
        return 0.0

    def rating_deviation(
        self, rng: Optional[np.random.Generator] = None
    ) -> float:
        """One observed |review score - expert consensus| sample.

        This is what the requester actually sees each round and feeds
        into the Eq. (5) accuracy term when estimating online.
        """
        bias = self.rating_bias_now
        if rng is None or is_zero(self.rating_noise):
            return abs(bias)
        return abs(bias + float(rng.normal(0.0, self.rating_noise)))

    def realize_feedback(
        self, effort: float, rng: Optional[np.random.Generator] = None
    ) -> float:
        """The feedback the platform observes for the chosen effort.

        Noise-free expectation is ``psi(effort)``; with a generator, a
        zero-mean Gaussian perturbation is added and the result clamped
        at zero (feedback is a count).
        """
        if effort < 0.0:
            raise ModelError(f"effort must be >= 0, got {effort!r}")
        expected = float(self.effort_function(effort))
        if rng is None or is_zero(self.feedback_noise):
            return max(expected, 0.0)
        return max(expected + float(rng.normal(0.0, self.feedback_noise)), 0.0)

    @property
    @abc.abstractmethod
    def n_members(self) -> int:
        """Number of underlying human workers (1 unless a community)."""

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"{type(self).__name__}(id={self.worker_id!r}, "
            f"beta={self.params.beta}, omega={self.params.omega})"
        )
