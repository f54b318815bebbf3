"""Contract functions in feedback space and effort space.

The paper works with two equivalent views of a contract:

* the *contract function* ``f_i`` (Eq. 1/6) maps the worker's observed
  feedback ``q`` to compensation — this is what the requester can
  actually post, since effort is unobservable;
* the composition ``xi_i(y) = f_i(psi_i(y))`` (Section IV-C) maps effort
  to compensation — this is what the designer reasons about, because the
  worker's best response is an effort choice.

Both are piecewise linear over the Section III-A discretization: effort
edges ``l * delta`` map to feedback breakpoints ``d_l = psi(l * delta)``.
This module ties the two views together around a shared
:class:`~repro.types.DiscretizationGrid` and effort function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..errors import ContractError
from ..types import DiscretizationGrid
from .effort import QuadraticEffort
from .piecewise import PiecewiseLinear

__all__ = ["Contract"]


@dataclass(frozen=True)
class Contract:
    """A posted contract: piecewise-linear pay in feedback space.

    Attributes:
        grid: the effort discretization the contract was built on.
        effort_function: the worker's (fitted) effort function ``psi``.
        compensations: the discrete compensations
            ``x = [x_0, x_1, ..., x_m]`` at the feedback breakpoints
            ``d_l = psi(l * delta)``.  ``x_0`` is the pay at zero effort.
    """

    grid: DiscretizationGrid
    effort_function: QuadraticEffort
    compensations: Tuple[float, ...]

    def __post_init__(self) -> None:
        compensations = tuple(float(x) for x in self.compensations)
        object.__setattr__(self, "compensations", compensations)
        expected = self.grid.n_intervals + 1
        if len(compensations) != expected:
            raise ContractError(
                f"expected {expected} compensations (one per breakpoint), "
                f"got {len(compensations)}"
            )
        if any(x < 0.0 for x in compensations):
            raise ContractError(
                f"compensations must be non-negative, got {compensations!r}"
            )
        for earlier, later in zip(compensations, compensations[1:]):
            if later < earlier - 1e-12:
                raise ContractError(
                    "contract must be monotone non-decreasing in feedback "
                    f"(constraint x_(l-1) <= x_l of Eq. 9), got {compensations!r}"
                )
        # The feedback breakpoints must be strictly increasing, which the
        # effort function enforces by requiring psi to increase over the grid.
        self.effort_function.require_increasing_on(self.grid.max_effort)

    @property
    def feedback_breakpoints(self) -> Tuple[float, ...]:
        """Breakpoints ``d_l = psi(l * delta)`` in feedback space."""
        return self.effort_function.feedback_breakpoints(self.grid.edges())

    def content_key(self) -> Tuple[float, ...]:
        """A value fingerprint of the posted schedule.

        Two contracts with equal keys award the identical pay for every
        feedback value: the key pins the discretization, the fitted psi
        (which fixes the feedback breakpoints), and the compensations at
        those breakpoints.  Delta-redesign paths rebuild value-equal
        contract objects for unchanged subjects; caches keyed on this
        fingerprint keep hitting where ``is`` identity would miss.
        """
        cached = getattr(self, "_content_key", None)
        if cached is None:
            psi = self.effort_function
            cached = (
                float(self.grid.n_intervals),
                self.grid.max_effort,
                psi.r2,
                psi.r1,
                psi.r0,
                *self.compensations,
            )
            object.__setattr__(self, "_content_key", cached)
        return cached  # type: ignore[no-any-return]

    def as_feedback_function(self) -> PiecewiseLinear:
        """The posted contract ``f_i``: feedback -> compensation (Eq. 6).

        Built once per contract and stored on it (the contract is
        frozen, so the function can never go stale): best responses
        evaluate it once per candidate effort and every round pays
        through it.
        """
        cached = self.__dict__.get("_feedback_function")
        if cached is None:
            cached = PiecewiseLinear(
                knots=self.feedback_breakpoints, values=self.compensations
            )
            object.__setattr__(self, "_feedback_function", cached)
        return cached  # type: ignore[no-any-return]

    def __getstate__(self) -> dict:
        # The stored pay function is rebuilt on demand; leaving it out
        # keeps pickled contracts (pool replies, shard messages) the
        # size of their fields.
        state = dict(self.__dict__)
        state.pop("_feedback_function", None)
        return state

    def effort_knot_values(self) -> PiecewiseLinear:
        """Linear interpolation of the pay at the effort-grid knots.

        This is *not* the true pay-for-effort curve: the real composition
        ``xi(y) = f(psi(y))`` is concave inside each piece because ``psi``
        is concave.  The knot interpolation is only useful for plotting
        and for bounds that touch the knots; use :meth:`pay_for_effort`
        for the actual pay.
        """
        return PiecewiseLinear(knots=self.grid.edges(), values=self.compensations)

    def pay_for_feedback(self, feedback: float) -> float:
        """Compensation for an observed feedback value (flat beyond ends)."""
        if feedback < 0.0:
            raise ContractError(f"feedback must be >= 0, got {feedback!r}")
        return self.as_feedback_function()(feedback)

    def pay_for_effort(self, effort: float) -> float:
        """Compensation if the worker exerts ``effort``: ``f(psi(effort))``.

        This is the composition ``xi_i`` of Section IV-C.  Efforts beyond
        the vertex of ``psi`` produce *decreasing* feedback and are paid
        accordingly; feedback below zero is clamped to zero.
        """
        if effort < 0.0:
            raise ContractError(f"effort must be >= 0, got {effort!r}")
        feedback = max(float(self.effort_function(effort)), 0.0)
        return self.pay_for_feedback(feedback)

    def contract_slopes(self) -> Tuple[float, ...]:
        """Feedback-space slopes ``alpha_{i,l} = Delta x_l / Delta d_l``."""
        return self.as_feedback_function().slopes()

    def contract_increments(self) -> Tuple[float, ...]:
        """Contract increments ``Delta x_{i,l} = x_l - x_{l-1}``."""
        return self.as_feedback_function().increments()

    @property
    def max_compensation(self) -> float:
        """The largest pay the contract can award (its last breakpoint)."""
        return self.compensations[-1]

    @staticmethod
    def flat(
        grid: DiscretizationGrid,
        effort_function: QuadraticEffort,
        pay: float,
    ) -> "Contract":
        """A constant contract paying ``pay`` regardless of feedback.

        Used by the fixed-payment baseline and as the degenerate contract
        offered to workers the requester has effectively excluded.
        """
        if pay < 0.0:
            raise ContractError(f"pay must be >= 0, got {pay!r}")
        return Contract(
            grid=grid,
            effort_function=effort_function,
            compensations=tuple([pay] * (grid.n_intervals + 1)),
        )

    @staticmethod
    def from_feedback_slopes(
        grid: DiscretizationGrid,
        effort_function: QuadraticEffort,
        slopes: Sequence[float],
        base_pay: float = 0.0,
    ) -> "Contract":
        """Build a contract from feedback-space slopes ``alpha_{i,l}``.

        Args:
            grid: effort discretization.
            effort_function: the worker's effort function ``psi``.
            slopes: per-piece slopes in feedback space, length ``m``.
            base_pay: compensation ``x_0`` at the zero-effort breakpoint.
        """
        if len(slopes) != grid.n_intervals:
            raise ContractError(
                f"expected {grid.n_intervals} slopes, got {len(slopes)}"
            )
        breakpoints = effort_function.feedback_breakpoints(grid.edges())
        values = [float(base_pay)]
        for index, slope in enumerate(slopes):
            width = breakpoints[index + 1] - breakpoints[index]
            values.append(values[-1] + slope * width)
        return Contract(
            grid=grid, effort_function=effort_function, compensations=tuple(values)
        )
