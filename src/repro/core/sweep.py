"""Batched candidate sweep: the Section IV-C designer hot path, in O(K).

The legacy sweep re-runs the Eq. (39)-(40) slope recursion from scratch
for every target piece ``k``, re-derives all ``K`` Lemma 4.1 windows per
candidate and re-enumerates the worker's Eq. (30) candidate efforts per
contract — quadratic-and-worse in the grid size ``K``.  This module
exploits the *shared-prefix* structure of the construction instead:

* **One recursion for all candidates.**  The Eq. (39) slopes are
  target-independent: candidate ``xi^(k)`` is exactly the first ``k``
  recursion slopes followed by a flat tail.  A single O(K) pass yields
  every candidate's slope vector as a prefix view.
* **Thresholds once per piece.**  The Lemma 4.1 Case I/III/II windows
  depend on the piece, not on the candidate — ``K`` thresholds instead
  of ``K^2`` (the legacy path rebuilt them per candidate).
* **One cumulative sum for all pay schedules.**  With shared prefixes,
  candidate ``k``'s compensations are ``V[min(l, k)]`` of a single
  cumulative sum ``V`` over ``slope * (d_l - d_{l-1})`` — no per-candidate
  :class:`~repro.core.contract.Contract` is materialized until the
  result objects are assembled.
* **Vectorized best responses.**  Every candidate shares the same knot
  set, so the Eq. (30) candidate efforts (knot inverses, per-piece
  Eq. (31) stationary points, the flat-region ``psi'(y) = beta/omega``
  point of DESIGN.md §2) are computed once and the worker utilities of
  all (candidate, effort) pairs evaluated as one NumPy matrix.

The fast path returns :class:`~repro.core.candidate.CandidateContract`
and :class:`~repro.core.best_response.BestResponse` objects equivalent
to the legacy per-candidate path within :mod:`repro.numerics`
tolerances.  Under ``REPRO_CHECK_INVARIANTS=1`` every fast sweep is
cross-verified against a freshly-solved legacy sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.invariants import (
    InvariantViolation,
    check_candidate_invariants,
    invariants_enabled,
)
from ..errors import DesignError
from ..numerics import ABS_TOL, REL_TOL, close
from ..obs.trace import get_tracer
from ..types import DiscretizationGrid, WorkerParameters
from .best_response import BestResponse, solve_best_response
from .candidate import CandidateContract, build_candidate
from .cases import PieceCase
from .contract import Contract
from .effort import QuadraticEffort
from .piecewise import batch_locate

__all__ = [
    "PrefixTables",
    "SweepStats",
    "prefix_tables",
    "vectorized_sweep",
    "legacy_sweep",
    "sweep_candidates",
    "sweep_candidates_with_stats",
    "require_sweeps_agree",
]

#: One (candidate, best-response) pair per target piece, ordered by piece.
SweepPairs = List[Tuple[CandidateContract, BestResponse]]

_CASE_BY_CODE = (
    PieceCase.LEFT_ENDPOINT,
    PieceCase.INTERIOR,
    PieceCase.RIGHT_ENDPOINT,
)


@dataclass(frozen=True)
class SweepStats:
    """How one candidate sweep was computed (obs span attributes).

    Attributes:
        n_candidates: number of candidate contracts (the grid size ``K``).
        n_efforts: shared Eq. (30) candidate efforts enumerated (0 on
            the legacy path, which re-enumerates per candidate).
        n_vectorized: total (candidate, effort) utility evaluations done
            in the single vectorized pass (0 on the legacy path).
    """

    n_candidates: int
    n_efforts: int
    n_vectorized: int

    def __post_init__(self) -> None:
        for name in ("n_candidates", "n_efforts", "n_vectorized"):
            value = getattr(self, name)
            if value < 0:
                raise DesignError(f"{name} must be >= 0, got {value!r}")


@dataclass(frozen=True)
class PrefixTables:
    """Target-independent tables shared by all ``K`` candidates.

    One O(K) pass over the Eq. (39)-(40) recursion plus the Lemma 4.1
    thresholds; every candidate contract is a prefix view into these
    arrays (see the module docstring).

    Attributes:
        breakpoints: feedback breakpoints ``d_l = psi(l * delta)``,
            length ``K + 1`` (Section III-A).
        slopes: the Eq. (39) recursion slopes ``alpha_l`` (post
            clamping), length ``K``.
        epsilons: the Eq. (40) slack terms ``eps_l``, length ``K``.
        clamped: pieces whose recursion slope was clamped to zero.
        values: cumulative pay ``V[l] = base_pay + sum_{j<=l} alpha_j *
            (d_j - d_{j-1})``, length ``K + 1``; candidate ``k``'s
            compensation at knot ``l`` is ``V[min(l, k)]``.
        prefix_cases: Lemma 4.1 case of each recursion slope in its own
            piece, length ``K``.
        zero_cases: Lemma 4.1 case of a flat (``alpha = 0``) piece,
            length ``K`` (the tail pieces of every candidate).
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    epsilons: np.ndarray
    clamped: Tuple[int, ...]
    values: np.ndarray
    prefix_cases: Tuple[PieceCase, ...]
    zero_cases: Tuple[PieceCase, ...]

    def __post_init__(self) -> None:
        n_pieces = len(self.slopes)
        if len(self.breakpoints) != n_pieces + 1 or len(self.values) != n_pieces + 1:
            raise DesignError(
                f"inconsistent prefix tables: {n_pieces} slopes need "
                f"{n_pieces + 1} breakpoints/values, got "
                f"{len(self.breakpoints)}/{len(self.values)}"
            )
        if not (
            np.all(np.isfinite(self.slopes))
            and np.all(np.isfinite(self.values))
            and np.all(np.isfinite(self.breakpoints))
        ):
            raise DesignError("prefix tables must be finite")


def _classify_codes(
    slopes: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> Tuple[PieceCase, ...]:
    """Vectorized Lemma 4.1 classification (Eqs. 32-35 ordering)."""
    codes = np.where(slopes <= lower, 0, np.where(slopes >= upper, 2, 1))
    return tuple(_CASE_BY_CODE[int(code)] for code in codes)


def prefix_tables(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    base_pay: float = 0.0,
) -> PrefixTables:
    """Run the shared Eq. (39)-(40) recursion once for all candidates.

    The recursion slopes are target-independent (candidate ``xi^(k)`` of
    Section IV-C is the first ``k`` slopes plus a flat tail), so one
    O(K) pass — vectorized derivatives and Eq. (40) slacks, a single
    sequential sweep for the Eq. (39) gains — yields every candidate's
    slope prefix, pay schedule (via cumulative sum) and Lemma 4.1 cases.

    Args:
        effort_function: the worker's fitted effort function ``psi``.
        grid: effort discretization (``K`` intervals of width ``delta``).
        params: worker parameters ``(beta, omega)``.
        base_pay: compensation at zero effort (``x_0``).

    Returns:
        The :class:`PrefixTables` shared by all ``K`` candidates.
    """
    effort_function.require_increasing_on(grid.max_effort)
    beta, omega = params.beta, params.omega
    r2 = effort_function.r2
    delta = grid.delta

    edges = np.asarray(grid.edges(), dtype=float)
    # psi'(edges), elementwise identical to QuadraticEffort.derivative.
    derivatives = 2.0 * r2 * edges + effort_function.r1
    if derivatives[-1] <= 0.0:
        raise DesignError(
            f"psi' must stay positive over the grid; psi'({edges[-1]!r}) = "
            f"{derivatives[-1]!r}"
        )
    slope_left = derivatives[:-1]
    slope_right = derivatives[1:]
    # Eq. (40) slack, with the division typo fixed (DESIGN.md §2).
    epsilons = 4.0 * beta * r2 * r2 * delta * delta / (
        slope_left * slope_left * slope_right
    )

    # Eq. (39) gains: sequential by construction (each piece's slope
    # feeds the next piece's threshold), but a single O(K) sweep.
    slopes = np.empty(grid.n_intervals, dtype=float)
    clamped: List[int] = []
    previous_gain = beta / float(derivatives[0])
    for index in range(grid.n_intervals):
        left = float(slope_left[index])
        gain = beta * beta / (previous_gain * left * left) + float(epsilons[index])
        slope = gain - omega
        if slope < 0.0:
            # Same monotone fallback as the legacy construction: the
            # whole Case III window sits below zero, so the piece goes
            # flat (see candidate._build_candidate).
            slope = 0.0
            clamped.append(index + 1)
        slopes[index] = slope
        previous_gain = slope + omega

    breakpoints = (r2 * edges + effort_function.r1) * edges + effort_function.r0
    widths = breakpoints[1:] - breakpoints[:-1]
    # Sequential cumulative pay, matching the legacy per-candidate
    # Contract.from_feedback_slopes accumulation bit for bit.
    values = np.cumsum(np.concatenate(([float(base_pay)], slopes * widths)))

    # Lemma 4.1 thresholds, once per piece (K objects instead of K^2).
    lower = beta / slope_left - omega
    upper = beta / slope_right - omega
    prefix_cases = _classify_codes(slopes, lower, upper)
    zero_cases = _classify_codes(np.zeros_like(slopes), lower, upper)

    return PrefixTables(
        breakpoints=breakpoints,
        slopes=slopes,
        epsilons=epsilons,
        clamped=tuple(clamped),
        values=values,
        prefix_cases=prefix_cases,
        zero_cases=zero_cases,
    )


def _candidate_effort_table(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    tables: PrefixTables,
) -> Tuple[np.ndarray, np.ndarray]:
    """Shared Eq. (30) candidate efforts and their first-valid pieces.

    Returns ``(efforts, min_piece)``: ``efforts`` sorted ascending, and
    ``min_piece[c]`` the smallest target piece ``k`` for which effort
    ``c`` is a legal candidate (0 = legal for every candidate, ``K + 1``
    reserved for the omega stationary point handled separately).
    """
    beta, omega = params.beta, params.omega
    knots = tables.breakpoints
    n_pieces = grid.n_intervals

    efforts: List[float] = [0.0]
    min_piece: List[float] = [0.0]

    # Knot inverses: efforts at which feedback crosses a contract knot.
    # All knots lie on the increasing branch (the grid is inside it), so
    # every knot contributes — via the same quadratic-formula branch as
    # QuadraticEffort.inverse.
    r1, r2, r0 = effort_function.r1, effort_function.r2, effort_function.r0
    reachable = (knots >= r0) & (knots <= effort_function.max_feedback)
    reachable_knots = knots[reachable]
    discriminant = np.maximum(r1 * r1 - 4.0 * r2 * (r0 - reachable_knots), 0.0)
    knot_efforts = (-r1 + np.sqrt(discriminant)) / (2.0 * r2)
    efforts.extend(float(value) for value in knot_efforts)
    min_piece.extend([0.0] * len(knot_efforts))

    # Per-piece Eq. (31) stationary points of the shared slope prefix:
    # valid for every candidate whose prefix covers the piece (k >= l).
    # Slopes are *reconstructed* from the cumulative pay (dy/dx over the
    # knots), exactly as the legacy solver reads them back off the
    # posted contract — the recursion slopes differ by rounding ulps.
    reconstructed = (tables.values[1:] - tables.values[:-1]) / (
        knots[1:] - knots[:-1]
    )
    for index in range(n_pieces):
        gain = float(reconstructed[index]) + omega
        if gain <= 0.0:
            continue
        stationary = effort_function.derivative_inverse(beta / gain)
        if stationary <= 0.0:
            continue
        feedback = float(effort_function(stationary))
        if knots[index] <= feedback < knots[index + 1]:
            efforts.append(stationary)
            min_piece.append(float(index + 1))

    order = np.argsort(np.asarray(efforts), kind="stable")
    effort_array = np.asarray(efforts, dtype=float)[order]
    min_piece_array = np.asarray(min_piece, dtype=float)[order]
    return effort_array, min_piece_array


def _omega_stationary_validity(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    tables: PrefixTables,
) -> Tuple[Optional[float], Optional[int], bool]:
    """The flat-region stationary point ``psi'(y) = beta / omega``.

    Beyond the knot span (and in every flat tail piece) pay is constant
    but the Eq. (14) influence term still rewards effort — the case the
    paper's construction implicitly assumes away (DESIGN.md §2).

    Returns ``(effort, interior_piece, outside_knots)``: the stationary
    effort (``None`` when absent), the 1-based tail piece containing its
    feedback (``None`` when it falls outside every interior piece), and
    whether it lands beyond the knot span (valid for all candidates).
    """
    if params.omega <= 0.0:
        return None, None, False
    stationary = effort_function.derivative_inverse(params.beta / params.omega)
    if stationary <= 0.0:
        return None, None, False
    feedback = float(effort_function(stationary))
    knots = tables.breakpoints
    outside = feedback >= knots[-1] or feedback <= knots[0]
    interior: Optional[int] = None
    if knots[0] <= feedback < knots[-1]:
        # The unique interior piece whose half-open window holds the
        # feedback; candidates with target k < piece leave it flat.
        index = int(np.searchsorted(knots, feedback, side="right")) - 1
        index = min(max(index, 0), grid.n_intervals - 1)
        if knots[index] <= feedback < knots[index + 1]:
            interior = index + 1
    return stationary, interior, outside


def vectorized_sweep(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    base_pay: float = 0.0,
) -> Tuple[SweepPairs, SweepStats]:
    """Solve all ``K`` Section IV-C candidates in one vectorized pass.

    Implements the shared-prefix batching of the module docstring: the
    Eq. (39)-(40) recursion runs once, Lemma 4.1 thresholds are computed
    once per piece, and the Eq. (30) best responses of every candidate
    are evaluated as a single (candidate x effort) utility matrix with
    ties broken toward lower effort at :mod:`repro.numerics` tolerance.

    Args:
        effort_function: the worker's fitted effort function ``psi``.
        grid: effort discretization (``K`` intervals).
        params: worker parameters ``(beta, omega)``.
        base_pay: compensation at zero effort (``x_0``).

    Returns:
        ``(pairs, stats)`` — one ``(candidate, response)`` pair per
        target piece (ordered ``1..K``) and the sweep statistics.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        tables = prefix_tables(effort_function, grid, params, base_pay=base_pay)
    else:
        # One batched span where the legacy path emits K per-candidate
        # ``core.candidate_build`` spans: the shared Eq. (39)-(40)
        # construction happens exactly once on this path.
        with tracer.span(
            "core.candidate_build", batched=True, n_candidates=grid.n_intervals
        ) as build_span:
            tables = prefix_tables(
                effort_function, grid, params, base_pay=base_pay
            )
            build_span.set("n_clamped", len(tables.clamped))
    n_pieces = grid.n_intervals
    beta, omega = params.beta, params.omega
    knots = tables.breakpoints
    values = tables.values

    efforts, min_piece = _candidate_effort_table(
        effort_function, grid, params, tables
    )
    omega_effort, omega_piece, omega_outside = _omega_stationary_validity(
        effort_function, grid, params, tables
    )
    max_piece = np.full(efforts.shape, float(n_pieces), dtype=float)
    if omega_effort is not None and (omega_outside or omega_piece is not None):
        # Insert the omega stationary point keeping ascending order.
        position = int(np.searchsorted(efforts, omega_effort, side="left"))
        efforts = np.insert(efforts, position, omega_effort)
        if omega_outside:
            lo, hi = 0.0, float(n_pieces)
        else:
            # Valid only while the containing piece is still flat tail.
            lo, hi = 0.0, float(omega_piece - 1)
        min_piece = np.insert(min_piece, position, lo)
        max_piece = np.insert(max_piece, position, hi)

    feedbacks = np.asarray(effort_function(efforts), dtype=float)
    pay_feedbacks = np.maximum(feedbacks, 0.0)
    indices, fractions = batch_locate(knots, pay_feedbacks)

    k_column = np.arange(1, n_pieces + 1, dtype=np.int64)[:, None]
    left_index = np.minimum(indices[None, :], k_column)
    right_index = np.minimum(indices[None, :] + 1, k_column)
    value_left = values[left_index]
    value_right = values[right_index]
    pay = value_left + fractions[None, :] * (value_right - value_left)
    # Flat extrapolation is exact (no interpolation residue), matching
    # PiecewiseLinear.__call__'s early returns on the Eq. (6) function.
    below = pay_feedbacks <= knots[0]
    above = pay_feedbacks >= knots[-1]
    if bool(np.any(below)):
        pay[:, below] = values[0]
    if bool(np.any(above)):
        # Candidate k's last breakpoint value is V[k] (flat tail).
        pay[:, above] = values[k_column]

    # Worker utility of Eqs. (11)/(14), evaluated in the same operation
    # order as best_response.worker_utility.
    utilities = pay + omega * feedbacks[None, :] - beta * efforts[None, :]

    valid = (min_piece[None, :] <= k_column) & (k_column <= max_piece[None, :])
    masked = np.where(valid, utilities, -np.inf)
    best_utility = masked.max(axis=1, keepdims=True)
    slack = np.maximum(
        REL_TOL * np.maximum(np.abs(masked), np.abs(best_utility)), ABS_TOL
    )
    eligible = valid & (best_utility - masked <= slack)
    chosen = eligible.argmax(axis=1)

    pairs: SweepPairs = []
    slope_list = [float(slope) for slope in tables.slopes]
    epsilon_list = [float(epsilon) for epsilon in tables.epsilons]
    value_list = [float(value) for value in values]
    for k in range(1, n_pieces + 1):
        compensations = tuple(value_list[: k + 1]) + (value_list[k],) * (
            n_pieces - k
        )
        contract = Contract(
            grid=grid, effort_function=effort_function, compensations=compensations
        )
        candidate = CandidateContract(
            target_piece=k,
            params=params,
            contract=contract,
            slopes=tuple(slope_list[:k]) + (0.0,) * (n_pieces - k),
            epsilons=tuple(epsilon_list[:k]),
            cases=tables.prefix_cases[:k] + tables.zero_cases[k:],
            clamped_pieces=tuple(
                piece for piece in tables.clamped if piece <= k
            ),
        )
        column = int(chosen[k - 1])
        effort = float(efforts[column])
        response = BestResponse(
            effort=effort,
            utility=float(utilities[k - 1, column]),
            feedback=float(feedbacks[column]),
            compensation=float(pay[k - 1, column]),
            piece=grid.locate(effort),
        )
        pairs.append((candidate, response))

    stats = SweepStats(
        n_candidates=n_pieces,
        n_efforts=len(efforts),
        n_vectorized=n_pieces * len(efforts),
    )
    return pairs, stats


def legacy_sweep(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    base_pay: float = 0.0,
) -> Tuple[SweepPairs, SweepStats]:
    """The per-candidate Section IV-C sweep (Eqs. 39-40 re-run per ``k``).

    One :func:`~repro.core.candidate.build_candidate` plus one exact
    :func:`~repro.core.best_response.solve_best_response` per target
    piece — the reference implementation the vectorized engine is
    cross-verified against.
    """
    pairs: SweepPairs = []
    for target_piece in range(1, grid.n_intervals + 1):
        candidate = build_candidate(
            effort_function=effort_function,
            grid=grid,
            params=params,
            target_piece=target_piece,
            base_pay=base_pay,
        )
        response = solve_best_response(candidate.contract, params)
        pairs.append((candidate, response))
    stats = SweepStats(
        n_candidates=grid.n_intervals,
        n_efforts=0,
        n_vectorized=0,
    )
    return pairs, stats


def require_sweeps_agree(fast: SweepPairs, legacy: SweepPairs) -> None:
    """Assert fast and legacy sweeps agree to :mod:`repro.numerics` tolerance.

    The equivalence contract behind the Theorem 4.1 certificate: both
    paths must post the same compensations and reach the same Eq. (30)
    best responses per target piece.

    Raises:
        InvariantViolation: on the first disagreement.
    """
    if len(fast) != len(legacy):
        raise InvariantViolation(
            f"sweep fast path produced {len(fast)} candidates, legacy "
            f"{len(legacy)}"
        )
    for (fast_candidate, fast_response), (ref_candidate, ref_response) in zip(
        fast, legacy
    ):
        k = ref_candidate.target_piece
        if fast_candidate.target_piece != k:
            raise InvariantViolation(
                f"sweep fast path mis-ordered candidates: got piece "
                f"{fast_candidate.target_piece}, want {k}"
            )
        if fast_candidate.clamped_pieces != ref_candidate.clamped_pieces:
            raise InvariantViolation(
                f"sweep fast path disagrees on clamped pieces for k={k}: "
                f"{fast_candidate.clamped_pieces!r} != "
                f"{ref_candidate.clamped_pieces!r}"
            )
        if fast_candidate.cases != ref_candidate.cases:
            raise InvariantViolation(
                f"sweep fast path disagrees on Lemma 4.1 cases for k={k}"
            )
        for name, fast_values, ref_values in (
            ("slopes", fast_candidate.slopes, ref_candidate.slopes),
            (
                "compensations",
                fast_candidate.contract.compensations,
                ref_candidate.contract.compensations,
            ),
        ):
            for index, (a, b) in enumerate(zip(fast_values, ref_values)):
                if not close(a, b):
                    raise InvariantViolation(
                        f"sweep fast path disagrees on {name}[{index}] for "
                        f"k={k}: {a!r} != {b!r}"
                    )
        if not close(fast_response.utility, ref_response.utility):
            raise InvariantViolation(
                f"sweep fast path disagrees on best-response utility for "
                f"k={k}: {fast_response.utility!r} != {ref_response.utility!r}"
            )
        if not close(fast_response.compensation, ref_response.compensation):
            raise InvariantViolation(
                f"sweep fast path disagrees on best-response compensation "
                f"for k={k}: {fast_response.compensation!r} != "
                f"{ref_response.compensation!r}"
            )


def sweep_candidates_with_stats(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    base_pay: float = 0.0,
) -> Tuple[SweepPairs, SweepStats]:
    """One Section IV-C candidate sweep through the vectorized engine.

    Under ``REPRO_CHECK_INVARIANTS=1`` the result is additionally
    cross-verified against a fresh legacy sweep (Lemma 4.2/4.3 checks
    included on both sides).
    """
    pairs, stats = vectorized_sweep(
        effort_function, grid, params, base_pay=base_pay
    )
    if invariants_enabled():
        for candidate, _ in pairs:
            check_candidate_invariants(candidate)
        reference, _ = legacy_sweep(
            effort_function, grid, params, base_pay=base_pay
        )
        require_sweeps_agree(pairs, reference)
    return pairs, stats


def sweep_candidates(
    effort_function: QuadraticEffort,
    grid: DiscretizationGrid,
    params: WorkerParameters,
    base_pay: float = 0.0,
) -> SweepPairs:
    """All Section IV-C candidates with their exact best responses.

    Convenience wrapper over :func:`sweep_candidates_with_stats` for
    callers that do not record sweep statistics.
    """
    pairs, _ = sweep_candidates_with_stats(
        effort_function, grid, params, base_pay=base_pay
    )
    return pairs
