"""The round-based crowdsourcing marketplace simulation.

Each round realizes one iteration of the Stackelberg game over the whole
population (Section III: "each iteration of the game represents the
completion of one task"):

1. the requester's policy posts (or re-posts) contracts;
2. every non-excluded agent best-responds with an effort using its
   *true* effort function;
3. the platform realizes noisy feedback for that effort;
4. the contract pays out on the *realized* feedback (this is the
   quality-contingent ``c^t = f(q^{t-1})`` coupling — workers are paid
   what their observed feedback earns, not what they hoped for);
5. the requester books ``sum_i w_i q_i - mu * sum_i c_i``.

Excluded subjects (the Fig. 8c baseline) neither get paid nor have
their feedback counted — they are outside the system.

One population representation, one kernel, one oracle.
:class:`MarketplaceSimulation` packs any population into a
:class:`~repro.workers.columnar.ColumnarPopulation` once, at
construction, and every round runs :func:`fast_columnar_step`:
one Eq. (30) solve per distinct (posted contract, behaviour archetype)
pair, the whole round's noise from one structured generator draw,
payments through each contract's stored pay function, and NumPy
reductions — per-subject results bit-identical to the reference loop.
:func:`legacy_step`, the per-subject Python loop over the packed
population's lazy object views, is that reference:
:func:`require_steps_agree` is the executable equivalence contract, and
under ``REPRO_CHECK_INVARIANTS=1`` every round is replayed through the
loop from the same generator state and compared bit for bit.

The RNG draw order is pinned (and regression-tested): subjects in
population row order; per subject, the feedback-noise draw comes first,
then the rating-deviation draw; zero-noise agents and excluded subjects
consume nothing.  See docs/PERFORMANCE.md.

Each round's columns go to the ledger inside the round's record, as a
:class:`~repro.simulation.ledger.RoundOutcomes` view that builds outcome
objects only when read; the invariants replay compares that same view
against the oracle.  Pair the kernel with a
:class:`~repro.simulation.streaming.StreamingLedger`, which drops the
columns after folding them in, and a 10M-subject round runs in bounded
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Set, Tuple, Union, cast

import numpy as np

from ..analysis.invariants import InvariantViolation, invariants_enabled
from ..core.contract import Contract
from ..core.utility import RequesterObjective
from ..errors import SimulationError
from ..numerics import ABS_TOL
from ..obs.trace import get_tracer
from ..serving.pool import ContractAssignment
from ..workers.base import WorkerAgent
from ..workers.columnar import ColumnarPopulation
from ..workers.population import PopulationModel
from .ledger import (
    PostedProvenance,
    RoundOutcomes,
    RoundRecord,
    SimulationLedger,
    SubjectRoundOutcome,
)
from .policies import PaymentPolicy

__all__ = [
    "ColumnarStepResult",
    "MarketplaceSimulation",
    "StepOutcomes",
    "fast_columnar_step",
    "legacy_step",
    "require_ledgers_agree",
    "require_steps_agree",
]


@dataclass(frozen=True)
class StepOutcomes:
    """What one round's population pass produced, as outcome objects.

    Attributes:
        outcomes: per-subject outcomes in ``population.subproblems``
            order.
        benefit: the realized ``sum_i w_i q_i`` over active subjects.
        total_compensation: total pay over active subjects.
    """

    outcomes: Mapping[str, SubjectRoundOutcome]
    benefit: float
    total_compensation: float


def legacy_step(
    population: PopulationModel,
    contracts: Dict[str, Contract],
    excluded_ids: Set[str],
    provenance: PostedProvenance,
    previous_feedback: Dict[str, float],
    lagged_payment: bool,
    rng: np.random.Generator,
) -> StepOutcomes:
    """The reference per-subject round loop (Section III, Eq. 1).

    One scalar pass per subject: best response, feedback realization,
    payment, utility booking.  This is the oracle the columnar kernel is
    verified against (over a packed population's lazy views); it
    consumes generator draws in the pinned order documented at module
    level.  ``provenance`` (what the policy posted) is indexed by
    population row, as the ledger's outcome view indexes it.
    """
    outcomes: Dict[str, SubjectRoundOutcome] = {}
    benefit = 0.0
    total_compensation = 0.0
    for row, subproblem in enumerate(population.subproblems):
        subject_id = subproblem.subject_id
        agent = population.agents[subject_id]
        # Utility is always booked with the reference (population)
        # weight; the policy's belief is recorded for diagnostics
        # but cannot inflate the score.
        evaluation_weight = population.weights[subject_id]
        believed = provenance.policy_weight(row)
        if subject_id in excluded_ids or subject_id not in contracts:
            outcomes[subject_id] = SubjectRoundOutcome(
                subject_id=subject_id,
                worker_type=subproblem.params.worker_type,
                effort=0.0,
                feedback=0.0,
                compensation=0.0,
                feedback_weight=evaluation_weight,
                excluded=True,
                n_members=agent.n_members,
                policy_weight=believed,
            )
            continue
        diagnostics = provenance.diagnostic(row)
        contract = contracts[subject_id]
        response = agent.respond(contract)
        realized = agent.realize_feedback(response.effort, rng=rng)
        if lagged_payment:
            # Eq. (1): this round's pay rewards last round's feedback.
            pay = contract.pay_for_feedback(
                previous_feedback.get(subject_id, 0.0)
            )
            previous_feedback[subject_id] = realized
        else:
            pay = contract.pay_for_feedback(realized)
        realized_worker_utility = (
            pay
            + agent.params.omega * realized
            - agent.params.beta * response.effort
        )
        outcome = SubjectRoundOutcome(
            subject_id=subject_id,
            worker_type=subproblem.params.worker_type,
            effort=response.effort,
            feedback=realized,
            compensation=pay,
            feedback_weight=evaluation_weight,
            excluded=False,
            n_members=agent.n_members,
            rating_deviation=agent.rating_deviation(rng=rng),
            policy_weight=believed,
            worker_utility=realized_worker_utility,
            fingerprint=(
                diagnostics.fingerprint if diagnostics is not None else None
            ),
            cache_hit=(
                diagnostics.cache_hit if diagnostics is not None else None
            ),
        )
        outcomes[subject_id] = outcome
        benefit += outcome.requester_value
        total_compensation += pay
    return StepOutcomes(
        outcomes=outcomes,
        benefit=benefit,
        total_compensation=total_compensation,
    )


@dataclass(frozen=True)
class ColumnarStepResult:
    """One columnar round's realized columns (population row order).

    The columnar twin of :class:`StepOutcomes`: per-subject results stay
    as contiguous arrays instead of outcome objects, so a 10M-subject
    round costs eight arrays, not ten million dataclasses.  Excluded
    rows hold zeros (matching :func:`legacy_step`'s excluded outcomes).

    Attributes:
        active: per-subject participation mask; ``False`` rows were
            excluded (by policy, mask, or a missing contract).
        efforts: realized best-response efforts.
        feedback: realized (noisy) feedback.
        compensation: realized pay.
        rating_deviation: realized rating deviations.
        worker_utility: realized per-subject worker utility.
        benefit: the realized ``sum_i w_i q_i`` over active subjects.
        total_compensation: total pay over active subjects.
    """

    active: np.ndarray
    efforts: np.ndarray
    feedback: np.ndarray
    compensation: np.ndarray
    rating_deviation: np.ndarray
    worker_utility: np.ndarray
    benefit: float
    total_compensation: float


def fast_columnar_step(
    population: ColumnarPopulation,
    assignment: ContractAssignment,
    excluded_mask: np.ndarray,
    previous_feedback: np.ndarray,
    lagged_payment: bool,
    rng: np.random.Generator,
) -> ColumnarStepResult:
    """The structure-of-arrays round kernel (bit-identical to the loop).

    Four stages over the population's columns, with zero per-subject
    Python objects:

    1. best responses via
       :meth:`~repro.workers.columnar.ColumnarPopulation.respond_unique`
       — one Eq. (30) solve per distinct (posted contract, behaviour
       archetype) pair.  The active rows are sorted once by that pair's
       packed integer key (a radix sort while the key fits 16 bits);
       each run of equal keys is one pair, whose result is fanned back
       out to its rows.  Pairs solved in earlier rounds come from the
       population's response cache, which it drops with its response
       codes;
    2. population noise from one structured generator draw in the
       pinned per-subject order (feedback slot, then rating slot;
       zero-noise rows consume nothing), laid out as a ``(rows, 2)``
       need mask filled in C order and realized through the workers'
       batch entry points;
    3. payments grouped by posted contract: the same sorted order holds
       each contract's rows as one contiguous slice, so one
       ``PiecewiseLinear.batch`` runs per distinct contract and no
       per-contract mask is built;
    4. benefit/compensation reduced with a NumPy cumulative sum whose
       left-to-right accumulation reproduces the legacy ``+=`` bits.

    Archetypes posted the *same* contract object share one code in
    stages 1 and 3: a designer returns shared contract objects across
    archetypes (236 design archetypes may post only 20 contracts), so
    the solves and payment groups follow the contracts, not the codes.

    Args:
        population: the columnar population store.
        assignment: archetype contract table plus per-subject codes
            (code ``-1`` means "no contract": the subject is excluded).
        excluded_mask: per-subject exclusion mask (policy + departures).
        previous_feedback: per-subject previous-round feedback column;
            mutated in place when ``lagged_payment`` is set.
        lagged_payment: pay this round on last round's feedback (Eq. 1).
        rng: the round's noise generator (pinned draw order).
    """
    codes = assignment.codes
    n_subjects = population.n_subjects
    active = ~np.asarray(excluded_mask, dtype=bool) & (codes >= 0)
    rows = np.flatnonzero(active)
    efforts = np.zeros(n_subjects)
    feedback = np.zeros(n_subjects)
    compensation = np.zeros(n_subjects)
    rating_deviation = np.zeros(n_subjects)
    worker_utility = np.zeros(n_subjects)
    if rows.size == 0:
        return ColumnarStepResult(
            active=active,
            efforts=efforts,
            feedback=feedback,
            compensation=compensation,
            rating_deviation=rating_deviation,
            worker_utility=worker_utility,
            benefit=0.0,
            total_compensation=0.0,
        )

    contracts = assignment.contracts
    first_code: Dict[int, int] = {}
    canonical = np.array(
        [
            first_code.setdefault(id(contract), code)
            for code, contract in enumerate(contracts)
        ],
        dtype=np.int64,
    )
    # One grouping per round: active rows sorted by their packed
    # (canonical contract, response archetype) key.  Each run of equal
    # keys is one best-response pair, and each contract's pairs are one
    # contiguous slice of the order.
    n_response = population.n_response_archetypes
    packed = canonical[codes[rows]] * n_response + population.response_codes[rows]
    order, starts = _group_rows(packed, len(contracts) * n_response)
    pair_keys = packed[order[starts]]
    pair_contracts = pair_keys // n_response
    pair_efforts, pair_expected = population.respond_unique(
        contracts, pair_contracts, pair_keys % n_response
    )
    pair_of = np.empty(rows.size, dtype=np.intp)
    pair_of[order] = np.repeat(
        np.arange(starts.size), np.diff(starts, append=rows.size)
    )
    best_efforts = pair_efforts[pair_of]
    expected = pair_expected[pair_of]

    # Structured noise: the scalar path asks each agent whether it
    # consumes a draw (not is_zero(noise)); the columnar predicate is
    # the exact complement of that tolerance check.  Draw slots are laid
    # out per active subject — feedback first, then rating — so filling
    # the (rows, 2) need mask in C order consumes the identical pinned
    # stream from one standard-normal block.
    scales = np.stack(
        [population.feedback_noise[rows], population.rating_noise[rows]], axis=1
    )
    needs = np.abs(scales) > ABS_TOL
    slots = np.zeros(scales.shape)
    total_draws = int(np.count_nonzero(needs))
    if total_draws:
        draws = rng.standard_normal(total_draws)
        slots[needs] = draws
    scales[~needs] = 0.0
    realized = WorkerAgent.realize_feedback_batch(
        expected, scales[:, 0], slots[:, 0]
    )
    rating_active = WorkerAgent.rating_deviation_batch(
        population.rating_bias[rows], scales[:, 1], slots[:, 1]
    )

    # Payments: one batch evaluation per distinct posted contract, over
    # its slice of the grouped order.  The pay function is elementwise
    # per subject, so the grouping cannot perturb bits relative to the
    # per-subject loop.
    if lagged_payment:
        basis = previous_feedback[rows]
    else:
        basis = realized
    first_pairs = np.flatnonzero(np.diff(pair_contracts, prepend=-1))
    bounds = np.append(starts[first_pairs], rows.size).tolist()
    grouped_basis = basis[order]
    grouped_pay = np.empty(rows.size)
    for code, start, stop in zip(
        pair_contracts[first_pairs].tolist(), bounds[:-1], bounds[1:]
    ):
        # One stored pay function per distinct posted contract, not per
        # subject: the loop runs over contracts.
        pay_function = contracts[code].as_feedback_function()  # noqa: REPRO010
        grouped_pay[start:stop] = pay_function.batch(grouped_basis[start:stop])
    pay = np.empty(rows.size)
    pay[order] = grouped_pay
    if lagged_payment:
        previous_feedback[rows] = realized

    utilities = (
        pay
        + population.act_omega[rows] * realized
        - population.beta[rows] * best_efforts
    )
    # cumsum accumulates strictly left to right, matching the bits of
    # the legacy loop's sequential `+=` (np.sum pairwise-splits).
    benefit = float(np.cumsum(population.eval_weight[rows] * realized)[-1])
    total_compensation = float(np.cumsum(pay)[-1])

    efforts[rows] = best_efforts
    feedback[rows] = realized
    compensation[rows] = pay
    rating_deviation[rows] = rating_active
    worker_utility[rows] = utilities
    return ColumnarStepResult(
        active=active,
        efforts=efforts,
        feedback=feedback,
        compensation=compensation,
        rating_deviation=rating_deviation,
        worker_utility=worker_utility,
        benefit=benefit,
        total_compensation=total_compensation,
    )


def _group_rows(keys: np.ndarray, bound: int) -> Tuple[np.ndarray, np.ndarray]:
    """Stable order of ``keys`` (each in ``[0, bound)``) and where each
    run of equal keys starts in it.

    Keys that fit 16 bits sort as ``uint16``, for which NumPy's stable
    argsort is a radix sort; wider keys take its comparison sort.
    """
    sortable = keys.astype(np.uint16) if bound <= 1 << 16 else keys
    order = np.argsort(sortable, kind="stable")
    ordered = sortable[order]
    boundary = np.empty(ordered.size, dtype=bool)
    boundary[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
    return order, np.flatnonzero(boundary)


def require_steps_agree(fast: StepOutcomes, legacy: StepOutcomes) -> None:
    """Assert the columnar kernel reproduced the legacy loop bit for bit.

    Unlike the sweep contract (stated at :mod:`repro.numerics`
    tolerance), the round kernels share every arithmetic expression and
    the exact draw stream, so the contract is *equality*: tolerance
    here would hide a reordered reduction or a skewed noise stream.

    Raises:
        InvariantViolation: on the first disagreement.
    """
    if set(fast.outcomes) != set(legacy.outcomes):
        raise InvariantViolation(
            "fast round kernel covered different subjects than the legacy "
            f"loop: {sorted(fast.outcomes)!r} != {sorted(legacy.outcomes)!r}"
        )
    for subject_id, reference in legacy.outcomes.items():
        produced = fast.outcomes[subject_id]
        if produced != reference:
            raise InvariantViolation(
                "fast round kernel disagrees with the legacy loop on "
                f"subject {subject_id!r}: {produced!r} != {reference!r}"
            )
    if (
        fast.benefit != legacy.benefit  # noqa: REPRO001 - bit-identity contract
        or fast.total_compensation != legacy.total_compensation  # noqa: REPRO001
    ):
        raise InvariantViolation(
            "fast round kernel disagrees on the round reductions: "
            f"benefit {fast.benefit!r} != {legacy.benefit!r} or pay "
            f"{fast.total_compensation!r} != {legacy.total_compensation!r}"
        )


RoundsLike = Union[SimulationLedger, Sequence[RoundRecord]]


def require_ledgers_agree(fast: RoundsLike, legacy: RoundsLike) -> None:
    """Assert two runs recorded bit-identical rounds.

    Each side is a ledger or its records in round order (the oracle's
    ``legacy_step`` rounds need no ledger).  Compares everything the
    marketplace *realized* — per-subject outcomes, benefit,
    compensation, utility — and ignores the timing/provenance fields
    (``design_ms``, ``span_id``, ``n_dirty``, ``reuse_rate``), which
    legitimately differ between engine routings.

    Raises:
        InvariantViolation: on the first disagreement.
    """
    fast_records = fast.records if isinstance(fast, SimulationLedger) else fast
    legacy_records = (
        legacy.records if isinstance(legacy, SimulationLedger) else legacy
    )
    if len(fast_records) != len(legacy_records):
        raise InvariantViolation(
            f"ledgers cover different horizons: {len(fast_records)} rounds "
            f"!= {len(legacy_records)} rounds"
        )
    for produced, reference in zip(fast_records, legacy_records):
        try:
            require_steps_agree(
                StepOutcomes(
                    outcomes=produced.outcomes,
                    benefit=produced.benefit,
                    total_compensation=produced.total_compensation,
                ),
                StepOutcomes(
                    outcomes=reference.outcomes,
                    benefit=reference.benefit,
                    total_compensation=reference.total_compensation,
                ),
            )
        except InvariantViolation as error:
            raise InvariantViolation(
                f"round {reference.round_index}: {error}"
            ) from None
        if produced.utility != reference.utility:  # noqa: REPRO001 - bit-identity
            raise InvariantViolation(
                f"round {reference.round_index}: utility "
                f"{produced.utility!r} != {reference.utility!r}"
            )


class MarketplaceSimulation:
    """Drives a population through repeated task rounds.

    Args:
        population: the assembled worker population.  An object
            :class:`PopulationModel` is packed into a
            :class:`~repro.workers.columnar.ColumnarPopulation` once,
            here; later edits to the object model are not seen.
        objective: the requester's parameters (``mu``, Eq. 5 weights).
        policy: the payment policy under test.
        seed: seed for the feedback-noise generator.
        redesign_every: re-run the policy every this many rounds; 1
            re-designs each round (fully dynamic), larger values model a
            requester that amortizes design cost.
        lagged_payment: pay round ``t`` on round ``t-1``'s realized
            feedback — the paper's literal ``c^t = f(q^{t-1})`` timing
            (Eq. 1).  Round 0 pays the contract's zero-feedback value.
            The default (False) settles each round on its own feedback,
            which has the same steady state and simpler accounting.
        ledger: the round sink; default a fresh
            :class:`SimulationLedger`, whose records keep each round's
            per-subject columns.  Pass a
            :class:`~repro.simulation.streaming.StreamingLedger` to run
            huge populations in bounded memory — it folds each round's
            columns into its views and drops them.
    """

    def __init__(
        self,
        population: Union[PopulationModel, ColumnarPopulation],
        objective: RequesterObjective,
        policy: PaymentPolicy,
        seed: int = 0,
        redesign_every: int = 1,
        lagged_payment: bool = False,
        ledger: Optional[SimulationLedger] = None,
    ) -> None:
        if redesign_every < 1:
            raise SimulationError(
                f"redesign_every must be >= 1, got {redesign_every!r}"
            )
        if not isinstance(population, ColumnarPopulation):
            population = ColumnarPopulation.from_population(population)
        self.population = population
        self.objective = objective
        self.policy = policy
        self.redesign_every = redesign_every
        self.lagged_payment = lagged_payment
        self._rng = np.random.default_rng(seed)
        self.ledger = ledger if ledger is not None else SimulationLedger()
        self._assignment: Optional[ContractAssignment] = None
        self._provenance: Optional[PostedProvenance] = None
        self._policy_excluded = np.zeros(population.n_subjects, dtype=bool)
        # Subjects that have left the marketplace for good (set by
        # retention-aware subclasses; the base engine never adds here).
        self._departed = np.zeros(population.n_subjects, dtype=bool)
        self._previous_feedback = np.zeros(population.n_subjects)
        self._last_result: Optional[ColumnarStepResult] = None

    def run(self, n_rounds: int) -> SimulationLedger:
        """Simulate ``n_rounds`` task rounds and return the ledger."""
        if n_rounds < 1:
            raise SimulationError(f"n_rounds must be >= 1, got {n_rounds!r}")
        for _ in range(n_rounds):
            self.step()
        return self.ledger

    def step(self) -> RoundRecord:
        """Simulate one round and return its record as the ledger keeps
        it (a :class:`~repro.simulation.streaming.StreamingLedger`
        keeps no per-subject outcomes)."""
        tracer = get_tracer()
        round_index = self.ledger.n_rounds
        with tracer.span("simulation.round", round_index=round_index) as span:
            record, result = self._step_traced(round_index, tracer, span)
        record = self.ledger.append(record)
        self._last_result = result
        self.policy.observe(result)
        return record

    def _step_traced(
        self, round_index, tracer, span
    ) -> Tuple[RoundRecord, ColumnarStepResult]:
        """One round's work, run inside the ``simulation.round`` span."""
        population = self.population
        # Strategic rows switch behaviour before the requester
        # re-designs, so this round's contracts face this round's
        # behaviour.
        population.behaviour_at(round_index)
        design_ms: Optional[float] = None
        stats = None
        if self._assignment is None or round_index % self.redesign_every == 0:
            design_start = tracer.clock()
            self._assignment = self.policy.contracts_columnar(population)
            self._policy_excluded = self.policy.excluded_mask(population)
            design_ms = (tracer.clock() - design_start) * 1e3
            self._provenance = PostedProvenance(
                codes=self._assignment.codes,
                diagnostics=self.policy.solve_diagnostics(),
                policy_weights=self.policy.posted_weights(),
            )
            stats = self.policy.redesign_stats()
            if stats is not None:
                span.set("n_dirty", stats.n_dirty)
                span.set("reuse_rate", stats.reuse_rate)
        assignment = self._assignment
        provenance = self._provenance
        excluded_mask = self._policy_excluded | self._departed | population.excluded

        check = invariants_enabled()
        if check:
            # Clone the generator state and payment history so the
            # verifying replays consume the identical stream without
            # advancing the real one twice.
            replay_state = self._rng.bit_generator.state
            replay_feedback = self._previous_feedback.copy()
        result = fast_columnar_step(
            population,
            assignment,
            excluded_mask,
            self._previous_feedback,
            self.lagged_payment,
            self._rng,
        )

        outcomes = RoundOutcomes(population, result, provenance)
        if check:
            excluded_ids = {
                population.subject_id(int(row))
                for row in np.flatnonzero(excluded_mask)
            }
            reference = legacy_step(
                cast(PopulationModel, population),
                assignment.to_mapping(population),
                excluded_ids,
                provenance,
                {
                    population.subject_id(row): value
                    for row, value in enumerate(replay_feedback.tolist())
                },
                self.lagged_payment,
                _generator_at(replay_state),
            )
            require_steps_agree(
                StepOutcomes(outcomes, result.benefit, result.total_compensation),
                reference,
            )

        record = RoundRecord(
            round_index=round_index,
            outcomes=outcomes,
            benefit=result.benefit,
            total_compensation=result.total_compensation,
            utility=self.objective.params.utility(
                result.benefit, result.total_compensation
            ),
            design_ms=design_ms,
            span_id=span.span_id or None,
            n_dirty=stats.n_dirty if stats is not None else None,
            reuse_rate=stats.reuse_rate if stats is not None else None,
        )
        span.set("n_subjects", population.n_subjects)
        span.set(
            "n_excluded",
            population.n_subjects - int(np.count_nonzero(result.active)),
        )
        span.set("utility", record.utility)
        if design_ms is not None:
            span.set("design_ms", design_ms)
        return record, result


def _generator_at(state: dict) -> np.random.Generator:
    """A fresh generator positioned at a saved ``bit_generator.state``."""
    generator = np.random.default_rng(0)
    generator.bit_generator.state = state
    return generator
