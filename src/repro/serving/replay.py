"""Replay verification: cached contracts must match recomputed ones.

Round records written by the marketplace engine carry each subject's
design fingerprint and whether its contract came from the contract
cache (:class:`~repro.simulation.ledger.SubjectRoundOutcome`).  Given
the population's subproblems, a replay can therefore recompute every
design from scratch and check that

1. the recorded fingerprint matches the recomputed one (the subproblem
   the round *says* it solved is the one the population implies), and
2. the recorded compensation equals, to :mod:`repro.numerics`
   tolerance, what the freshly designed contract pays for the recorded
   feedback — i.e. a cached contract paid exactly what a fresh solve
   would have paid.

This closes the loop on the serving layer's cache invariant at the
*ledger* level: not just "cache equals solver" in-memory, but "what the
marketplace actually disbursed is reproducible".
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Optional, Sequence

from ..core.decomposition import Subproblem
from ..core.designer import ContractDesigner, DesignerConfig, DesignResult
from ..errors import ServingError
from ..numerics import close
from ..simulation.ledger import RoundRecord, SimulationLedger
from .fingerprint import subproblem_fingerprint

__all__ = ["verify_round", "verify_ledger"]


def _design_fresh(
    designer: ContractDesigner, subproblem: Subproblem
) -> DesignResult:
    return designer.design(
        effort_function=subproblem.effort_function,
        params=subproblem.params,
        feedback_weight=subproblem.feedback_weight,
        max_effort=subproblem.max_effort,
    )


def verify_round(
    record: RoundRecord,
    subproblems: Sequence[Subproblem],
    mu: float = 1.0,
    config: Optional[DesignerConfig] = None,
) -> int:
    """Verify one round's fingerprinted outcomes against fresh solves.

    Only outcomes that carry a fingerprint (i.e. were produced through
    the serving layer) and were not excluded are checked; rounds from
    the plain serial path verify vacuously.

    Args:
        record: the round record to audit.
        subproblems: the population's subproblems (the replay's ground
            truth for what each subject's design inputs were).
        mu: the requester weight the original run used.
        config: the designer configuration the original run used.

    Returns:
        The number of outcomes verified.

    Raises:
        ServingError: on a fingerprint mismatch or a payout that a fresh
            solve cannot reproduce.
    """
    _check_round_provenance(record)
    by_id: Dict[str, Subproblem] = {
        subproblem.subject_id: subproblem for subproblem in subproblems
    }
    designer = ContractDesigner(mu=mu, config=config)
    verified = 0
    for subject_id, outcome in record.outcomes.items():
        if outcome.fingerprint is None or outcome.excluded:
            continue
        subproblem = by_id.get(subject_id)
        if subproblem is None:
            raise ServingError(
                f"round {record.round_index}: subject {subject_id!r} has a "
                "fingerprinted outcome but no subproblem in the population"
            )
        expected = subproblem_fingerprint(subproblem, mu=mu, config=config)
        if outcome.fingerprint != expected:
            raise ServingError(
                f"round {record.round_index}: subject {subject_id!r} recorded "
                f"fingerprint {outcome.fingerprint} but the population "
                f"implies {expected}"
            )
        result = _design_fresh(designer, subproblem)
        recomputed_pay = result.contract.pay_for_feedback(outcome.feedback)
        if not close(recomputed_pay, outcome.compensation):
            raise ServingError(
                f"round {record.round_index}: subject {subject_id!r} was paid "
                f"{outcome.compensation!r} but a fresh solve pays "
                f"{recomputed_pay!r} for feedback {outcome.feedback!r}"
            )
        verified += 1
    return verified


def _check_round_provenance(record: RoundRecord) -> None:
    """Assert the observability fields of a round record round-trip.

    The marketplace engine stamps each round with its redesign cost
    (``design_ms``) and, when tracing was on, the ``simulation.round``
    span id (:class:`~repro.simulation.ledger.RoundRecord`).  A replay
    audits both for well-formedness: a ledger that went through any
    serialization boundary must come back with a finite non-negative
    cost and a non-empty span id — never the disabled-tracer sentinel
    ``""`` that :class:`~repro.obs.trace.NullSpan` carries.

    Raises:
        ServingError: on a malformed ``design_ms`` or ``span_id``.
    """
    if record.design_ms is not None:
        if not math.isfinite(record.design_ms) or record.design_ms < 0.0:
            raise ServingError(
                f"round {record.round_index}: design_ms must be a finite "
                f"non-negative number, got {record.design_ms!r}"
            )
    if record.span_id is not None:
        if not isinstance(record.span_id, str) or not record.span_id:
            raise ServingError(
                f"round {record.round_index}: span_id must be a non-empty "
                f"string or None, got {record.span_id!r}"
            )


def verify_ledger(
    ledger: SimulationLedger,
    subproblems: Sequence[Subproblem],
    mu: float = 1.0,
    config: Optional[DesignerConfig] = None,
    rounds: Optional[Iterable[int]] = None,
) -> int:
    """Verify every fingerprinted outcome across a whole ledger.

    Note:
        The payout check assumes same-round settlement; ledgers produced
        with ``lagged_payment=True`` pair round ``t``'s pay with round
        ``t-1``'s feedback and cannot be audited per-outcome this way.

    Args:
        ledger: the simulation ledger to audit.
        subproblems: the population's subproblems.
        mu: the requester weight the run used.
        config: the designer configuration the run used.
        rounds: optional subset of round indices to verify.

    Returns:
        Total outcomes verified across the selected rounds.

    Raises:
        ServingError: if the ledger keeps no per-subject outcomes (a
            :class:`~repro.simulation.streaming.StreamingLedger`), so
            there is nothing to replay, or on any failed round.
    """
    if not ledger.retains_outcomes:
        raise ServingError(
            f"a {type(ledger).__name__} keeps no per-subject outcomes, so "
            "its payouts cannot be replayed; record the run on a "
            "SimulationLedger to verify it"
        )
    selected = set(rounds) if rounds is not None else None
    verified = 0
    for record in ledger.records:
        if selected is not None and record.round_index not in selected:
            continue
        verified += verify_round(record, subproblems, mu=mu, config=config)
    return verified
