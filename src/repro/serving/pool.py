"""Batched, cached solving of the decomposed design subproblems.

Section IV-B makes the bilevel program separable: one independent
subproblem per non-collusive worker and per collusive community.  The
:class:`SolverPool` exploits that by **dedup by fingerprint** — workers
sharing a class-level fit, the same parameters and the same Eq. (5)
weight are the *same* subproblem (:mod:`repro.serving.fingerprint`);
each unique fingerprint is solved once per batch and the result fanned
out to every requesting subject.  This is the dominant win on real
populations, where thousands of workers collapse to a handful of
archetypes, and it costs nothing on fully heterogeneous populations.
Misses are solved in-process; the cluster router
(:mod:`repro.serving.cluster`) sends its pool's misses to shard
processes, the one tier that spends more processes on solving.

An optional :class:`~repro.serving.cache.ContractCache` carries solved
designs across batches (i.e. across marketplace rounds); hits are
re-verified against fresh solves under ``REPRO_CHECK_INVARIANTS=1``.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.invariants import InvariantViolation, invariants_enabled
from ..core.contract import Contract
from ..core.decomposition import Subproblem, SubproblemSolution
from ..core.designer import ContractDesigner, DesignerConfig, DesignResult
from ..errors import ServingError
from ..numerics import close
from ..obs.trace import get_tracer
from ..workers.columnar import changed_design_rows
from .cache import ContractCache, maybe_verify_cached
from .fingerprint import subproblem_fingerprint
from .stats import ServingStats

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a cycle)
    from ..workers.columnar import ColumnarPopulation

__all__ = [
    "ColumnarDeltaState",
    "ContractAssignment",
    "RedesignStats",
    "SolveDiagnostics",
    "SolverPool",
    "require_redesigns_agree",
    "solve_in_order",
]

#: Signature of the fresh-solve callback a :class:`ColumnarDeltaState`
#: falls back on for its dirty set: subproblems in, per-subject
#: solutions plus (possibly empty) serving diagnostics out.
SolveFn = Callable[
    [Sequence[Subproblem]],
    Tuple[Dict[str, SubproblemSolution], Dict[str, "SolveDiagnostics"]],
]


@dataclass(frozen=True)
class SolveDiagnostics:
    """How one subject's design was obtained (ledger provenance).

    Attributes:
        fingerprint: the subproblem's design fingerprint.
        cache_hit: whether the design came from the contract cache
            rather than a fresh solve in this batch.
    """

    fingerprint: str
    cache_hit: bool


@dataclass(frozen=True)
class RedesignStats:
    """Dirty-set accounting of one delta-aware redesign epoch.

    Attributes:
        n_subjects: subjects in the redesign request.
        n_dirty: subjects whose design inputs changed since the previous
            epoch and were therefore re-solved.  Equals ``n_subjects``
            for a full (non-delta) redesign and for the first epoch.
    """

    n_subjects: int
    n_dirty: int

    def __post_init__(self) -> None:
        if self.n_subjects < 0:
            raise ServingError(
                f"n_subjects must be >= 0, got {self.n_subjects!r}"
            )
        if not 0 <= self.n_dirty <= self.n_subjects:
            raise ServingError(
                f"n_dirty must lie in [0, {self.n_subjects}], "
                f"got {self.n_dirty!r}"
            )

    @property
    def reuse_rate(self) -> float:
        """Fraction of subjects whose previous design was reused."""
        if self.n_subjects == 0:
            return 1.0
        return 1.0 - self.n_dirty / self.n_subjects


def require_redesigns_agree(
    reused: Mapping[str, SubproblemSolution],
    reference: Mapping[str, SubproblemSolution],
) -> None:
    """Assert delta-reused designs match freshly solved ones.

    The dirty-set detector's correctness contract: every solution it
    chose *not* to re-solve must equal what a full re-solve would have
    produced (same posted compensations, same target piece, same best
    response).

    Raises:
        InvariantViolation: on the first disagreement.
    """
    for subject_id, kept in reused.items():
        fresh = reference.get(subject_id)
        if fresh is None:
            raise InvariantViolation(
                f"delta redesign reused a design for {subject_id!r} that a "
                "full redesign does not produce"
            )
        if kept.result.k_opt != fresh.result.k_opt:
            raise InvariantViolation(
                f"delta redesign reused a stale design for {subject_id!r}: "
                f"k_opt {kept.result.k_opt!r} != {fresh.result.k_opt!r}"
            )
        kept_pay = kept.result.contract.compensations
        fresh_pay = fresh.result.contract.compensations
        if len(kept_pay) != len(fresh_pay) or any(
            not close(a, b) for a, b in zip(kept_pay, fresh_pay)
        ):
            raise InvariantViolation(
                f"delta redesign reused a stale contract for {subject_id!r}: "
                f"compensations {kept_pay!r} != {fresh_pay!r}"
            )
        if not close(kept.result.response.effort, fresh.result.response.effort):
            raise InvariantViolation(
                f"delta redesign reused a stale best response for "
                f"{subject_id!r}: effort {kept.result.response.effort!r} != "
                f"{fresh.result.response.effort!r}"
            )


@dataclass(frozen=True)
class ContractAssignment:
    """Posted contracts in columnar form: a table plus per-subject codes.

    The columnar analogue of the engine's ``{subject_id: Contract}``
    mapping: ``contracts`` holds one object per design archetype and
    ``codes[i]`` indexes a subject's contract (``-1`` = no contract
    posted, i.e. excluded by the policy).

    Attributes:
        contracts: the archetype contract table.
        codes: per-subject index into ``contracts`` (``int64``; ``-1``
            for subjects without a posted contract).
    """

    contracts: Tuple[Contract, ...]
    codes: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        codes = np.ascontiguousarray(np.asarray(self.codes, dtype=np.int64))
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)
        if codes.ndim != 1:
            raise ServingError(
                f"codes must be one-dimensional, got shape {codes.shape!r}"
            )
        if codes.size and (
            codes.min() < -1 or codes.max() >= len(self.contracts)
        ):
            raise ServingError(
                "codes must index into contracts (or be -1); got range "
                f"[{int(codes.min())}, {int(codes.max())}] for "
                f"{len(self.contracts)} contracts"
            )

    @property
    def n_subjects(self) -> int:
        """Number of subjects the assignment covers."""
        return int(self.codes.shape[0])

    def to_mapping(self, population: "ColumnarPopulation") -> Dict[str, Contract]:
        """Materialize the legacy per-subject contract dict (O(n))."""
        contracts = self.contracts
        return {
            population.subject_id(index): contracts[code]
            for index, code in enumerate(self.codes.tolist())
            if code >= 0
        }


class ColumnarDeltaState:
    """Delta-aware redesign over a columnar population.

    Diffs the **design columns** across epochs: a subject is clean iff
    its design key equals its previous-epoch key by value (``-0.0 ==
    +0.0``; a missing effort cap equals a missing one), exactly as
    comparing the two packed design matrices row by row would say.  The
    state keeps references to the frozen columns it saw last and skips
    any column the population still holds (columns are swapped whole),
    so a steady epoch compares only the columns that moved and never
    packs the whole matrix.  Solutions are stored per *row value* (the
    representative's packed key row, ``row.tobytes()``) for the
    previous epoch's archetypes only, so a subject that moves onto an
    archetype the previous epoch held reuses that design without a
    fresh solve, and the state stays the size of one epoch however long
    the run.

    Under ``REPRO_CHECK_INVARIANTS=1`` every epoch with reuse re-solves
    the reused archetype representatives fresh and cross-verifies via
    :func:`require_redesigns_agree`.

    Attributes:
        last_stats: dirty-set accounting of the latest epoch.
        last_diagnostics: serving provenance per archetype of the latest
            epoch, aligned with the assignment's contract table
            (``None`` where the solve callback reported none); reused
            archetypes report their stored fingerprint as a cache hit.
    """

    def __init__(self) -> None:
        self._columns: Optional[Tuple[np.ndarray, ...]] = None
        self._solutions: Dict[bytes, SubproblemSolution] = {}
        self._fingerprints: Dict[bytes, str] = {}
        self._epoch = 0
        self.last_stats: Optional[RedesignStats] = None
        self.last_diagnostics: Tuple[Optional[SolveDiagnostics], ...] = ()

    @property
    def epoch(self) -> int:
        """How many redesign epochs this state has absorbed."""
        return self._epoch

    def resolve(
        self,
        population: "ColumnarPopulation",
        solve: SolveFn,
    ) -> Tuple[ContractAssignment, RedesignStats]:
        """Solve one redesign epoch, reusing stored archetype designs.

        Args:
            population: the columnar population to design for.
            solve: fresh-solve callback (archetype representative
                subproblems in, per-subject-id solutions out).

        Returns:
            ``(assignment, stats)`` — the posted contract table plus
            dirty-set accounting, where ``n_dirty`` counts *subjects*
            whose design row required a fresh archetype solve this
            epoch (0 on a repeat epoch over a static population).
        """
        columns = population.design_columns()
        codes = population.archetype_codes
        n_subjects = population.n_subjects
        reps = population.archetype_subproblems()
        keys = [
            row.tobytes()
            for row in population.design_rows(population.archetype_representatives)
        ]
        # This epoch's designs and fingerprints; they replace the
        # previous epoch's wholesale, which bounds the state.
        solutions: Dict[bytes, SubproblemSolution] = {}
        fingerprints: Dict[bytes, str] = {}
        diagnostics: List[Optional[SolveDiagnostics]] = [None] * len(keys)
        solved_slots: List[int] = []
        reused_slots: List[int] = []
        for slot, key in enumerate(keys):
            stored = self._solutions.get(key)
            if stored is None:
                solved_slots.append(slot)
                continue
            reused_slots.append(slot)
            solutions[key] = stored
            fingerprint = self._fingerprints.get(key)
            if fingerprint is not None:
                fingerprints[key] = fingerprint
                diagnostics[slot] = SolveDiagnostics(
                    fingerprint=fingerprint, cache_hit=True
                )
        if solved_slots:
            fresh, fresh_diagnostics = solve([reps[slot] for slot in solved_slots])
            for slot in solved_slots:
                subject_id = reps[slot].subject_id
                solution = fresh.get(subject_id)
                if solution is None:
                    raise ServingError(
                        f"fresh solve returned no solution for archetype "
                        f"representative {subject_id!r}"
                    )
                solutions[keys[slot]] = solution
                diagnostic = fresh_diagnostics.get(subject_id)
                if diagnostic is not None:
                    fingerprints[keys[slot]] = diagnostic.fingerprint
                    diagnostics[slot] = diagnostic

        if reused_slots and invariants_enabled():
            reference, _ = solve([reps[slot] for slot in reused_slots])
            require_redesigns_agree(
                {
                    reps[slot].subject_id: solutions[keys[slot]]
                    for slot in reused_slots
                },
                reference,
            )

        assignment = ContractAssignment(
            contracts=tuple(solutions[key].result.contract for key in keys),
            codes=codes,
        )
        # A subject is dirty iff its row changed *and* that change
        # required a fresh archetype solve (moving onto an archetype the
        # previous epoch held is a reuse).
        if solved_slots:
            freshly_solved = np.zeros(len(reps), dtype=bool)
            freshly_solved[solved_slots] = True
            dirty_rows = changed_design_rows(self._columns, columns)
            n_dirty = int(np.count_nonzero(dirty_rows & freshly_solved[codes]))
        else:
            n_dirty = 0
        stats = RedesignStats(n_subjects=n_subjects, n_dirty=n_dirty)
        self.last_stats = stats
        self.last_diagnostics = tuple(diagnostics)
        self._columns = columns
        self._solutions = solutions
        self._fingerprints = fingerprints
        self._epoch += 1
        return assignment, stats


def solve_in_order(
    subproblems: Sequence[Subproblem], mu: float, config: Optional[DesignerConfig]
) -> List[DesignResult]:
    """Solve subproblems in order with one shared designer.

    The designer's candidate cache is shared across the batch, so
    subproblems with the same psi and effort cap share one sweep.
    """
    if not subproblems:
        return []
    designer = ContractDesigner(mu=mu, config=config)
    return [
        designer.design(
            effort_function=subproblem.effort_function,
            params=subproblem.params,
            feedback_weight=subproblem.feedback_weight,
            max_effort=subproblem.max_effort,
        )
        for subproblem in subproblems
    ]


class _InFlight:
    """A fingerprint one batch is solving; batches that miss it meanwhile
    wait for the result instead of solving it again."""

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result: Optional[DesignResult] = None


class SolverPool:
    """Batched, cached, in-process subproblem solver.

    Concurrent batches share the cache and solve each fingerprint once:
    a batch that misses a fingerprint another batch is already solving
    waits for that solve and books the row as a cache hit.  If that
    solve raises, the waiting batches claim the fingerprint anew, so
    one of them solves it and the others wait again; every batch
    solves its own claims before it waits, so none waits forever.

    Args:
        mu: the requester's compensation weight.
        config: designer configuration shared by all solves.
        cache: optional cross-batch contract cache.
        stats: optional serving counters to record batches into.
    """

    def __init__(
        self,
        mu: float = 1.0,
        config: Optional[DesignerConfig] = None,
        cache: Optional[ContractCache] = None,
        stats: Optional[ServingStats] = None,
    ) -> None:
        self.mu = mu
        self.config = config
        self.cache = cache
        self.stats = stats
        # Fingerprints some batch is solving right now.  The lock covers
        # cache lookups and claims, and a solve's cache insert with its
        # release, so no two batches claim one fingerprint.
        self._lock = threading.Lock()
        self._inflight: Dict[str, _InFlight] = {}

    # -- solving ------------------------------------------------------

    def solve(self, subproblems: Sequence[Subproblem]) -> Dict[str, SubproblemSolution]:
        """Solve every subproblem; results keyed by subject id, input order."""
        solutions, _ = self.solve_with_diagnostics(subproblems)
        return solutions

    def solve_with_diagnostics(
        self, subproblems: Sequence[Subproblem]
    ) -> Tuple[Dict[str, SubproblemSolution], Dict[str, SolveDiagnostics]]:
        """Solve every subproblem and report per-subject provenance.

        Returns:
            ``(solutions, diagnostics)`` — both keyed by subject id in
            the input order.
        """
        seen = set()
        for subproblem in subproblems:
            if subproblem.subject_id in seen:
                raise ServingError(
                    f"duplicate subject_id {subproblem.subject_id!r}"
                )
            seen.add(subproblem.subject_id)

        fingerprints = self.fingerprints(subproblems)
        designs, cache_hits = self.solve_designs(subproblems, fingerprints)

        solutions: Dict[str, SubproblemSolution] = {}
        diagnostics: Dict[str, SolveDiagnostics] = {}
        for subproblem, fingerprint, design, hit in zip(
            subproblems, fingerprints, designs, cache_hits
        ):
            solutions[subproblem.subject_id] = SubproblemSolution(
                subproblem=subproblem, result=design
            )
            diagnostics[subproblem.subject_id] = SolveDiagnostics(
                fingerprint=fingerprint, cache_hit=hit
            )
        return solutions, diagnostics

    def fingerprints(self, subproblems: Sequence[Subproblem]) -> List[str]:
        """Design fingerprints of the subproblems under this pool's config."""
        return [
            subproblem_fingerprint(subproblem, mu=self.mu, config=self.config)
            for subproblem in subproblems
        ]

    def solve_designs(
        self,
        subproblems: Sequence[Subproblem],
        fingerprints: Optional[Sequence[str]] = None,
    ) -> Tuple[List[DesignResult], List[bool]]:
        """Designs aligned with the input order, plus cache-hit flags.

        This is the serving core: requests may repeat fingerprints (and
        even subject ids — callers batch arbitrary request streams);
        each unique fingerprint is resolved once via cache lookup or a
        fresh solve, then fanned back out.

        Returns:
            ``(designs, cache_hits)``, both parallel to ``subproblems``.
        """
        tracer = get_tracer()
        if not tracer.enabled:
            return self._solve_designs(subproblems, fingerprints)
        with tracer.span(
            "serving.solve_batch", n_requests=len(subproblems)
        ) as span:
            if fingerprints is None:
                fingerprints = self.fingerprints(subproblems)
            designs, cache_hits = self._solve_designs(subproblems, fingerprints)
            span.set("n_unique", len(set(fingerprints)))
            span.set("n_hits", sum(1 for hit in cache_hits if hit))
            return designs, cache_hits

    def _solve_designs(
        self,
        subproblems: Sequence[Subproblem],
        fingerprints: Optional[Sequence[str]] = None,
    ) -> Tuple[List[DesignResult], List[bool]]:
        """The untraced batch-solve core (see :meth:`solve_designs`)."""
        started = self.stats.now() if self.stats is not None else 0.0
        if fingerprints is None:
            fingerprints = self.fingerprints(subproblems)
        if len(fingerprints) != len(subproblems):
            raise ServingError(
                f"got {len(fingerprints)} fingerprints for "
                f"{len(subproblems)} subproblems"
            )

        # The fingerprint is the solve key: each distinct one is looked
        # up or solved once (from its first request) and fanned out.
        groups: Dict[str, int] = {}
        for index, fingerprint in enumerate(fingerprints):
            groups.setdefault(fingerprint, index)

        results: Dict[str, DesignResult] = {}
        hit_keys: List[str] = []
        unresolved = list(groups)
        while unresolved:
            misses: List[Tuple[str, Subproblem]] = []
            waits: List[Tuple[str, _InFlight]] = []
            with self._lock:
                for key in unresolved:
                    cached = (
                        self.cache.get_design(key)
                        if self.cache is not None
                        else None
                    )
                    if cached is not None:
                        results[key] = cached
                        hit_keys.append(key)
                    elif key in self._inflight:
                        waits.append((key, self._inflight[key]))
                    else:
                        self._inflight[key] = _InFlight()
                        misses.append((key, subproblems[groups[key]]))
            # Solve (and release) this batch's claims before waiting on
            # anyone else's, so no two batches wait on each other.
            results.update(self._solve_claimed(misses))
            unresolved = []
            for key, pending in waits:
                pending.done.wait()
                if pending.result is None:
                    # The owning batch's solve raised: claim it anew.
                    unresolved.append(key)
                else:
                    results[key] = pending.result
                    hit_keys.append(key)

        for key in hit_keys:
            representative = subproblems[groups[key]]
            maybe_verify_cached(
                key,
                results[key],
                lambda subproblem=representative: solve_in_order(
                    (subproblem,), self.mu, self.config
                )[0],
                stats=self.cache.stats if self.cache is not None else None,
            )

        hit_set = set(hit_keys)
        designs = [results[fingerprint] for fingerprint in fingerprints]
        cache_hits = [fingerprint in hit_set for fingerprint in fingerprints]

        if self.stats is not None:
            self.stats.record_batch(
                n_requests=len(subproblems),
                n_unique=len(groups),
                n_cache_hits=len(hit_keys),
                duration=self.stats.now() - started,
            )
        return designs, cache_hits

    def _solve_claimed(
        self, misses: List[Tuple[str, Subproblem]]
    ) -> Dict[str, DesignResult]:
        """Solve the misses this batch claimed and release their claims.

        Each result goes into the cache before its claim is released,
        under the lock, so a batch that finds no claim finds the
        result.  Claims are released on failure too, and every waiter
        is woken either way.
        """
        if not misses:
            return {}
        fresh: List[DesignResult] = []
        try:
            fresh = self._solve_misses(
                [subproblem for _, subproblem in misses],
                [key for key, _ in misses],
            )
        finally:
            solved = dict(zip((key for key, _ in misses), fresh))
            with self._lock:
                released = [
                    (self._inflight.pop(key), solved.get(key)) for key, _ in misses
                ]
                if self.cache is not None:
                    for key, result in solved.items():
                        self.cache.put_design(key, result)
            for pending, result in released:
                pending.result = result
                pending.done.set()
        return solved

    def _solve_misses(
        self, subproblems: List[Subproblem], fingerprints: List[str]
    ) -> List[DesignResult]:
        """Solve one batch's distinct cache misses, in order, in-process."""
        return solve_in_order(subproblems, self.mu, self.config)
