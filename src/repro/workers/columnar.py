"""Columnar (structure-of-arrays) population state.

A :class:`~repro.workers.population.PopulationModel` is a list of
per-subject Python objects; at 10M subjects the round engine spends its
time (and memory) traversing objects, not computing.  This module holds
the same population as contiguous NumPy columns — psi coefficients,
utility parameters, evaluation weights, noise scales, malice scores,
worker-type codes, community ids and exclusion masks — so a round is
pure array passes (see ``fast_columnar_step`` in
:mod:`repro.simulation.engine`).

Two code systems make the hot path object-free:

* **design archetypes** — the distinct design keys (fitted psi,
  params, weight, effort cap, membership size: the
  :data:`DESIGN_KEY_COLUMNS`), numbered in value-lexicographic order.
  Contract design runs once per archetype; ``archetype_codes`` fans
  contracts back out to subjects.  This is the column-slice analogue of
  the serving fingerprint (which hashes exactly these fields,
  membership aside — see :mod:`repro.serving.fingerprint`).  The
  population keeps the sorted table of archetype keys, so
  :meth:`ColumnarPopulation.update_design_columns` re-derives codes for
  the rows whose key changed only: it packs those rows' keys from the
  columns, dedupes them, merges them into the key table, drops
  archetypes no row holds any more and remaps every code with one
  gather.  The first derivation is the same routine with every row
  changed and an empty table.  The delta redesign diffs the same
  columns (:func:`changed_design_rows`), so the round path never packs
  the whole ``(n, 9)`` matrix: :meth:`ColumnarPopulation.design_matrix`
  is a lazily built view, and :func:`unique_rows` over it is the
  oracle — under ``REPRO_CHECK_INVARIANTS=1``
  :func:`require_archetypes_agree` checks every derivation against it.
* **response archetypes** — the distinct behavioural rows (true psi,
  params).  The round kernel groups its rows once by (contract,
  response archetype) pair, and
  :meth:`ColumnarPopulation.respond_unique` solves each pair's best
  response once; the population keeps them across rounds in its
  response cache.  The cache is dropped with the response codes: when
  :meth:`~ColumnarPopulation.behaviour_at` flips a row, or a design
  update changes ``beta`` (or ``omega`` on a population without an
  ``act_omega`` column of its own).

The legacy object API stays available through lazy views:
``columnar.subproblems``, ``columnar.agents``, ``columnar.weights`` and
``columnar.malice`` materialize on first access (sharing one psi/params
object per archetype), so :func:`~repro.simulation.engine.legacy_step`
runs unmodified on a columnar store — which is how the bit-identity
contract cross-verifies the columnar kernel.

Strategic workers (:class:`~repro.workers.strategic.CamouflagedWorker`,
:class:`~repro.workers.strategic.IntermittentWorker`) behave as a pure
function of the round index, so they pack too: their rows carry
:class:`PhaseColumns`, and one vectorized
:meth:`ColumnarPopulation.behaviour_at` sets the behaviour-side
``act_omega``, ``act_type_codes`` and ``rating_bias`` columns for a
round, exactly as ``on_round`` switches the agent objects.  The design
side never moves with behaviour: the requester designs on what it
believes, the workers respond with what they are.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..analysis.invariants import InvariantViolation, invariants_enabled
from ..core.best_response import solve_best_response
from ..core.contract import Contract
from ..core.decomposition import Subproblem
from ..core.effort import QuadraticEffort
from ..errors import ModelError
from ..types import WorkerParameters, WorkerType
from .base import WorkerAgent
from .collusive import CollusiveCommunity
from .honest import HonestWorker
from .malicious import MaliciousWorker
from .population import ClassEffortFunctions, PopulationModel
from .strategic import CamouflagedWorker, IntermittentWorker

__all__ = [
    "DESIGN_KEY_COLUMNS",
    "WORKER_TYPE_ORDER",
    "WORKER_TYPE_CODES",
    "ColumnarPopulation",
    "ColumnarResponseCache",
    "PhaseColumns",
    "changed_design_rows",
    "require_archetypes_agree",
    "synthetic_columnar",
]

#: Integer encoding of :class:`~repro.types.WorkerType` used by the
#: ``type_codes`` column (enum declaration order; stable by definition).
WORKER_TYPE_ORDER: Tuple[WorkerType, ...] = tuple(WorkerType)
WORKER_TYPE_CODES: Dict[WorkerType, int] = {
    worker_type: code for code, worker_type in enumerate(WORKER_TYPE_ORDER)
}

#: Cross-round cache of deduplicated best responses, keyed by
#: (contract code, response-archetype code) and validated by contract
#: identity — a redesign that swaps the posted contract object re-solves.
#: Each population owns one and drops it whenever it drops its response
#: codes, so a key never outlives the numbering it was made under.
ColumnarResponseCache = Dict[Tuple[int, int], Tuple[Contract, float, float]]

_HONEST_CODE = WORKER_TYPE_CODES[WorkerType.HONEST]
_NONCOLLUSIVE_CODE = WORKER_TYPE_CODES[WorkerType.NONCOLLUSIVE_MALICIOUS]

#: ``max_effort`` is optional; ``None`` is encoded as this sentinel in
#: the packed design matrix (valid caps are strictly positive) so that
#: ``np.unique`` groups capless rows together (NaN would never compare
#: equal and explode the archetype count).
_NO_MAX_EFFORT = -1.0

#: The columns of the design key, in packed design-matrix order.
DESIGN_KEY_COLUMNS: Tuple[str, ...] = (
    "r2", "r1", "r0", "beta", "omega", "type_codes", "design_weight",
    "max_effort", "n_members",
)

#: Agent classes whose behaviour is a pure function of frozen columns.
_COLUMNAR_AGENT_TYPES = (HonestWorker, MaliciousWorker, CollusiveCommunity)

#: Agent classes whose behaviour is a pure function of the round index.
_PHASE_AGENT_TYPES = (CamouflagedWorker, IntermittentWorker)


@dataclass(frozen=True)
class PhaseColumns:
    """Round-dependent behaviour of the strategic rows of a population.

    Row ``rows[i]`` attacks in round ``r`` iff its position in the cycle
    — ``r % cycle[i]``, or ``r`` itself when ``cycle[i] == 0`` — is at
    least ``start[i]``.  That is :class:`CamouflagedWorker` with
    ``start = attack_round, cycle = 0`` and :class:`IntermittentWorker`
    with ``start = honest_rounds, cycle = honest_rounds +
    attack_rounds``.  Attacking rows act as non-collusive malicious
    workers with ``omega[i]`` and ``bias[i]``; the others act honestly
    (``omega`` and bias 0).

    Attributes:
        rows: population row of each strategic subject (``int64``).
        start: first attacking position within a cycle.
        cycle: cycle length, 0 for a one-way flip.
        omega: influence weight while attacking.
        bias: rating bias while attacking.
    """

    rows: np.ndarray
    start: np.ndarray
    cycle: np.ndarray
    omega: np.ndarray
    bias: np.ndarray

    def attacking(self, round_index: int) -> np.ndarray:
        """Per strategic row: whether it attacks in ``round_index``."""
        position = np.where(
            self.cycle > 0,
            round_index % np.maximum(self.cycle, 1),
            round_index,
        )
        return position >= self.start


def unique_rows(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Row-wise unique grouping, ordered exactly as ``np.unique(axis=0)``.

    ``np.unique(..., axis=0)`` consolidates each row into a structured
    scalar and *sorts the full rows field by field* — a measurable
    fraction of ``from_population`` at 10M subjects.  This helper gets
    the same grouping from a single void-dtype byte view (one flat
    ``np.unique`` over ``V{itemsize}`` scalars, no per-field
    comparisons) and then reorders the handful of unique rows to the
    value-lexicographic order the old call produced, so codes and
    representatives are drop-in identical.

    Two IEEE details make byte equality match value equality here:
    ``-0.0`` is canonicalized to ``+0.0`` (``matrix + 0.0``) before
    viewing, and the packed matrices are NaN-free by construction
    (``max_effort`` uses the :data:`_NO_MAX_EFFORT` sentinel).

    Args:
        matrix: a 2-D ``float64`` matrix (one row per subject).

    Returns:
        ``(representatives, codes)`` — the first-occurrence row index of
        each unique row (sorted lexicographically by value, ``int64``)
        and the per-row inverse codes, bit-identical to what
        ``np.unique(matrix, axis=0, return_index=True,
        return_inverse=True)`` yields.
    """
    if matrix.ndim != 2:
        raise ModelError(
            f"unique_rows needs a 2-D matrix, got shape {matrix.shape!r}"
        )
    canonical = np.ascontiguousarray(matrix + 0.0)
    row_bytes = canonical.dtype.itemsize * canonical.shape[1]
    void_view = canonical.view(f"V{row_bytes}").reshape(-1)
    _, first_rows, inverse = np.unique(
        void_view, return_index=True, return_inverse=True
    )
    # Byte order sorts negative doubles after positive ones; re-rank the
    # (few) unique rows by value-lexicographic order, columns left to
    # right, to reproduce the structured sort of np.unique(axis=0).
    unique_values = canonical[first_rows]
    order = np.lexsort(unique_values.T[::-1])
    rank = np.empty(order.shape[0], dtype=np.int64)
    rank[order] = np.arange(order.shape[0], dtype=np.int64)
    representatives = np.ascontiguousarray(
        first_rows[order], dtype=np.int64
    )
    codes = np.ascontiguousarray(
        rank[inverse.reshape(-1)], dtype=np.int64
    )
    return representatives, codes


def require_archetypes_agree(
    derived: Tuple[np.ndarray, np.ndarray],
    reference: Tuple[np.ndarray, np.ndarray],
) -> None:
    """Assert incrementally derived design archetypes equal the oracle's.

    Both sides are ``(representatives, codes)``; ``reference`` is
    :func:`unique_rows` over the whole design matrix.  The contract is
    equality: contracts, payment groups and ledgers are indexed by these
    codes, so any drift would silently post a subject another
    archetype's contract.

    Raises:
        InvariantViolation: on the first disagreement.
    """
    for name, got, want in zip(("representatives", "codes"), derived, reference):
        if not np.array_equal(got, want):
            raise InvariantViolation(
                f"incremental design archetypes disagree with unique_rows on "
                f"the {name}: {got!r} != {want!r}"
            )


def _capped(max_effort: np.ndarray) -> np.ndarray:
    return np.where(np.isnan(max_effort), _NO_MAX_EFFORT, max_effort)


def _pack_design(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Design-key rows from :data:`DESIGN_KEY_COLUMNS`-ordered columns."""
    r2, r1, r0, beta, omega, type_codes, weight, max_effort, n_members = columns
    return np.column_stack(
        [
            r2,
            r1,
            r0,
            beta,
            omega,
            type_codes.astype(np.float64),
            weight,
            _capped(max_effort),
            n_members.astype(np.float64),
        ]
    )


def _key_differs(name: str, new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Rows where one design-key column differs, compared as the packed
    design matrix compares them: by value (``-0.0 == +0.0``, NaN differs
    from itself) and ``max_effort`` through its sentinel encoding."""
    if name == "max_effort":
        return _capped(new) != _capped(old)
    return new != old


def changed_design_rows(
    previous: Optional[Sequence[np.ndarray]], current: Sequence[np.ndarray]
) -> np.ndarray:
    """Per row: whether its design key differs between two column sets.

    Both sides are :meth:`ColumnarPopulation.design_columns` tuples.
    Columns are frozen and swapped whole, so a column that is the same
    object on both sides is skipped; the others are compared by value.
    The result equals ``np.any(matrix != previous_matrix, axis=1)``
    over the two packed design matrices, and every row is changed when
    there is no previous set or it has another length.
    """
    n = current[0].shape[0]
    if previous is None or previous[0].shape[0] != n:
        return np.ones(n, dtype=bool)
    changed = np.zeros(n, dtype=bool)
    for name, new, old in zip(DESIGN_KEY_COLUMNS, current, previous):
        if new is not old:
            changed |= _key_differs(name, new, old)
    return changed


def _parameters(type_code: int, beta: float, omega: float) -> WorkerParameters:
    worker_type = WORKER_TYPE_ORDER[type_code]
    if worker_type is WorkerType.HONEST:
        return WorkerParameters.honest(beta=beta)
    return WorkerParameters.malicious(
        beta=beta,
        omega=omega,
        collusive=worker_type is WorkerType.COLLUSIVE_MALICIOUS,
    )


def _scatter(column: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    updated = column.copy()
    updated[rows] = values
    return updated


def _float_column(values: object, n: int, name: str) -> np.ndarray:
    column = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
    if column.shape != (n,):
        raise ModelError(
            f"column {name!r} must have shape ({n},), got {column.shape!r}"
        )
    column.flags.writeable = False
    return column


def _check_omega(omega: np.ndarray, type_codes: np.ndarray) -> None:
    """Raise unless ``omega`` agrees with each row's worker type.

    Honest rows need ``omega == 0`` (``-0.0`` included) exactly, since
    the kernel books the column while the oracle's honest agent acts
    with 0; malicious rows need ``omega > 0`` (so neither ``-0.0`` nor
    NaN), as their agents do.
    """
    honest = type_codes == _HONEST_CODE
    nonzero = omega != 0.0  # noqa: REPRO001 - exact: the kernel books it
    bad = np.flatnonzero(np.where(honest, nonzero, ~(omega > 0.0)))
    if bad.size:
        row = int(bad[0])
        raise ModelError(
            f"omega {float(omega[row])!r} on row {row} disagrees with its "
            f"{WORKER_TYPE_ORDER[int(type_codes[row])].value} worker type "
            "(honest rows need omega == 0, malicious rows omega > 0); "
            f"{bad.size} row(s) disagree"
        )


def _int_column(values: object, n: int, name: str) -> np.ndarray:
    column = np.ascontiguousarray(np.asarray(values, dtype=np.int64))
    if column.shape != (n,):
        raise ModelError(
            f"column {name!r} must have shape ({n},), got {column.shape!r}"
        )
    column.flags.writeable = False
    return column


class _LazyAgents(Mapping[str, WorkerAgent]):
    """Dict-compatible view building ``WorkerAgent`` objects on demand."""

    def __init__(self, store: "ColumnarPopulation") -> None:
        self._store = store
        self._built: Dict[str, WorkerAgent] = {}

    def __getitem__(self, subject_id: str) -> WorkerAgent:
        agent = self._built.get(subject_id)
        if agent is None:
            agent = self._store._build_agent(self._store.index_of(subject_id))
            self._built[subject_id] = agent
        return agent

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.subject_ids())

    def __len__(self) -> int:
        return self._store.n_subjects


class ColumnarPopulation:
    """A population held as contiguous per-field NumPy arrays.

    All columns are full-length (one slot per subject, in subproblem
    order) and frozen (``writeable=False``) except the ``excluded``
    base mask.  Design state is mutated only through
    :meth:`update_design_columns`, which swaps whole columns and
    re-derives the archetype codes of the rows whose values changed —
    the column-slice delta redesign diffs the same columns.  Behaviour
    state is mutated only through :meth:`behaviour_at`, which swaps the
    behaviour columns of the strategic rows and invalidates only the
    response archetypes (with the response cache) and the lazy agents.

    Args:
        r2, r1, r0: the requester's *fitted* psi coefficients (design
            side, per subject).
        act_r2, act_r1, act_r0: the subjects' *true* psi coefficients
            (behaviour side; equal to the fitted ones in the oracle
            setting).
        beta, omega: utility parameters.  ``beta`` is shared by both
            sides; ``omega`` is the design side's.
        design_weight: Eq. (5) weight the *designer* sees
            (``subproblem.feedback_weight``).
        eval_weight: Eq. (5) weight the *requester's book* uses
            (``population.weights``); equal to ``design_weight`` in all
            synthetic worlds.
        max_effort: per-subject effort-grid cap; NaN encodes "no cap".
        type_codes: :data:`WORKER_TYPE_CODES` per subject.
        e_mal: oracle/estimated malice scores (the ``malice`` dict).
        feedback_noise, rating_noise, rating_bias: behavioural noise
            model per subject (``rating_bias`` is the current bias).
        n_members: workers behind each subject (communities > 1).
        community_ids: index into ``communities`` or -1 for individuals.
        communities: member-id tuples for collusive meta-workers.
        subject_ids: explicit ids, or ``None`` to derive ids from
            ``id_format`` (saves ~80 MB of Python strings at 10M
            subjects for formulaic populations).
        id_format: ``str.format`` template used when ``subject_ids`` is
            ``None``.
        class_functions: Section IV-B class-level psi fits carried for
            ``PopulationModel`` compatibility.
        deviations: optional diagnostic rating-deviation estimates.
        act_omega, act_type_codes: behaviour-side omega and worker type
            code; ``None`` means "as designed" (``omega`` /
            ``type_codes``), which holds for every stationary row.
        phases: round-dependent behaviour of strategic rows, applied by
            :meth:`behaviour_at`.
    """

    def __init__(
        self,
        *,
        r2: object,
        r1: object,
        r0: object,
        act_r2: object,
        act_r1: object,
        act_r0: object,
        beta: object,
        omega: object,
        design_weight: object,
        eval_weight: object,
        max_effort: object,
        type_codes: object,
        e_mal: object,
        feedback_noise: object,
        rating_noise: object,
        rating_bias: object,
        n_members: object,
        community_ids: object,
        communities: Sequence[Tuple[str, ...]] = (),
        subject_ids: Optional[Sequence[str]] = None,
        id_format: str = "w{index:05d}",
        class_functions: Optional[ClassEffortFunctions] = None,
        deviations: Optional[Dict[str, float]] = None,
        act_omega: object = None,
        act_type_codes: object = None,
        phases: Optional[PhaseColumns] = None,
    ) -> None:
        first = np.asarray(r2, dtype=np.float64)
        n = int(first.shape[0]) if first.ndim == 1 else -1
        if n < 1:
            raise ModelError(
                f"columnar population needs >= 1 subject, got shape {first.shape!r}"
            )
        self.r2 = _float_column(r2, n, "r2")
        self.r1 = _float_column(r1, n, "r1")
        self.r0 = _float_column(r0, n, "r0")
        self.act_r2 = _float_column(act_r2, n, "act_r2")
        self.act_r1 = _float_column(act_r1, n, "act_r1")
        self.act_r0 = _float_column(act_r0, n, "act_r0")
        self.beta = _float_column(beta, n, "beta")
        self.omega = _float_column(omega, n, "omega")
        self.design_weight = _float_column(design_weight, n, "design_weight")
        self.eval_weight = _float_column(eval_weight, n, "eval_weight")
        self.max_effort = _float_column(max_effort, n, "max_effort")
        self.type_codes = _int_column(type_codes, n, "type_codes")
        if self.type_codes.size and (
            self.type_codes.min() < 0
            or self.type_codes.max() >= len(WORKER_TYPE_ORDER)
        ):
            raise ModelError("type_codes contains values outside WorkerType range")
        _check_omega(self.omega, self.type_codes)
        self.e_mal = _float_column(e_mal, n, "e_mal")
        self.feedback_noise = _float_column(feedback_noise, n, "feedback_noise")
        self.rating_noise = _float_column(rating_noise, n, "rating_noise")
        self.rating_bias = _float_column(rating_bias, n, "rating_bias")
        self.n_members = _int_column(n_members, n, "n_members")
        self.community_ids = _int_column(community_ids, n, "community_ids")
        self.communities: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(members) for members in communities
        )
        if self.community_ids.size and self.community_ids.max() >= len(
            self.communities
        ):
            raise ModelError("community_ids references a missing community")
        self._act_omega = (
            None if act_omega is None else _float_column(act_omega, n, "act_omega")
        )
        self._act_type_codes = (
            None
            if act_type_codes is None
            else _int_column(act_type_codes, n, "act_type_codes")
        )
        if phases is not None and phases.rows.size and (
            phases.rows.min() < 0 or phases.rows.max() >= n
        ):
            raise ModelError("phase rows must index into the population")
        self.phases = phases
        #: Base exclusion mask (the store's own, before policy/departure
        #: masks); the one writable column.
        self.excluded = np.zeros(n, dtype=bool)
        self._n = n
        self._subject_ids: Optional[List[str]] = (
            list(subject_ids) if subject_ids is not None else None
        )
        if self._subject_ids is not None and len(self._subject_ids) != n:
            raise ModelError(
                f"subject_ids must have length {n}, got {len(self._subject_ids)}"
            )
        self._id_format = id_format
        self._invalidate()
        self.class_functions = (
            class_functions
            if class_functions is not None
            else self._default_class_functions()
        )
        self.deviations: Dict[str, float] = dict(deviations or {})

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------

    @property
    def n_subjects(self) -> int:
        """Number of subjects (rows) in the store."""
        return self._n

    def subject_id(self, index: int) -> str:
        """The id of the subject at ``index`` (O(1), no materialization)."""
        if self._subject_ids is not None:
            return self._subject_ids[index]
        return self._id_format.format(index=index)

    def subject_ids(self) -> List[str]:
        """All subject ids, materialized once and cached."""
        if self._subject_ids is None:
            self._subject_ids = [
                self._id_format.format(index=index) for index in range(self._n)
            ]
        return self._subject_ids

    def index_of(self, subject_id: str) -> int:
        """Row index of ``subject_id`` (O(n) dict build on first use)."""
        if self._index_of is None:
            self._index_of = {
                sid: index for index, sid in enumerate(self.subject_ids())
            }
        try:
            return self._index_of[subject_id]
        except KeyError:
            raise ModelError(f"unknown subject id {subject_id!r}") from None

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------

    @property
    def act_omega(self) -> np.ndarray:
        """Behaviour-side omega: what the subjects act on this round."""
        return self.omega if self._act_omega is None else self._act_omega

    @property
    def act_type_codes(self) -> np.ndarray:
        """Behaviour-side worker type codes (strategic rows flip)."""
        if self._act_type_codes is None:
            return self.type_codes
        return self._act_type_codes

    def behaviour_at(self, round_index: int) -> bool:
        """Set the strategic rows' behaviour for ``round_index``.

        The columnar ``on_round``: attacking rows take their attack
        omega and rating bias and act as non-collusive malicious
        workers, the rest act honestly.  Only the behaviour columns of
        the strategic rows change, and only the response archetypes,
        the response cache and the lazy agents are invalidated — and
        only when a row flipped.

        Returns:
            Whether any behaviour changed.
        """
        phases = self.phases
        if phases is None:
            return False
        attacking = phases.attacking(round_index)
        rows = phases.rows
        omega = np.where(attacking, phases.omega, 0.0)
        bias = np.where(attacking, phases.bias, 0.0)
        types = np.where(attacking, _NONCOLLUSIVE_CODE, _HONEST_CODE)
        if (
            np.array_equal(self.act_omega[rows], omega)
            and np.array_equal(self.rating_bias[rows], bias)
            and np.array_equal(self.act_type_codes[rows], types)
        ):
            return False
        self._act_omega = _float_column(
            _scatter(self.act_omega, rows, omega), self._n, "act_omega"
        )
        self.rating_bias = _float_column(
            _scatter(self.rating_bias, rows, bias), self._n, "rating_bias"
        )
        self._act_type_codes = _int_column(
            _scatter(self.act_type_codes, rows, types), self._n, "act_type_codes"
        )
        self._invalidate_behaviour()
        return True

    # ------------------------------------------------------------------
    # archetypes
    # ------------------------------------------------------------------

    def design_columns(self) -> Tuple[np.ndarray, ...]:
        """The frozen columns of the design key, in
        :data:`DESIGN_KEY_COLUMNS` order (type codes and membership as
        ``int64``, a missing effort cap as NaN).  Design updates swap
        these objects whole, which is what lets
        :func:`changed_design_rows` skip the columns that did not move."""
        return tuple(getattr(self, name) for name in DESIGN_KEY_COLUMNS)

    def design_rows(self, rows: np.ndarray) -> np.ndarray:
        """The rows of :meth:`design_matrix` at ``rows``, packed from the
        columns without building the whole matrix."""
        return _pack_design([column[rows] for column in self.design_columns()])

    def design_matrix(self) -> np.ndarray:
        """The packed per-subject design key (everything contract design
        reads): fitted psi, params, type, designer weight, effort cap
        (``None`` encoded as a sentinel) and membership size.  Two
        subjects with equal rows receive identical contracts under every
        policy, which is what archetype dedup and the column-slice delta
        redesign rely on.

        Built lazily, for the oracles (:func:`unique_rows`, the tests):
        the round path derives archetypes and diffs designs from the
        columns, so a design update never rebuilds it."""
        if self._design_matrix is None:
            matrix = _pack_design(self.design_columns())
            matrix.flags.writeable = False
            self._design_matrix = matrix
        return self._design_matrix

    def _design_archetypes(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._arch_codes is None:
            self._arch_keys = np.empty((0, len(DESIGN_KEY_COLUMNS)))
            self._derive_archetypes(np.arange(self._n, dtype=np.int64))
        assert self._arch_codes is not None and self._arch_reps is not None
        return self._arch_codes, self._arch_reps

    def _derive_archetypes(self, changed: np.ndarray) -> None:
        """Re-derive the design-archetype codes of the rows in ``changed``.

        ``changed`` lists, in row order, the rows whose design key may
        differ from the one their code was derived from.  Their key rows
        are packed from the columns, deduplicated with
        :func:`unique_rows` and merged into the sorted key table; every
        other row keeps its archetype, renumbered by one gather.
        Archetypes no row holds any more are dropped, and the
        first-occurrence representatives are recomputed in O(n).  The
        result equals ``unique_rows(self.design_matrix())`` exactly.
        """
        n = self._n
        every_row = changed.size == n
        key_rows = (
            _pack_design(self.design_columns())
            if every_row
            else self.design_rows(changed)
        )
        fresh_reps, fresh_codes = unique_rows(key_rows)
        old_keys = self._arch_keys
        assert old_keys is not None
        # Both halves are canonical (-0.0 folded into +0.0, as in
        # unique_rows), so equal keys are equal bits.
        table = np.concatenate([old_keys, key_rows[fresh_reps] + 0.0])
        order = np.lexsort(table.T[::-1])
        ranked = table[order]
        bits = ranked.view(np.uint64)
        distinct = np.ones(order.shape[0], dtype=bool)
        distinct[1:] = np.any(bits[1:] != bits[:-1], axis=1)
        rank = np.empty(order.shape[0], dtype=np.int64)
        rank[order] = np.cumsum(distinct) - 1
        keys = ranked[distinct]
        n_old = old_keys.shape[0]
        if every_row:
            codes = rank[n_old:][fresh_codes]
        else:
            assert self._arch_codes is not None
            codes = rank[:n_old][self._arch_codes]
            codes[changed] = rank[n_old:][fresh_codes]
        representatives = np.full(keys.shape[0], n, dtype=np.int64)
        np.minimum.at(representatives, codes, np.arange(n, dtype=np.int64))
        held = representatives < n
        if not held.all():
            codes = (np.cumsum(held) - 1)[codes]
            keys = keys[held]
            representatives = representatives[held]
        if invariants_enabled():
            require_archetypes_agree(
                (representatives, codes), unique_rows(self.design_matrix())
            )
        codes.flags.writeable = False
        self._arch_keys = keys
        self._arch_codes = codes
        self._arch_reps = representatives

    @property
    def archetype_codes(self) -> np.ndarray:
        """Per-subject design-archetype index (``int64``, shape (n,))."""
        return self._design_archetypes()[0]

    @property
    def archetype_representatives(self) -> np.ndarray:
        """One representative row index per design archetype."""
        return self._design_archetypes()[1]

    @property
    def n_archetypes(self) -> int:
        """Number of distinct design archetypes."""
        return int(self.archetype_representatives.shape[0])

    def archetype_subproblems(self) -> List[Subproblem]:
        """One designer :class:`Subproblem` per design archetype.

        Subject ids are the representatives' real ids, so serving
        fingerprints and solution keys stay meaningful; psi/params
        objects are the shared archetype objects.
        """
        if self._arch_subproblems is None:
            subproblems = []
            for rep in self.archetype_representatives.tolist():
                subproblems.append(self._build_subproblem(rep))
            self._arch_subproblems = subproblems
        return self._arch_subproblems

    def _response_archetypes(self) -> np.ndarray:
        if self._resp_codes is None:
            matrix = np.column_stack(
                [
                    self.act_r2,
                    self.act_r1,
                    self.act_r0,
                    self.beta,
                    self.act_omega,
                    self.act_type_codes.astype(np.float64),
                ]
            )
            representatives, codes = unique_rows(matrix)
            self._resp_codes = codes
            self._resp_reps = representatives
        return self._resp_codes

    @property
    def response_codes(self) -> np.ndarray:
        """Per-subject behaviour-archetype index (true psi + params)."""
        return self._response_archetypes()

    @property
    def n_response_archetypes(self) -> int:
        """Number of distinct behaviour archetypes."""
        self._response_archetypes()
        assert self._resp_reps is not None
        return int(self._resp_reps.shape[0])

    def _response_objects(
        self, code: int
    ) -> Tuple[QuadraticEffort, WorkerParameters]:
        objects = self._resp_objects.get(code)
        if objects is None:
            self._response_archetypes()
            assert self._resp_reps is not None
            row = int(self._resp_reps[code])
            psi = QuadraticEffort(
                r2=float(self.act_r2[row]),
                r1=float(self.act_r1[row]),
                r0=float(self.act_r0[row]),
            )
            objects = (psi, self._behaviour_params_at(row))
            self._resp_objects[code] = objects
        return objects

    def respond_unique(
        self,
        contracts: Sequence[Contract],
        contract_codes: np.ndarray,
        response_codes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Best responses for (contract, behaviour archetype) pairs.

        Solves Eq. (30) once per pair; pairs solved in an earlier call
        are read from the population's response cache.  The round
        kernel groups its rows once and passes each distinct pair once,
        then fans the results out to the rows itself.

        Args:
            contracts: the archetype contract table.
            contract_codes: per-pair contract index into ``contracts``.
            response_codes: per-pair index into :attr:`response_codes`'
                numbering.

        Returns:
            ``(efforts, expected_feedback)`` arrays aligned with the
            pairs; the expectation is evaluated through the true psi
            exactly as the scalar ``realize_feedback`` does.
        """
        cache = self._response_cache
        efforts = np.empty(contract_codes.shape[0], dtype=np.float64)
        expected = np.empty(contract_codes.shape[0], dtype=np.float64)
        for slot, (contract_code, response_code) in enumerate(
            zip(contract_codes.tolist(), response_codes.tolist())
        ):
            contract = contracts[contract_code]
            cache_key = (contract_code, response_code)
            entry = cache.get(cache_key)
            if entry is not None and entry[0] is contract:
                efforts[slot] = entry[1]
                expected[slot] = entry[2]
                continue
            psi, params = self._response_objects(response_code)
            response = solve_best_response(
                contract, params, effort_function=psi
            )
            effort = response.effort
            expectation = float(psi(effort))
            efforts[slot] = effort
            expected[slot] = expectation
            cache[cache_key] = (contract, effort, expectation)
        return efforts, expected

    # ------------------------------------------------------------------
    # lazy object views (legacy API compatibility)
    # ------------------------------------------------------------------

    def _params_at(self, row: int) -> WorkerParameters:
        return _parameters(
            int(self.type_codes[row]), float(self.beta[row]), float(self.omega[row])
        )

    def _behaviour_params_at(self, row: int) -> WorkerParameters:
        return _parameters(
            int(self.act_type_codes[row]),
            float(self.beta[row]),
            float(self.act_omega[row]),
        )

    def _member_ids_at(self, row: int) -> Tuple[str, ...]:
        community = int(self.community_ids[row])
        if community >= 0:
            return self.communities[community]
        return (self.subject_id(row),)

    def _build_subproblem(self, row: int) -> Subproblem:
        code = int(self.archetype_codes[row])
        psi = self._arch_psis.get(code)
        if psi is None:
            psi = QuadraticEffort(
                r2=float(self.r2[row]),
                r1=float(self.r1[row]),
                r0=float(self.r0[row]),
            )
            self._arch_psis[code] = psi
        params = self._arch_params.get(code)
        if params is None:
            params = self._params_at(row)
            self._arch_params[code] = params
        cap = float(self.max_effort[row])
        return Subproblem(
            subject_id=self.subject_id(row),
            effort_function=psi,
            params=params,
            feedback_weight=float(self.design_weight[row]),
            member_ids=self._member_ids_at(row),
            max_effort=None if np.isnan(cap) else cap,
        )

    def _acting_psi(self, row: int) -> QuadraticEffort:
        code = int(self.response_codes[row])
        psi = self._resp_psis.get(code)
        if psi is None:
            psi = QuadraticEffort(
                r2=float(self.act_r2[row]),
                r1=float(self.act_r1[row]),
                r0=float(self.act_r0[row]),
            )
            self._resp_psis[code] = psi
        return psi

    def _build_agent(self, row: int) -> WorkerAgent:
        worker_type = WORKER_TYPE_ORDER[int(self.act_type_codes[row])]
        subject_id = self.subject_id(row)
        psi = self._acting_psi(row)
        if worker_type is WorkerType.HONEST:
            return HonestWorker(
                worker_id=subject_id,
                effort_function=psi,
                beta=float(self.beta[row]),
                feedback_noise=float(self.feedback_noise[row]),
                rating_noise=float(self.rating_noise[row]),
            )
        if worker_type is WorkerType.NONCOLLUSIVE_MALICIOUS:
            return MaliciousWorker(
                worker_id=subject_id,
                effort_function=psi,
                beta=float(self.beta[row]),
                omega=float(self.act_omega[row]),
                rating_bias=float(self.rating_bias[row]),
                feedback_noise=float(self.feedback_noise[row]),
                rating_noise=float(self.rating_noise[row]),
            )
        return CollusiveCommunity(
            community_id=subject_id,
            member_ids=self._member_ids_at(row),
            effort_function=psi,
            beta=float(self.beta[row]),
            omega=float(self.act_omega[row]),
            rating_bias=float(self.rating_bias[row]),
            feedback_noise=float(self.feedback_noise[row]),
            rating_noise=float(self.rating_noise[row]),
        )

    @property
    def subproblems(self) -> List[Subproblem]:
        """Per-subject designer subproblems (materialized lazily, psi
        and params objects shared per archetype)."""
        if self._subproblems is None:
            self._subproblems = [
                self._build_subproblem(row) for row in range(self._n)
            ]
        return self._subproblems

    @property
    def agents(self) -> Mapping[str, WorkerAgent]:
        """Lazy ``{subject_id: WorkerAgent}`` view (legacy loop API)."""
        if self._agents is None:
            self._agents = _LazyAgents(self)
        return self._agents

    @property
    def weights(self) -> Dict[str, float]:
        """Evaluation weights as the legacy dict (materialized lazily)."""
        if self._weights is None:
            self._weights = {
                self.subject_id(row): float(self.eval_weight[row])
                for row in range(self._n)
            }
        return self._weights

    @property
    def malice(self) -> Dict[str, float]:
        """Malice scores as the legacy dict (materialized lazily)."""
        if self._malice is None:
            self._malice = {
                self.subject_id(row): float(self.e_mal[row])
                for row in range(self._n)
            }
        return self._malice

    def _default_class_functions(self) -> ClassEffortFunctions:
        honest_row = malicious_row = None
        for row in range(self._n):
            malicious = WORKER_TYPE_ORDER[int(self.type_codes[row])].is_malicious
            if not malicious and honest_row is None:
                honest_row = row
            if malicious and malicious_row is None:
                malicious_row = row
            if honest_row is not None and malicious_row is not None:
                break
        honest_psi = self._build_subproblem(
            honest_row if honest_row is not None else 0
        ).effort_function
        malicious_psi = self._build_subproblem(
            malicious_row if malicious_row is not None else 0
        ).effort_function
        return ClassEffortFunctions(
            honest=honest_psi,
            noncollusive=malicious_psi,
            collusive_member=malicious_psi,
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------

    @classmethod
    def from_population(cls, model: PopulationModel) -> "ColumnarPopulation":
        """Pack an object population into columns.

        Strategic agents pack as :class:`PhaseColumns` rows whose
        behaviour columns start at the agent's current phase.

        Raises:
            ModelError: if an agent is of an unknown class, a stationary
                agent's parameters (or a strategic agent's ``beta``)
                diverge from its subproblem's — the store keeps one
                design parameter column and one ``beta`` column — or a
                subject lacks an agent or an evaluation weight.
        """
        n = len(model.subproblems)
        if n < 1:
            raise ModelError("cannot build a columnar store from an empty population")
        columns: Dict[str, List[float]] = {
            name: []
            for name in (
                "r2", "r1", "r0", "act_r2", "act_r1", "act_r0",
                "beta", "omega", "act_omega", "design_weight", "eval_weight",
                "max_effort", "e_mal", "feedback_noise", "rating_noise",
                "rating_bias",
            )
        }
        type_codes: List[int] = []
        act_type_codes: List[int] = []
        n_members: List[int] = []
        community_ids: List[int] = []
        communities: List[Tuple[str, ...]] = []
        community_index: Dict[Tuple[str, ...], int] = {}
        subject_ids: List[str] = []
        phase_rows: List[Tuple[int, int, int, float, float]] = []
        for row, subproblem in enumerate(model.subproblems):
            subject_id = subproblem.subject_id
            agent = model.agents.get(subject_id)
            if agent is None:
                raise ModelError(f"no agent for subject {subject_id!r}")
            if isinstance(agent, _PHASE_AGENT_TYPES):
                # Exact on purpose: one column must hold both values.
                if agent.params.beta != subproblem.params.beta:  # noqa: REPRO001
                    raise ModelError(
                        f"agent {subject_id!r} beta {agent.params.beta!r} "
                        f"diverges from its subproblem's "
                        f"{subproblem.params.beta!r}; the columnar store "
                        "keeps one beta column"
                    )
                if isinstance(agent, CamouflagedWorker):
                    start, cycle = agent.attack_round, 0
                else:
                    start, cycle = agent.honest_rounds, agent.cycle_length
                phase_rows.append(
                    (row, start, cycle, agent.attack_omega, agent.attack_bias)
                )
            elif type(agent) not in _COLUMNAR_AGENT_TYPES:
                raise ModelError(
                    f"agent {subject_id!r} is {type(agent).__name__}; only "
                    "honest/malicious/collusive agents and camouflaged/"
                    "intermittent strategic workers can be held columnar"
                )
            elif agent.params != subproblem.params:
                raise ModelError(
                    f"agent {subject_id!r} parameters {agent.params!r} diverge "
                    f"from its subproblem's {subproblem.params!r}; the "
                    "columnar store keeps one parameter column"
                )
            eval_weight = model.weights.get(subject_id)
            if eval_weight is None:
                raise ModelError(f"no evaluation weight for subject {subject_id!r}")
            design_r2, design_r1, design_r0 = (
                subproblem.effort_function.r2,
                subproblem.effort_function.r1,
                subproblem.effort_function.r0,
            )
            acting = agent.effort_function
            columns["r2"].append(design_r2)
            columns["r1"].append(design_r1)
            columns["r0"].append(design_r0)
            columns["act_r2"].append(acting.r2)
            columns["act_r1"].append(acting.r1)
            columns["act_r0"].append(acting.r0)
            columns["beta"].append(subproblem.params.beta)
            columns["omega"].append(subproblem.params.omega)
            columns["act_omega"].append(agent.params.omega)
            columns["design_weight"].append(subproblem.feedback_weight)
            columns["eval_weight"].append(float(eval_weight))
            columns["max_effort"].append(
                float("nan")
                if subproblem.max_effort is None
                else float(subproblem.max_effort)
            )
            columns["e_mal"].append(float(model.malice.get(subject_id, 0.0)))
            columns["feedback_noise"].append(agent.feedback_noise)
            columns["rating_noise"].append(agent.rating_noise)
            columns["rating_bias"].append(float(agent.rating_bias_now))
            type_codes.append(WORKER_TYPE_CODES[subproblem.params.worker_type])
            act_type_codes.append(WORKER_TYPE_CODES[agent.params.worker_type])
            n_members.append(agent.n_members)
            if isinstance(agent, CollusiveCommunity):
                members = tuple(agent.member_ids)
                slot = community_index.get(members)
                if slot is None:
                    slot = len(communities)
                    communities.append(members)
                    community_index[members] = slot
                community_ids.append(slot)
            else:
                community_ids.append(-1)
            subject_ids.append(subject_id)
        phases = None
        act_omega: Optional[List[float]] = columns.pop("act_omega")
        if phase_rows:
            rows, start, cycle, omega, bias = zip(*phase_rows)
            phases = PhaseColumns(
                rows=np.asarray(rows, dtype=np.int64),
                start=np.asarray(start, dtype=np.int64),
                cycle=np.asarray(cycle, dtype=np.int64),
                omega=np.asarray(omega, dtype=np.float64),
                bias=np.asarray(bias, dtype=np.float64),
            )
        else:
            act_omega = None
        return cls(
            type_codes=type_codes,
            n_members=n_members,
            community_ids=community_ids,
            communities=communities,
            subject_ids=subject_ids,
            class_functions=model.class_functions,
            deviations=dict(model.deviations),
            act_omega=act_omega,
            act_type_codes=act_type_codes if phases is not None else None,
            phases=phases,
            **columns,
        )

    def to_population(self) -> PopulationModel:
        """Materialize back into an object :class:`PopulationModel`.

        The round trip is value-faithful: subproblems, agents, weights
        and malice carry the same numbers (psi/params objects are the
        shared archetype objects, not the originals).  Strategic rows
        come back as their current phase's stationary agent.
        """
        agents = {subject_id: self.agents[subject_id] for subject_id in self.agents}
        return PopulationModel(
            subproblems=list(self.subproblems),
            agents=agents,
            weights=dict(self.weights),
            class_functions=self.class_functions,
            deviations=dict(self.deviations),
            malice=dict(self.malice),
        )

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def update_design_columns(
        self,
        *,
        r2: Optional[np.ndarray] = None,
        r1: Optional[np.ndarray] = None,
        r0: Optional[np.ndarray] = None,
        beta: Optional[np.ndarray] = None,
        omega: Optional[np.ndarray] = None,
        design_weight: Optional[np.ndarray] = None,
        eval_weight: Optional[np.ndarray] = None,
        max_effort: Optional[np.ndarray] = None,
    ) -> None:
        """Swap whole design columns and re-derive what they feed.

        This is the supported mutation path: the delta-redesign state
        diffs the design columns against the ones it saw last, skipping
        any it still holds, so columns must never be edited in place
        (they are frozen).  Each new column is compared with the old one
        as the packed design matrix compares them (by value,
        ``max_effort`` through its no-cap sentinel), and the
        design-archetype codes are re-derived for the rows whose key
        changed only, from key rows packed for those rows;
        ``eval_weight`` is not part of the design key.  The behaviour
        caches (response codes and cache, lazy agents) are dropped only
        when ``beta`` changes, or ``omega`` changes on a population
        without an ``act_omega`` column of its own: the behaviour
        (``act_*``) columns change only through :meth:`behaviour_at`.
        """
        if eval_weight is not None:
            self.eval_weight = _float_column(eval_weight, self._n, "eval_weight")
            self._weights = None
        updates = {
            name: column
            for name, column in (
                ("r2", r2), ("r1", r1), ("r0", r0), ("beta", beta),
                ("omega", omega), ("design_weight", design_weight),
                ("max_effort", max_effort),
            )
            if column is not None
        }
        if not updates:
            return
        columns = {
            name: _float_column(column, self._n, name)
            for name, column in updates.items()
        }
        if "omega" in columns:
            _check_omega(columns["omega"], self.type_codes)
        changed = np.zeros(self._n, dtype=bool)
        behaviour_changed = False
        for name, new in columns.items():
            old = getattr(self, name)
            setattr(self, name, new)
            changed |= _key_differs(name, new, old)
            if name == "beta" or (name == "omega" and self._act_omega is None):
                # Bitwise: response objects and lazy agents copy the values.
                behaviour_changed |= not np.array_equal(
                    new.view(np.int64), old.view(np.int64)
                )
        self._design_matrix = None
        self._arch_subproblems = None
        self._arch_psis = {}
        self._arch_params = {}
        self._subproblems = None
        rows = np.flatnonzero(changed)
        if self._arch_codes is not None and rows.size:
            self._derive_archetypes(rows)
        if behaviour_changed:
            self._invalidate_behaviour()

    def with_design_weight(self, design_weight: np.ndarray) -> "ColumnarPopulation":
        """This population with its design-weight column substituted.

        A design view for policies that design on their own Eq. (5)
        weights: every other column is shared (they are frozen), and the
        view's archetypes are derived afresh from the substituted column.
        """
        view = copy.copy(self)
        view.design_weight = _float_column(design_weight, self._n, "design_weight")
        view._invalidate()
        return view

    def _invalidate(self) -> None:
        """Reset every cache derived from the columns."""
        self._design_matrix: Optional[np.ndarray] = None
        self._arch_keys: Optional[np.ndarray] = None
        self._arch_codes: Optional[np.ndarray] = None
        self._arch_reps: Optional[np.ndarray] = None
        self._arch_subproblems: Optional[List[Subproblem]] = None
        self._arch_psis: Dict[int, QuadraticEffort] = {}
        self._arch_params: Dict[int, WorkerParameters] = {}
        self._subproblems: Optional[List[Subproblem]] = None
        self._weights: Optional[Dict[str, float]] = None
        self._malice: Optional[Dict[str, float]] = None
        self._index_of: Optional[Dict[str, int]] = None
        self._invalidate_behaviour()

    def _invalidate_behaviour(self) -> None:
        """Reset the caches derived from the behaviour columns."""
        self._resp_codes: Optional[np.ndarray] = None
        self._resp_reps: Optional[np.ndarray] = None
        self._resp_psis: Dict[int, QuadraticEffort] = {}
        self._resp_objects: Dict[int, Tuple[QuadraticEffort, WorkerParameters]] = {}
        self._response_cache: ColumnarResponseCache = {}
        self._agents: Optional[_LazyAgents] = None


def synthetic_columnar(
    n_subjects: int,
    n_archetypes: int = 16,
    seed: int = 0,
    malicious_fraction: float = 0.25,
    feedback_noise: float = 0.0,
    rating_noise: float = 0.35,
) -> ColumnarPopulation:
    """The columnar twin of :func:`repro.workers.synthetic.synthetic_population`.

    Consumes the *identical* generator stream as
    :func:`repro.serving.workload.synthetic_subproblems` (archetype
    draws in the same order, then one ``integers`` assignment draw), so
    ``synthetic_columnar(...)`` and
    ``ColumnarPopulation.from_population(synthetic_population(...))``
    hold bit-identical columns — but this builder never materializes a
    per-subject object, which is what makes 10M-subject populations
    buildable in bounded memory.
    """
    if n_subjects < 1:
        raise ModelError(f"n_subjects must be >= 1, got {n_subjects!r}")
    if not 1 <= n_archetypes <= n_subjects:
        raise ModelError(
            f"n_archetypes must lie in [1, n_subjects], got {n_archetypes!r}"
        )
    if not 0.0 <= malicious_fraction <= 1.0:
        raise ModelError(
            f"malicious_fraction must lie in [0, 1], got {malicious_fraction!r}"
        )
    if feedback_noise < 0.0:
        raise ModelError(f"feedback_noise must be >= 0, got {feedback_noise!r}")
    generator = np.random.default_rng(seed)

    # Archetype draws, in synthetic_subproblems' exact order.
    arch_r2 = np.empty(n_archetypes)
    arch_r1 = np.empty(n_archetypes)
    arch_r0 = np.empty(n_archetypes)
    arch_beta = np.empty(n_archetypes)
    arch_omega = np.zeros(n_archetypes)
    arch_weight = np.empty(n_archetypes)
    arch_cap = np.empty(n_archetypes)
    arch_malicious = np.zeros(n_archetypes, dtype=bool)
    first_honest = first_malicious = -1
    for index in range(n_archetypes):
        r2 = -float(generator.uniform(0.3, 1.2))
        r1 = float(generator.uniform(6.0, 14.0))
        r0 = float(generator.uniform(0.0, 2.0))
        beta = float(generator.uniform(0.8, 1.5))
        malicious = bool(generator.random() < malicious_fraction)
        omega = float(generator.uniform(0.2, 0.5)) if malicious else 0.0
        weight = float(generator.uniform(0.5, 2.0))
        psi = QuadraticEffort(r2=r2, r1=r1, r0=r0)
        arch_r2[index] = r2
        arch_r1[index] = r1
        arch_r0[index] = r0
        arch_beta[index] = beta
        arch_omega[index] = omega
        arch_weight[index] = weight
        arch_cap[index] = 0.8 * psi.max_increasing_effort
        arch_malicious[index] = malicious
        if malicious and first_malicious < 0:
            first_malicious = index
        if not malicious and first_honest < 0:
            first_honest = index

    assignments = np.concatenate(
        [
            np.arange(n_archetypes, dtype=np.int64),
            generator.integers(
                0, n_archetypes, size=n_subjects - n_archetypes
            ).astype(np.int64),
        ]
    )

    malicious_mask = arch_malicious[assignments]
    type_codes = np.where(
        malicious_mask,
        WORKER_TYPE_CODES[WorkerType.NONCOLLUSIVE_MALICIOUS],
        WORKER_TYPE_CODES[WorkerType.HONEST],
    ).astype(np.int64)
    honest_psi = QuadraticEffort(
        r2=float(arch_r2[first_honest if first_honest >= 0 else 0]),
        r1=float(arch_r1[first_honest if first_honest >= 0 else 0]),
        r0=float(arch_r0[first_honest if first_honest >= 0 else 0]),
    )
    malicious_psi = QuadraticEffort(
        r2=float(arch_r2[first_malicious if first_malicious >= 0 else 0]),
        r1=float(arch_r1[first_malicious if first_malicious >= 0 else 0]),
        r0=float(arch_r0[first_malicious if first_malicious >= 0 else 0]),
    )
    r2_column = arch_r2[assignments]
    r1_column = arch_r1[assignments]
    r0_column = arch_r0[assignments]
    return ColumnarPopulation(
        r2=r2_column,
        r1=r1_column,
        r0=r0_column,
        act_r2=r2_column,
        act_r1=r1_column,
        act_r0=r0_column,
        beta=arch_beta[assignments],
        omega=arch_omega[assignments],
        design_weight=arch_weight[assignments],
        eval_weight=arch_weight[assignments],
        max_effort=arch_cap[assignments],
        type_codes=type_codes,
        e_mal=malicious_mask.astype(np.float64),
        feedback_noise=np.full(n_subjects, float(feedback_noise)),
        rating_noise=np.full(n_subjects, float(rating_noise)),
        rating_bias=np.where(malicious_mask, 2.0, 0.0),
        n_members=np.ones(n_subjects, dtype=np.int64),
        community_ids=np.full(n_subjects, -1, dtype=np.int64),
        communities=(),
        subject_ids=None,
        id_format="w{index:05d}",
        class_functions=ClassEffortFunctions(
            honest=honest_psi,
            noncollusive=malicious_psi,
            collusive_member=malicious_psi,
        ),
    )
