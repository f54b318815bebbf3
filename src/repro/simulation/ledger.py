"""Round records and the one simulation ledger.

The marketplace engine steps every round through the columnar kernel
and hands the ledger one :class:`RoundRecord` per round: the round's
reductions plus a :class:`RoundOutcomes` view over the kernel's result
columns, the round's evaluation-weight column and the provenance the
policy posted.  :class:`SimulationLedger` folds each round into every
aggregate view once, on append — the utility series of Fig. 8c, the
per-class compensation traces, run-level effort means, serving cache
hits — and keeps the view, so ``records[i].outcomes[subject_id]``
builds a :class:`SubjectRoundOutcome` when it is read.

:class:`~repro.simulation.streaming.StreamingLedger` is the same ledger
with retention off: it drops each round's columns after folding them
in, so it holds O(rounds) state at any population size.  Without the
columns its run-level effort means come from running (sum, count)
accumulators and its compensation quantiles from a
:class:`StreamingHistogram`; an :class:`OutcomeSpill` writes the
per-subject columns to disk and makes both exact again.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    BinaryIO,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..errors import ModelError, SimulationError
from ..types import WorkerType
from ..workers.columnar import (
    WORKER_TYPE_CODES,
    WORKER_TYPE_ORDER,
    ColumnarPopulation,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from ..serving.pool import SolveDiagnostics
    from .engine import ColumnarStepResult

__all__ = [
    "QUANTILE_BINS",
    "SPILL_BUFFER_ROUNDS",
    "SPILL_DTYPE",
    "OutcomeSpill",
    "PostedProvenance",
    "RoundOutcomes",
    "RoundRecord",
    "SimulationLedger",
    "StreamingHistogram",
    "SubjectRoundOutcome",
]

#: On-disk record layout of one subject-round in the spill file.
SPILL_DTYPE = np.dtype(
    [
        ("effort", "f8"),
        ("feedback", "f8"),
        ("compensation", "f8"),
        ("rating_deviation", "f8"),
        ("worker_utility", "f8"),
        ("excluded", "?"),
    ]
)

#: Rounds an :class:`OutcomeSpill` holds in memory between writes.
SPILL_BUFFER_ROUNDS = 4

#: Resolution of a ledger's running compensation histogram.
QUANTILE_BINS = 64


@dataclass(frozen=True)
class SubjectRoundOutcome:
    """One subject's realized outcome in one round.

    Attributes:
        subject_id: worker or community identifier.
        worker_type: the subject's class.
        effort: the (total) effort the subject chose.
        feedback: the realized (noisy) feedback the platform observed.
        compensation: the pay the contract awarded for that feedback.
        feedback_weight: the *evaluation* Eq. (5) weight — the reference
            (population) value of this subject's feedback, used to book
            the requester's realized utility.  Policies cannot inflate
            their scores by believing optimistic weights.
        excluded: whether the policy excluded the subject this round.
        n_members: humans behind the subject.
        rating_deviation: the observed |review score - expert consensus|
            this round (what online re-estimation feeds on).
        policy_weight: the weight the policy *believed* when designing
            this round's contract (diagnostics; ``None`` when the policy
            just used the population weights).
        worker_utility: the subject's *realized* utility this round
            (``pay + omega * feedback - beta * effort``), the quantity
            retention decisions hinge on.
        fingerprint: the serving-layer design fingerprint of the posted
            contract (``None`` when the contract did not come through
            the serving layer).  Lets replays re-derive the subproblem
            and verify the recorded payments against a fresh solve.
        cache_hit: whether the posted contract came from the contract
            cache rather than a fresh solve (``None`` off the serving
            path).
    """

    subject_id: str
    worker_type: WorkerType
    effort: float
    feedback: float
    compensation: float
    feedback_weight: float
    excluded: bool
    n_members: int
    rating_deviation: float = 0.0
    policy_weight: Optional[float] = None
    worker_utility: float = 0.0
    fingerprint: Optional[str] = None
    cache_hit: Optional[bool] = None

    @property
    def believed_weight(self) -> float:
        """The weight the acting policy used (falls back to the
        evaluation weight)."""
        return (
            self.policy_weight
            if self.policy_weight is not None
            else self.feedback_weight
        )

    @property
    def requester_value(self) -> float:
        """The subject's contribution ``w * q`` (zero when excluded)."""
        return 0.0 if self.excluded else self.feedback_weight * self.feedback

    @property
    def per_member_compensation(self) -> float:
        """Even per-member pay split (community reporting, Fig. 8b)."""
        return self.compensation / self.n_members


@dataclass(frozen=True, eq=False)
class PostedProvenance:
    """What a policy posted with one design, as every round under that
    design records it.

    Attributes:
        codes: per-subject contract codes of the posted assignment
            (``-1``: no contract posted).
        diagnostics: serving provenance per contract code (empty when
            the contracts did not come through the serving layer).
        policy_weights: per-subject Eq. (5) weights the design believed,
            in population row order (``None``: the population's).
    """

    codes: np.ndarray
    diagnostics: Tuple[Optional["SolveDiagnostics"], ...] = ()
    policy_weights: Optional[np.ndarray] = None

    def diagnostic(self, row: int) -> Optional["SolveDiagnostics"]:
        """Serving provenance of the contract posted to ``row``."""
        if not self.diagnostics:
            return None
        return self.diagnostics[int(self.codes[row])]

    def policy_weight(self, row: int) -> Optional[float]:
        """The weight the design believed for ``row`` (``None``: the
        population's)."""
        if self.policy_weights is None:
            return None
        return float(self.policy_weights[row])


class RoundOutcomes(Mapping[str, SubjectRoundOutcome]):
    """One round's per-subject outcomes, read off the kernel's columns.

    A read-only mapping keyed by subject id, in population row order.
    Each :class:`SubjectRoundOutcome` is built when it is read, from the
    round's result columns, its evaluation-weight column and the
    provenance the policy posted — never from the policy's state at read
    time.

    Attributes:
        population: the simulated population (subject ids, classes and
            member counts; those columns never change during a run).
        result: the round's kernel columns.
        eval_weight: the round's evaluation-weight column.
        provenance: what the policy posted for this round's design.
    """

    def __init__(
        self,
        population: ColumnarPopulation,
        result: "ColumnarStepResult",
        provenance: PostedProvenance,
    ) -> None:
        self.population = population
        self.result = result
        self.eval_weight = population.eval_weight
        self.provenance = provenance

    def __getitem__(self, subject_id: str) -> SubjectRoundOutcome:
        try:
            row = self.population.index_of(subject_id)
        except ModelError:
            raise KeyError(subject_id) from None
        return self._outcome(row, subject_id)

    def __iter__(self) -> Iterator[str]:
        return iter(self.population.subject_ids())

    def __len__(self) -> int:
        return self.population.n_subjects

    def _outcome(self, row: int, subject_id: str) -> SubjectRoundOutcome:
        population = self.population
        result = self.result
        worker_type = WORKER_TYPE_ORDER[int(population.type_codes[row])]
        n_members = int(population.n_members[row])
        feedback_weight = float(self.eval_weight[row])
        believed = self.provenance.policy_weight(row)
        if not result.active[row]:
            return SubjectRoundOutcome(
                subject_id=subject_id,
                worker_type=worker_type,
                effort=0.0,
                feedback=0.0,
                compensation=0.0,
                feedback_weight=feedback_weight,
                excluded=True,
                n_members=n_members,
                policy_weight=believed,
            )
        diagnostic = self.provenance.diagnostic(row)
        return SubjectRoundOutcome(
            subject_id=subject_id,
            worker_type=worker_type,
            effort=float(result.efforts[row]),
            feedback=float(result.feedback[row]),
            compensation=float(result.compensation[row]),
            feedback_weight=feedback_weight,
            excluded=False,
            n_members=n_members,
            rating_deviation=float(result.rating_deviation[row]),
            policy_weight=believed,
            worker_utility=float(result.worker_utility[row]),
            fingerprint=(
                diagnostic.fingerprint if diagnostic is not None else None
            ),
            cache_hit=diagnostic.cache_hit if diagnostic is not None else None,
        )


#: The outcomes of a record whose ledger keeps no per-subject columns.
_NO_OUTCOMES: Mapping[str, SubjectRoundOutcome] = MappingProxyType({})


@dataclass(frozen=True)
class RoundRecord:
    """Aggregate record of one simulated round.

    Attributes:
        round_index: 0-based round number.
        outcomes: read-only per-subject outcomes keyed by subject id: a
            :class:`RoundOutcomes` view on a retaining ledger, empty on
            a :class:`~repro.simulation.streaming.StreamingLedger`.
        benefit: the requester's realized benefit ``sum w_i q_i``.
        total_compensation: total pay this round.
        utility: ``benefit - mu * total_compensation``.
        design_ms: wall-clock milliseconds the requester spent
            (re-)designing contracts this round; ``None`` on rounds that
            reused the previous design (``redesign_every`` amortization).
        span_id: id of the round's ``simulation.round`` tracing span
            (``None`` when the run was untraced).  Lets a span dump be
            joined back onto the ledger it was produced with.
        n_dirty: subjects the policy actually re-solved on this round's
            re-design (delta-aware redesign provenance; ``None`` on
            rounds without a re-design or for policies that don't track
            deltas).
        reuse_rate: fraction of subjects whose previous design was
            reused on this round's re-design (``None`` like ``n_dirty``).
            A static population reports 1.0 on every redesign round
            after the first.
    """

    round_index: int
    outcomes: Mapping[str, SubjectRoundOutcome]
    benefit: float
    total_compensation: float
    utility: float
    design_ms: Optional[float] = None
    span_id: Optional[str] = None
    n_dirty: Optional[int] = None
    reuse_rate: Optional[float] = None


class OutcomeSpill:
    """Chunked binary spill of per-subject round outcomes.

    Rounds are buffered and appended to ``path`` in :data:`SPILL_DTYPE`
    layout, :data:`SPILL_BUFFER_ROUNDS` at a time; :meth:`as_array` maps
    the whole file back read-only as ``(n_rounds, n_subjects)`` without
    loading it.  The file format is self-describing given the dtype and
    the (constant) population size.

    Args:
        path: spill file location (created/truncated).
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._handle: Optional[BinaryIO] = open(self.path, "wb")
        self._buffer: List[np.ndarray] = []
        self._n_rounds = 0
        self._n_subjects: Optional[int] = None

    @property
    def n_rounds(self) -> int:
        """Rounds appended so far (buffered or written)."""
        return self._n_rounds

    @property
    def n_subjects(self) -> Optional[int]:
        """Population size, fixed by the first appended round."""
        return self._n_subjects

    def append_round(self, rows: np.ndarray) -> None:
        """Buffer one round's per-subject rows (``SPILL_DTYPE``, (n,))."""
        if self._handle is None:
            raise SimulationError("spill file is closed")
        rows = np.ascontiguousarray(rows, dtype=SPILL_DTYPE)
        if rows.ndim != 1:
            raise SimulationError(
                f"spill rows must be one-dimensional, got shape {rows.shape!r}"
            )
        if self._n_subjects is None:
            self._n_subjects = int(rows.shape[0])
        elif rows.shape[0] != self._n_subjects:
            raise SimulationError(
                f"spill rounds must have {self._n_subjects} subjects, "
                f"got {rows.shape[0]}"
            )
        self._buffer.append(rows)
        self._n_rounds += 1
        if len(self._buffer) >= SPILL_BUFFER_ROUNDS:
            self.flush()

    def flush(self) -> None:
        """Write all buffered rounds to disk."""
        if self._handle is None:
            raise SimulationError("spill file is closed")
        for rows in self._buffer:
            self._handle.write(rows.tobytes())
        self._buffer.clear()
        self._handle.flush()

    def close(self) -> None:
        """Flush and close the spill file (idempotent)."""
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def as_array(self) -> np.ndarray:
        """The spilled history as a read-only ``(rounds, subjects)`` map.

        Flushes pending rounds first; the returned array is backed by
        the file (``np.memmap``), so element access pages in on demand
        instead of loading the run into memory.
        """
        if self._n_subjects is None:
            raise SimulationError("spill holds no rounds yet")
        if self._handle is not None:
            self.flush()
        # np.memmap silently maps whatever bytes exist; a truncated or
        # partially-written file must fail loudly, not return a map
        # that reads past EOF (or short rounds) as garbage.
        expected = (
            self._n_rounds * self._n_subjects * SPILL_DTYPE.itemsize
        )
        actual = self.path.stat().st_size
        if actual != expected:
            raise SimulationError(
                f"spill file {self.path} holds {actual} bytes but "
                f"{self._n_rounds} rounds x {self._n_subjects} subjects "
                f"requires exactly {expected}; the file is truncated or "
                "was written by another spill"
            )
        if expected == 0:
            # mmap rejects empty files; an empty-population (or
            # zero-round) spill is still a valid, empty history.
            return np.zeros(
                (self._n_rounds, self._n_subjects), dtype=SPILL_DTYPE
            )
        return np.memmap(
            self.path,
            dtype=SPILL_DTYPE,
            mode="r",
            shape=(self._n_rounds, self._n_subjects),
        )

    def round_outcomes(self, round_index: int) -> np.ndarray:
        """One round's rows, copied out of the map."""
        if not 0 <= round_index < self._n_rounds:
            raise SimulationError(
                f"round_index must lie in [0, {self._n_rounds}), "
                f"got {round_index!r}"
            )
        return np.array(self.as_array()[round_index])


class StreamingHistogram:
    """Uniform-bin running histogram with quantile queries.

    Bin edges are pinned by the first observed batch (the low edge is
    anchored at 0 for the non-negative compensation domain); when a
    later batch overflows the top edge, the range *doubles* by merging
    adjacent bin pairs — so no mass is ever clamped above and quantile
    answers stay within one (final) bin width.  Values below the low
    edge (impossible for compensations) clamp into the first bin.  The
    spill file is the exact fallback.

    A value's bin is computed from the uniform edges, ``(v - low) /
    width`` truncated, and corrected by one comparison with the bin's
    lower and upper edge, which gives exactly
    ``searchsorted(edges, v, "right") - 1`` clipped to the bins.  That
    holds while a bin is far wider than the rounding error of the
    edges; a range too narrow for its magnitude bins by search.
    """

    def __init__(self, n_bins: int = QUANTILE_BINS) -> None:
        if n_bins < 2 or n_bins % 2:
            raise SimulationError(
                f"n_bins must be even and >= 2 (range doubling merges bin "
                f"pairs), got {n_bins!r}"
            )
        self.n_bins = n_bins
        self.edges: Optional[np.ndarray] = None
        self.counts = np.zeros(n_bins, dtype=np.int64)
        self.total = 0
        # Set with the edges: bins per unit of value (None: bin by
        # search) and each bin's lower and upper edge, NaN where the
        # bin is open (the first bin's lower, the last bin's upper).
        self._scale: Optional[float] = None
        self._lower = np.empty(0)
        self._upper = np.empty(0)

    def _set_edges(self, low: float, high: float) -> None:
        edges = np.linspace(low, high, self.n_bins + 1)
        self.edges = edges
        low, high = float(edges[0]), float(edges[-1])
        span = high - low
        # The truncated estimate is within one bin of the true one while
        # a bin spans far more than the edges' rounding error (about
        # 2**-52 of their magnitude).
        exact = np.isfinite(span) and span / self.n_bins > 2.0**-40 * max(
            abs(low), abs(high)
        )
        self._scale = self.n_bins / span if exact else None
        self._lower = edges[:-1].copy()
        self._lower[0] = np.nan
        self._upper = edges[1:].copy()
        self._upper[-1] = np.nan

    def _bins(self, values: np.ndarray) -> np.ndarray:
        """Each value's bin: ``searchsorted(edges, v, "right") - 1``,
        clipped to ``[0, n_bins - 1]``."""
        assert self.edges is not None
        last = self.n_bins - 1
        if self._scale is None:
            return np.clip(
                np.searchsorted(self.edges, values, side="right") - 1, 0, last
            )
        with np.errstate(invalid="ignore", over="ignore"):
            estimate = (values - self.edges[0]) * self._scale
        # fmin/fmax map NaN to the last bin, where search sorts it.
        np.fmin(estimate, last, out=estimate)
        np.fmax(estimate, 0.0, out=estimate)
        slots = estimate.astype(np.intp)
        # An open edge is NaN, so its comparison never moves a slot.
        slots -= values < self._lower[slots]
        slots += values >= self._upper[slots]
        return slots

    def observe(self, values: np.ndarray) -> None:
        """Fold one batch of values into the histogram."""
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if values.size == 0:
            return
        batch_max = float(values.max())
        if self.edges is None:
            low = min(0.0, float(values.min()))
            high = batch_max
            if high <= low:
                high = low + max(1.0, abs(low))
            self._set_edges(low, high)
        assert self.edges is not None
        while batch_max > float(self.edges[-1]):
            low = float(self.edges[0])
            span = float(self.edges[-1]) - low
            half = self.n_bins // 2
            merged = self.counts[0::2] + self.counts[1::2]
            self.counts = np.zeros(self.n_bins, dtype=np.int64)
            self.counts[:half] = merged
            self._set_edges(low, low + 2.0 * span)
        self.counts += np.bincount(self._bins(values), minlength=self.n_bins)
        self.total += int(values.size)

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile (linear within the hit bin).

        Within one bin width of the empirical inverted-CDF quantile
        (the order statistic itself).
        """
        if not 0.0 <= q <= 1.0:
            raise SimulationError(f"q must lie in [0, 1], got {q!r}")
        if self.edges is None or self.total == 0:
            raise SimulationError("histogram is empty")
        target = q * self.total
        cumulative = np.cumsum(self.counts)
        slot = int(np.searchsorted(cumulative, target, side="left"))
        slot = min(slot, self.n_bins - 1)
        left = cumulative[slot - 1] if slot > 0 else 0
        in_bin = self.counts[slot]
        fraction = float((target - left) / in_bin) if in_bin else 0.0
        width = self.edges[slot + 1] - self.edges[slot]
        return float(self.edges[slot] + min(max(fraction, 0.0), 1.0) * width)

    @property
    def bin_width(self) -> float:
        """Width of one bin (the quantile error bound)."""
        if self.edges is None:
            raise SimulationError("histogram is empty")
        return float(self.edges[1] - self.edges[0])


def _spill_rows(result: "ColumnarStepResult") -> np.ndarray:
    """One round's result columns in :data:`SPILL_DTYPE` layout."""
    rows = np.empty(result.active.shape[0], dtype=SPILL_DTYPE)
    rows["effort"] = result.efforts
    rows["feedback"] = result.feedback
    rows["compensation"] = result.compensation
    rows["rating_deviation"] = result.rating_deviation
    rows["worker_utility"] = result.worker_utility
    rows["excluded"] = ~result.active
    return rows


class SimulationLedger:
    """The round ledger: every aggregate view, folded in on append.

    Per-class compensation means are reduced once per round over the
    per-member compensation column, the value sequence a per-subject
    loop would feed ``np.mean``, so the series are exact.  This class
    keeps every round's columns, so records answer per-subject reads
    and run-level effort means and quantiles are exact too.

    Attributes:
        retains_outcomes: whether records keep their per-subject
            columns (``False`` on a
            :class:`~repro.simulation.streaming.StreamingLedger`).
        spill: the per-subject outcome spill, if any.
    """

    retains_outcomes = True

    def __init__(self) -> None:
        self.spill: Optional[OutcomeSpill] = None
        self._records: List[RoundRecord] = []
        # Every round's result columns (retaining ledgers only).
        self._retained: List["ColumnarStepResult"] = []
        self._n_members: Optional[np.ndarray] = None
        self._type_masks: Dict[WorkerType, np.ndarray] = {}
        self._comp_series: Dict[WorkerType, List[float]] = {
            worker_type: [] for worker_type in WorkerType
        }
        self._effort_sums: Dict[WorkerType, float] = {
            worker_type: 0.0 for worker_type in WorkerType
        }
        self._effort_counts: Dict[WorkerType, int] = {
            worker_type: 0 for worker_type in WorkerType
        }
        self._histogram = StreamingHistogram()
        self._served = 0
        self._hits = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------

    @property
    def n_rounds(self) -> int:
        """Rounds recorded so far."""
        return len(self._records)

    @property
    def records(self) -> Tuple[RoundRecord, ...]:
        """All records, in round order."""
        return tuple(self._records)

    def append(self, record: RoundRecord) -> RoundRecord:
        """Fold the next round (rounds must arrive in order) into every
        view and return the record as this ledger keeps it.

        Raises:
            SimulationError: on an out-of-order round, a record whose
                outcomes are not the kernel's :class:`RoundOutcomes`
                view, or a population that changed size mid-run.
        """
        expected = self.n_rounds
        if record.round_index != expected:
            raise SimulationError(
                f"expected round {expected}, got {record.round_index}"
            )
        outcomes = record.outcomes
        if not isinstance(outcomes, RoundOutcomes):
            raise SimulationError(
                "a ledger records the kernel's columns: record.outcomes "
                f"must be a RoundOutcomes view, got {type(outcomes).__name__}"
            )
        population = outcomes.population
        if self._n_members is None:
            self._n_members = population.n_members
            self._type_masks = {
                worker_type: population.type_codes == code
                for worker_type, code in WORKER_TYPE_CODES.items()
            }
        elif population.n_members.shape != self._n_members.shape:
            raise SimulationError(
                "population size changed mid-run: "
                f"{population.n_subjects} != {self._n_members.shape[0]}"
            )

        result = outcomes.result
        per_member = result.compensation / self._n_members
        effort_per_member = result.efforts / self._n_members
        for worker_type, mask in self._type_masks.items():
            if mask.any():
                self._comp_series[worker_type].append(
                    float(np.mean(per_member[mask]))
                )
                self._effort_sums[worker_type] += float(
                    np.sum(effort_per_member[mask])
                )
                self._effort_counts[worker_type] += int(
                    np.count_nonzero(mask)
                )
            else:
                self._comp_series[worker_type].append(0.0)
        self._histogram.observe(per_member)
        self._count_cache_hits(outcomes.provenance, result.active)
        if self.spill is not None:
            self.spill.append_round(_spill_rows(result))

        if self.retains_outcomes:
            self._retained.append(result)
        else:
            record = dataclasses.replace(record, outcomes=_NO_OUTCOMES)
        self._records.append(record)
        return record

    def _count_cache_hits(
        self, provenance: PostedProvenance, active: np.ndarray
    ) -> None:
        """Count the round's served contracts and cache hits per code."""
        diagnostics = provenance.diagnostics
        if all(diagnostic is None for diagnostic in diagnostics):
            return
        served = np.bincount(
            provenance.codes[active], minlength=len(diagnostics)
        ).tolist()
        for code, diagnostic in enumerate(diagnostics):
            if diagnostic is None:
                continue
            self._served += served[code]
            if diagnostic.cache_hit:
                self._hits += served[code]

    def _history(self) -> Optional[np.ndarray]:
        """Every round's per-subject rows, ``(rounds, subjects)`` in
        :data:`SPILL_DTYPE`: from the retained columns or the spill;
        ``None`` when the ledger kept neither."""
        if self._retained:
            return np.stack([_spill_rows(result) for result in self._retained])
        if self.spill is not None and self.spill.n_rounds:
            return self.spill.as_array()
        return None

    # ------------------------------------------------------------------
    # aggregate views
    # ------------------------------------------------------------------

    def utility_series(self) -> np.ndarray:
        """Per-round requester utility (the Fig. 8c series)."""
        return np.array([record.utility for record in self._records])

    def benefit_series(self) -> np.ndarray:
        """Per-round realized benefit."""
        return np.array([record.benefit for record in self._records])

    def compensation_series(self) -> np.ndarray:
        """Per-round total compensation."""
        return np.array(
            [record.total_compensation for record in self._records]
        )

    def cumulative_utility(self) -> np.ndarray:
        """Cumulative requester utility over rounds."""
        return np.cumsum(self.utility_series())

    def total_utility(self) -> float:
        """Total requester utility over the whole run."""
        return float(self.utility_series().sum()) if self._records else 0.0

    def compensation_by_type(
        self, worker_type: Optional[WorkerType] = None
    ) -> Dict[WorkerType, np.ndarray]:
        """Per-round mean per-member compensation for each class.

        Args:
            worker_type: restrict to one class, or ``None`` for all.
        """
        selected = (
            [worker_type] if worker_type is not None else list(WorkerType)
        )
        return {wt: np.array(self._comp_series[wt]) for wt in selected}

    def mean_effort_by_type(self) -> Dict[WorkerType, float]:
        """Run-level mean per-member effort for each class.

        Exact — one mean over each class's values in round order — from
        the retained columns or the spill; otherwise from the running
        (sum, count) accumulators, equal to the exact value up to
        summation-order rounding.
        """
        history = self._history()
        if history is not None:
            assert self._n_members is not None
            effort_per_member = history["effort"] / self._n_members[None, :]
            result = {}
            for worker_type, mask in self._type_masks.items():
                values = effort_per_member[:, mask].reshape(-1)
                result[worker_type] = (
                    float(np.mean(values)) if values.size else 0.0
                )
            return result
        return {
            worker_type: (
                self._effort_sums[worker_type] / self._effort_counts[worker_type]
                if self._effort_counts[worker_type]
                else 0.0
            )
            for worker_type in WorkerType
        }

    def compensation_quantile(self, q: float) -> float:
        """``q``-quantile of per-member compensation over all
        subject-rounds — exact from the retained columns or the spill,
        else histogram-approximate (error bounded by
        :attr:`StreamingHistogram.bin_width`)."""
        history = self._history()
        if history is not None:
            assert self._n_members is not None
            per_member = (
                history["compensation"] / self._n_members[None, :]
            ).reshape(-1)
            return float(np.quantile(per_member, q))
        return self._histogram.quantile(q)

    def total_design_ms(self) -> float:
        """Total wall-clock design time booked across all rounds.

        Rounds that reused a previous design contribute zero; the total
        is the amortized cost a ``redesign_every > 1`` requester pays.
        """
        return sum(
            record.design_ms
            for record in self._records
            if record.design_ms is not None
        )

    def mean_reuse_rate(self) -> Optional[float]:
        """Mean delta-redesign reuse rate across redesign rounds.

        ``None`` when no round carries dirty-set provenance (the policy
        never tracked redesign deltas).
        """
        rates = [
            record.reuse_rate
            for record in self._records
            if record.reuse_rate is not None
        ]
        if not rates:
            return None
        return float(np.mean(rates))

    def cache_hit_rate(self) -> Optional[float]:
        """Fraction of served (non-excluded) contracts that were cache hits.

        ``None`` when no round carried serving provenance (the run never
        went through the serving layer).
        """
        if self._served == 0:
            return None
        return self._hits / self._served

    def summary(self) -> Dict[str, float]:
        """Headline totals for quick comparisons."""
        if not self._records:
            return {
                "n_rounds": 0.0,
                "total_utility": 0.0,
                "mean_round_utility": 0.0,
                "total_compensation": 0.0,
            }
        utilities = self.utility_series()
        return {
            "n_rounds": float(self.n_rounds),
            "total_utility": float(utilities.sum()),
            "mean_round_utility": float(utilities.mean()),
            "total_compensation": float(
                sum(record.total_compensation for record in self._records)
            ),
        }

    def close(self) -> None:
        """Close the spill file, if any."""
        if self.spill is not None:
            self.spill.close()
