"""Row-sharded parallel columnar rounds over POSIX shared memory.

:func:`~repro.simulation.engine.fast_columnar_step` runs a 10M-subject
round on one core.  This module shards it across a persistent pool of
worker processes with **zero copies of the per-subject columns**: one
``multiprocessing.shared_memory`` segment holds every column the kernel
reads or writes (~130 B/subject), each worker attaches a
:class:`SharedColumnarView` over its contiguous row slice, and runs the
*unmodified* sequential kernel on it.

Bit-for-bit determinism is preserved by keeping all randomness in the
coordinator.  :func:`parallel_columnar_step` computes the active mask
and per-subject draw slots exactly as the sequential kernel does, draws
the one pinned-order ``standard_normal`` block itself (the only draw
site — manifested in ``draw_order.toml``), and hands each shard its
contiguous slice of that block through shared memory.  Inside a shard
the generator is replaced by :class:`_PredrawnSlice`, which returns the
parent's slice and verifies the shard asked for exactly the slot count
the parent allotted.  Because contiguous row shards own contiguous draw
slots (slots are laid out per active row, ascending), every per-subject
output is bit-identical to the sequential kernel; the two scalar
reductions (benefit, total compensation) are recomputed by the parent
with the same left-to-right ``cumsum`` over the merged full columns, so
they cannot be perturbed by per-shard partial sums reassociating
floats.  :func:`require_parallel_steps_agree` pins the equivalence and
is replayed every round under ``REPRO_CHECK_INVARIANTS=1``.

Fault tolerance: a shard that dies mid-round (or wedges past the
optional timeout) is retired and its slice is recomputed inline by the
coordinator over the same shared arrays — the round still completes,
bit-identically, and the engine degrades toward fully-inline execution.
The segment is unlinked on :meth:`ParallelRoundEngine.close`, by a GC
finalizer, and at interpreter exit, so ``/dev/shm`` is never leaked.
"""

from __future__ import annotations

import multiprocessing
import os
import uuid
import weakref
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

import numpy as np

from ..analysis.invariants import InvariantViolation
from ..core.contract import Contract
from ..core.effort import QuadraticEffort
from ..errors import SimulationError
from ..numerics import ABS_TOL
from ..serving.pool import ContractAssignment
from ..types import WorkerParameters, WorkerType
from ..workers.columnar import (
    WORKER_TYPE_ORDER,
    ColumnarPopulation,
    ColumnarResponseCache,
)
from .engine import ColumnarStepResult, fast_columnar_step

__all__ = [
    "ParallelRoundEngine",
    "SharedColumnarView",
    "parallel_columnar_step",
    "require_parallel_steps_agree",
]

#: Prefix of every shared segment this module creates.  Unique per
#: engine (pid + random token); tests scan ``/dev/shm`` for leaks by it.
SHM_NAME_PREFIX = "repro-par"

#: Columns the kernel reads that are fixed for the engine's lifetime.
_STATIC_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("feedback_noise", np.float64),
    ("rating_noise", np.float64),
    ("rating_bias", np.float64),
    ("act_omega", np.float64),
    ("beta", np.float64),
    ("eval_weight", np.float64),
    ("response_codes", np.int64),
)

#: Columns the coordinator writes before each round.
_INPUT_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("codes", np.int64),
    ("excluded", np.bool_),
    ("previous_feedback", np.float64),
)

#: Columns each shard writes for its row slice.
_OUTPUT_COLUMNS: Tuple[Tuple[str, type], ...] = (
    ("efforts", np.float64),
    ("feedback", np.float64),
    ("compensation", np.float64),
    ("rating_deviation", np.float64),
    ("worker_utility", np.float64),
)


def _segment_layout(n_subjects: int) -> Tuple[Dict[str, Tuple[int, Any, int]], int]:
    """Column name -> (byte offset, dtype, length) plus the total size.

    Columns are laid out back to back, each padded to 8-byte alignment.
    The ``draws`` column holds the round's structured noise block: at
    most two slots (feedback + rating) per subject.
    """
    specs: List[Tuple[str, Any, int]] = [
        (name, dtype, n_subjects)
        for name, dtype in (*_STATIC_COLUMNS, *_INPUT_COLUMNS, *_OUTPUT_COLUMNS)
    ]
    specs.append(("draws", np.float64, 2 * n_subjects))
    layout: Dict[str, Tuple[int, Any, int]] = {}
    offset = 0
    for name, dtype, count in specs:
        layout[name] = (offset, dtype, count)
        nbytes = int(np.dtype(dtype).itemsize) * count
        offset += (nbytes + 7) // 8 * 8
    return layout, max(offset, 8)


def _attach_columns(buffer: memoryview, n_subjects: int) -> Dict[str, np.ndarray]:
    """NumPy views over every column of a segment's buffer (no copies)."""
    layout, _ = _segment_layout(n_subjects)
    return {
        name: np.ndarray((count,), dtype=dtype, buffer=buffer, offset=offset)
        for name, (offset, dtype, count) in layout.items()
    }


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    Attaching registers the segment with the per-process resource
    tracker on Pythons < 3.13, which would unlink it when the *worker*
    exits even though the coordinator owns it; ``track=False`` (3.13+)
    or an explicit unregister keeps ownership with the creator.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        # Pre-3.13: suppress the tracker's REGISTER for this attach
        # (sending UNREGISTER after the fact races other shards and
        # spams the shared tracker process with KeyErrors).
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register  # type: ignore[assignment]


class _PredrawnSlice:
    """Stands in for the round generator inside a shard.

    The coordinator already consumed the real generator in the pinned
    order; a shard's "draw" is just its contiguous slice of that block.
    The stand-in verifies the shard asks for *exactly* the slot count
    the parent allotted — any mismatch means the shard's active/noise
    predicates diverged from the parent's, which must fail loudly
    rather than silently shear the stream.
    """

    def __init__(self, draws: np.ndarray) -> None:
        self._draws = draws
        self.consumed = False

    def standard_normal(self, size: int) -> np.ndarray:
        if self.consumed:
            raise SimulationError(
                "shard asked for a second draw block; the kernel draws "
                "exactly once per round"
            )
        if int(size) != int(self._draws.shape[0]):
            raise SimulationError(
                f"shard draw-slot mismatch: kernel wants {int(size)} "
                f"draws, parent allotted {int(self._draws.shape[0])}"
            )
        self.consumed = True
        return self._draws

    def verify_consumed(self) -> None:
        if self._draws.shape[0] and not self.consumed:
            raise SimulationError(
                f"shard left {int(self._draws.shape[0])} parent-drawn "
                "noise slots unconsumed"
            )


class _ShardAssignment:
    """The two assignment fields the kernel reads, sliced to a shard."""

    __slots__ = ("contracts", "codes")

    def __init__(
        self, contracts: Tuple[Contract, ...], codes: np.ndarray
    ) -> None:
        self.contracts = contracts
        self.codes = codes


class SharedColumnarView:
    """A contiguous row slice of a :class:`ColumnarPopulation`, backed
    by shared memory.

    Duck-types exactly the population surface
    :func:`~repro.simulation.engine.fast_columnar_step` touches —
    ``n_subjects``, the six float columns, ``response_codes``,
    ``n_response_archetypes``, ``respond_unique`` — over zero-copy
    views into the segment.  ``respond_unique`` delegates to the real
    :meth:`ColumnarPopulation.respond_unique` implementation (it only
    reads the attributes above), so a shard runs the identical code
    path as the sequential kernel; behaviour-archetype objects are
    rebuilt from the small pickled representative table exactly as
    :meth:`ColumnarPopulation._response_objects` builds them.
    """

    def __init__(
        self,
        arrays: Dict[str, np.ndarray],
        lo: int,
        hi: int,
        rep_table: Dict[str, np.ndarray],
        n_response_archetypes: int,
    ) -> None:
        self.n_subjects = hi - lo
        self.feedback_noise = arrays["feedback_noise"][lo:hi]
        self.rating_noise = arrays["rating_noise"][lo:hi]
        self.rating_bias = arrays["rating_bias"][lo:hi]
        self.act_omega = arrays["act_omega"][lo:hi]
        self.beta = arrays["beta"][lo:hi]
        self.eval_weight = arrays["eval_weight"][lo:hi]
        self.response_codes = arrays["response_codes"][lo:hi]
        self.n_response_archetypes = n_response_archetypes
        self._rep_table = rep_table
        self._resp_objects: Dict[int, Tuple[QuadraticEffort, WorkerParameters]] = {}

    def _response_objects(
        self, code: int
    ) -> Tuple[QuadraticEffort, WorkerParameters]:
        objects = self._resp_objects.get(code)
        if objects is None:
            table = self._rep_table
            psi = QuadraticEffort(
                r2=float(table["act_r2"][code]),
                r1=float(table["act_r1"][code]),
                r0=float(table["act_r0"][code]),
            )
            worker_type = WORKER_TYPE_ORDER[int(table["type_codes"][code])]
            if worker_type is WorkerType.HONEST:
                params = WorkerParameters.honest(
                    beta=float(table["beta"][code])
                )
            else:
                params = WorkerParameters.malicious(
                    beta=float(table["beta"][code]),
                    omega=float(table["omega"][code]),
                    collusive=worker_type is WorkerType.COLLUSIVE_MALICIOUS,
                )
            objects = (psi, params)
            self._resp_objects[code] = objects
        return objects

    def respond_unique(
        self,
        contracts: Sequence[Contract],
        contract_codes: np.ndarray,
        rows: np.ndarray,
        cache: Optional[ColumnarResponseCache] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return ColumnarPopulation.respond_unique(
            cast(ColumnarPopulation, self),
            contracts,
            contract_codes,
            rows,
            cache=cache,
        )


def _run_shard(
    arrays: Dict[str, np.ndarray],
    lo: int,
    hi: int,
    rep_table: Dict[str, np.ndarray],
    n_response_archetypes: int,
    contracts: Tuple[Contract, ...],
    lagged_payment: bool,
    draw_lo: int,
    draw_hi: int,
    response_cache: Optional[ColumnarResponseCache],
) -> None:
    """One shard's share of a round, over shared arrays.

    Runs the unmodified sequential kernel on a :class:`SharedColumnarView`
    of rows ``[lo, hi)`` with the parent's draw slice ``[draw_lo,
    draw_hi)`` and writes the five output columns (and, when lagged, the
    previous-feedback slice) back into the segment.  Callable both from
    a worker process and inline from the coordinator (crash fallback) —
    both paths are bit-identical because the computation only depends on
    the shared inputs.
    """
    view = SharedColumnarView(arrays, lo, hi, rep_table, n_response_archetypes)
    assignment = _ShardAssignment(contracts, arrays["codes"][lo:hi])
    stub = _PredrawnSlice(arrays["draws"][draw_lo:draw_hi])
    result = fast_columnar_step(
        cast(ColumnarPopulation, view),
        cast(ContractAssignment, assignment),
        arrays["excluded"][lo:hi],
        arrays["previous_feedback"][lo:hi],
        lagged_payment,
        cast(np.random.Generator, stub),
        response_cache=response_cache,
    )
    stub.verify_consumed()
    arrays["efforts"][lo:hi] = result.efforts
    arrays["feedback"][lo:hi] = result.feedback
    arrays["compensation"][lo:hi] = result.compensation
    arrays["rating_deviation"][lo:hi] = result.rating_deviation
    arrays["worker_utility"][lo:hi] = result.worker_utility


def _shard_worker_main(
    conn: Any,
    shm_name: str,
    n_subjects: int,
    lo: int,
    hi: int,
    rep_table: Dict[str, np.ndarray],
    n_response_archetypes: int,
) -> None:
    """A persistent shard worker: attach once, serve rounds until EOF.

    Per-round traffic is O(K): the archetype contract table, the lagged
    flag and the shard's draw-slice bounds.  Contracts are interned by
    content key so the identity-validated response cache hits across
    rounds even though each round's pickle rebuilds new objects.
    """
    segment = _attach_segment(shm_name)
    arrays = _attach_columns(segment.buf, n_subjects)
    response_cache: ColumnarResponseCache = {}
    interned: Dict[Tuple[Any, ...], Contract] = {}
    try:
        while True:
            try:
                op, payload = conn.recv()
            except (EOFError, OSError):
                break
            if op == "shutdown":
                try:
                    conn.send(("ok", None))
                except (OSError, BrokenPipeError):
                    pass
                break
            if op != "round":
                conn.send(("error", f"unknown op {op!r}"))
                continue
            try:
                contracts, lagged_payment, draw_lo, draw_hi = payload
                contracts = tuple(
                    interned.setdefault(contract.content_key(), contract)
                    for contract in contracts
                )
                _run_shard(
                    arrays,
                    lo,
                    hi,
                    rep_table,
                    n_response_archetypes,
                    contracts,
                    lagged_payment,
                    draw_lo,
                    draw_hi,
                    response_cache,
                )
                conn.send(("ok", None))
            except Exception as exc:  # noqa: BLE001 - forwarded to parent
                try:
                    conn.send(("error", f"{type(exc).__name__}: {exc}"))
                except (OSError, BrokenPipeError):
                    break
    finally:
        del arrays
        segment.close()
        try:
            conn.close()
        except OSError:
            pass


class _WorkerHandle:
    __slots__ = ("process", "conn", "lo", "hi")

    def __init__(self, process: Any, conn: Any, lo: int, hi: int) -> None:
        self.process = process
        self.conn = conn
        self.lo = lo
        self.hi = hi


def _release_resources(
    segment: shared_memory.SharedMemory,
    processes: Tuple[Any, ...],
    conns: Tuple[Any, ...],
) -> None:
    """Tear everything down; never raises.  Runs at close/GC/atexit."""
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass
    for process in processes:
        try:
            if process.is_alive():
                process.terminate()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=2.0)
        except Exception:
            pass
    try:
        segment.close()
    except Exception:
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass
    except Exception:
        pass


class ParallelRoundEngine:
    """Persistent pool of shard workers over one shared segment.

    Partitions ``population`` into ``n_workers`` contiguous row slices
    (``edges[i] = i * n // n_workers``), copies the static behaviour
    columns into a fresh ``/dev/shm`` segment once, and forks one
    worker per slice.  Each round, :meth:`run_round` publishes the
    per-round inputs (codes, exclusion, previous feedback, the parent's
    draw block) into the segment, sends each worker an O(K) message,
    and merges the output columns the shards wrote in place.

    Crash handling: a worker whose pipe dies (SIGKILL, crash, timeout)
    is retired and its slice is computed inline by the coordinator over
    the same arrays — bit-identical, so the round always completes;
    ``degraded`` reports that at least one shard has fallen back.  The
    segment is unlinked by :meth:`close`, by a GC finalizer, or at
    interpreter exit, whichever comes first.
    """

    def __init__(
        self,
        population: ColumnarPopulation,
        n_workers: int,
        round_timeout: Optional[float] = None,
    ) -> None:
        if not isinstance(population, ColumnarPopulation):
            raise SimulationError(
                "ParallelRoundEngine requires a ColumnarPopulation"
            )
        if n_workers < 1:
            raise SimulationError(
                f"n_workers must be >= 1, got {n_workers!r}"
            )
        n = population.n_subjects
        self._population = population
        self._n_workers = min(int(n_workers), n)
        self._round_timeout = round_timeout
        self._edges = (
            np.arange(self._n_workers + 1, dtype=np.int64) * n
        ) // self._n_workers
        self._degraded = False
        self._closed = False
        # Snapshot the column objects the segment copies; a population
        # whose behaviour columns are later *replaced* (update_design_
        # columns swaps array objects) must rebuild the engine, and
        # run_round checks identity to fail loudly instead of silently
        # serving stale columns.
        self._sources = {
            "feedback_noise": population.feedback_noise,
            "rating_noise": population.rating_noise,
            "rating_bias": population.rating_bias,
            "act_omega": population.act_omega,
            "beta": population.beta,
            "eval_weight": population.eval_weight,
            "response_codes": population.response_codes,
        }
        self._rep_table = population.response_archetype_table()
        self._n_response = population.n_response_archetypes
        _, size = _segment_layout(n)
        name = f"{SHM_NAME_PREFIX}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._segment = shared_memory.SharedMemory(
            name=name, create=True, size=size
        )
        self._arrays = _attach_columns(self._segment.buf, n)
        for column in self._sources:
            np.copyto(self._arrays[column], self._sources[column])
        # Coordinator-side caches for inline (fallback) shard runs.
        self._local_response_cache: ColumnarResponseCache = {}
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: List[Optional[_WorkerHandle]] = []
        for index in range(self._n_workers):
            lo = int(self._edges[index])
            hi = int(self._edges[index + 1])
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    name,
                    n,
                    lo,
                    hi,
                    self._rep_table,
                    self._n_response,
                ),
                name=f"repro-par-shard-{index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, parent_conn, lo, hi))
        self._finalizer = weakref.finalize(
            self,
            _release_resources,
            self._segment,
            tuple(handle.process for handle in self._workers if handle),
            tuple(handle.conn for handle in self._workers if handle),
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Configured shard count (clamped to the population size)."""
        return self._n_workers

    @property
    def degraded(self) -> bool:
        """True once any shard has been retired to inline fallback."""
        return self._degraded

    @property
    def shard_edges(self) -> Tuple[int, ...]:
        """Row boundaries of the shards (length ``n_workers + 1``)."""
        return tuple(int(edge) for edge in self._edges)

    @property
    def segment_name(self) -> str:
        """The shared segment's name (for leak checks in tests)."""
        return self._segment.name

    def worker_pids(self) -> Tuple[int, ...]:
        """PIDs of the live shard workers (retired shards excluded)."""
        return tuple(
            handle.process.pid
            for handle in self._workers
            if handle is not None and handle.process.pid is not None
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut workers down and unlink the segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            if handle is None or not handle.process.is_alive():
                continue
            try:
                handle.conn.send(("shutdown", None))
            except (OSError, ValueError, BrokenPipeError):
                pass
        self._finalizer()

    def __enter__(self) -> "ParallelRoundEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _retire(self, index: int) -> None:
        handle = self._workers[index]
        if handle is None:
            return
        self._workers[index] = None
        self._degraded = True
        try:
            handle.conn.close()
        except Exception:
            pass
        try:
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
        except Exception:
            pass

    # ------------------------------------------------------------------
    # round execution
    # ------------------------------------------------------------------

    def _check_population(self, population: ColumnarPopulation) -> None:
        if population is not self._population:
            raise SimulationError(
                "parallel engine is bound to a different population; "
                "build a new ParallelRoundEngine"
            )
        for column, source in self._sources.items():
            if getattr(population, column) is not source:
                raise SimulationError(
                    f"population column {column!r} was replaced after the "
                    "engine snapshot; rebuild the ParallelRoundEngine"
                )

    def run_round(
        self,
        population: ColumnarPopulation,
        assignment: ContractAssignment,
        excluded_mask: np.ndarray,
        previous_feedback: np.ndarray,
        lagged_payment: bool,
        active: np.ndarray,
        rows: np.ndarray,
        offsets: np.ndarray,
        total_draws: int,
        draws: Optional[np.ndarray],
    ) -> ColumnarStepResult:
        """Execute one round's shards and merge their columns.

        The caller (:func:`parallel_columnar_step`) has already drawn
        the noise block; this method only moves data and dispatches.
        """
        if self._closed:
            raise SimulationError("parallel engine is closed")
        self._check_population(population)
        arrays = self._arrays
        np.copyto(arrays["codes"], assignment.codes)
        np.copyto(arrays["excluded"], np.asarray(excluded_mask, dtype=bool))
        np.copyto(arrays["previous_feedback"], previous_feedback)
        if total_draws:
            assert draws is not None
            arrays["draws"][:total_draws] = draws

        # Each shard's draw slice: slots are laid out per active row in
        # ascending order, so the slice owned by rows [lo, hi) is
        # [offsets[first active row >= lo], offsets[first active row >=
        # hi]) with total_draws padding the right edge.
        padded = np.append(offsets, np.int64(total_draws))
        positions = np.searchsorted(rows, self._edges)
        draw_edges = padded[positions]

        contracts = assignment.contracts
        pending: List[Tuple[int, _WorkerHandle]] = []
        inline: List[int] = []
        for index in range(self._n_workers):
            handle = self._workers[index]
            if handle is None:
                inline.append(index)
                continue
            message = (
                "round",
                (
                    contracts,
                    lagged_payment,
                    int(draw_edges[index]),
                    int(draw_edges[index + 1]),
                ),
            )
            try:
                handle.conn.send(message)
            except (OSError, ValueError, BrokenPipeError):
                self._retire(index)
                inline.append(index)
                continue
            pending.append((index, handle))
        for index, handle in pending:
            if not self._collect(index, handle):
                inline.append(index)
        for index in inline:
            self._run_inline(
                index, contracts, lagged_payment, draw_edges, previous_feedback
            )

        efforts = arrays["efforts"].copy()
        feedback = arrays["feedback"].copy()
        compensation = arrays["compensation"].copy()
        rating_deviation = arrays["rating_deviation"].copy()
        worker_utility = arrays["worker_utility"].copy()
        if lagged_payment:
            # The kernel mutates the previous-feedback column in place;
            # shards did so inside the segment, so publish it back.
            np.copyto(previous_feedback, arrays["previous_feedback"])
        # The two scalar reductions accumulate strictly left to right
        # over the *merged* columns: per-shard partial sums would
        # reassociate the floating-point adds and drift from the
        # sequential kernel's bits.
        benefit = float(
            np.cumsum(population.eval_weight[rows] * feedback[rows])[-1]
        )
        total_compensation = float(np.cumsum(compensation[rows])[-1])
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

    def _collect(self, index: int, handle: _WorkerHandle) -> bool:
        """Await one shard's reply; False means "recompute inline"."""
        try:
            if self._round_timeout is not None and not handle.conn.poll(
                self._round_timeout
            ):
                raise EOFError(
                    f"shard {index} exceeded {self._round_timeout}s"
                )
            status, detail = handle.conn.recv()
        except (EOFError, OSError, ConnectionResetError):
            self._retire(index)
            return False
        if status != "ok":
            # An application error inside the kernel is deterministic:
            # the inline replay would fail identically, so surface it.
            raise SimulationError(f"shard {index} failed: {detail}")
        return True

    def _run_inline(
        self,
        index: int,
        contracts: Tuple[Contract, ...],
        lagged_payment: bool,
        draw_edges: np.ndarray,
        previous_feedback: np.ndarray,
    ) -> None:
        """Recompute one shard's slice in the coordinator.

        A worker that died mid-round may have partially written its
        previous-feedback slice; restore it from the caller's pristine
        column (unmodified until merge) before replaying so the lagged
        basis is read exactly as the worker would have read it.
        """
        lo = int(self._edges[index])
        hi = int(self._edges[index + 1])
        self._arrays["previous_feedback"][lo:hi] = previous_feedback[lo:hi]
        _run_shard(
            self._arrays,
            lo,
            hi,
            self._rep_table,
            self._n_response,
            contracts,
            lagged_payment,
            int(draw_edges[index]),
            int(draw_edges[index + 1]),
            self._local_response_cache,
        )


def parallel_columnar_step(
    population: ColumnarPopulation,
    assignment: ContractAssignment,
    excluded_mask: np.ndarray,
    previous_feedback: np.ndarray,
    lagged_payment: bool,
    rng: np.random.Generator,
    engine: ParallelRoundEngine,
) -> ColumnarStepResult:
    """The sharded round kernel — bit-identical to the sequential one.

    All randomness stays here, in the coordinator: the active mask and
    per-subject draw slots are computed exactly as in
    :func:`~repro.simulation.engine.fast_columnar_step` and the single
    pinned-order ``standard_normal`` block is drawn from ``rng`` before
    any shard runs (``rng`` advances exactly as in the sequential
    kernel).  Shards then consume contiguous slices of that block
    through shared memory via :meth:`ParallelRoundEngine.run_round`.

    Args:
        population: the columnar population the engine was built for.
        assignment: archetype contract table plus per-subject codes.
        excluded_mask: per-subject exclusion mask (policy + departures).
        previous_feedback: per-subject previous-round feedback column;
            mutated in place when ``lagged_payment`` is set, exactly as
            the sequential kernel mutates it.
        lagged_payment: pay this round on last round's feedback (Eq. 1).
        rng: the round's noise generator (pinned draw order).
        engine: the persistent shard pool to execute on.
    """
    codes = assignment.codes
    n_subjects = population.n_subjects
    active = ~np.asarray(excluded_mask, dtype=bool) & (codes >= 0)
    rows = np.flatnonzero(active)
    if rows.size == 0:
        return ColumnarStepResult(
            active=active,
            efforts=np.zeros(n_subjects),
            feedback=np.zeros(n_subjects),
            compensation=np.zeros(n_subjects),
            rating_deviation=np.zeros(n_subjects),
            worker_utility=np.zeros(n_subjects),
            benefit=0.0,
            total_compensation=0.0,
        )
    feedback_noise = population.feedback_noise[rows]
    rating_noise = population.rating_noise[rows]
    needs_feedback = np.abs(feedback_noise) > ABS_TOL
    needs_rating = np.abs(rating_noise) > ABS_TOL
    counts = needs_feedback.astype(np.int64) + needs_rating.astype(np.int64)
    offsets = np.cumsum(counts) - counts
    total_draws = int(offsets[-1] + counts[-1])
    draws: Optional[np.ndarray] = None
    if total_draws:
        draws = rng.standard_normal(total_draws)
    return engine.run_round(
        population,
        assignment,
        excluded_mask,
        previous_feedback,
        lagged_payment,
        active,
        rows,
        offsets,
        total_draws,
        draws,
    )


def require_parallel_steps_agree(
    parallel: ColumnarStepResult, sequential: ColumnarStepResult
) -> None:
    """Equivalence contract: the sharded round equals the sequential one.

    Exact comparison — the parallel engine runs the identical kernel
    per shard with coordinator-drawn noise and merged-column
    reductions, so *any* difference, down to the last bit, is a
    determinism bug (draw-slice misalignment, shard-boundary leak,
    reassociated reduction) and raises.
    """
    columns = (
        "active",
        "efforts",
        "feedback",
        "compensation",
        "rating_deviation",
        "worker_utility",
    )
    for name in columns:
        ours = getattr(parallel, name)
        reference = getattr(sequential, name)
        if ours.shape != reference.shape:
            raise InvariantViolation(
                f"parallel round {name} shape {ours.shape} != "
                f"sequential {reference.shape}"
            )
        if not np.array_equal(ours, reference):
            diverged = np.flatnonzero(ours != reference)
            raise InvariantViolation(
                f"parallel round diverged from the sequential kernel on "
                f"{name} at rows {diverged[:8].tolist()} "
                f"({diverged.size} total)"
            )
    if parallel.benefit != sequential.benefit:  # noqa: REPRO001 - exact by construction
        raise InvariantViolation(
            f"parallel benefit {parallel.benefit!r} != sequential "
            f"{sequential.benefit!r}"
        )
    if (
        parallel.total_compensation != sequential.total_compensation  # noqa: REPRO001 - exact by construction
    ):
        raise InvariantViolation(
            f"parallel total_compensation {parallel.total_compensation!r} "
            f"!= sequential {sequential.total_compensation!r}"
        )
