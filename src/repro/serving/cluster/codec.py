"""The cluster's one wire format: columnar batch frames and solved designs.

Every solve request, over HTTP and over the shard pipes, travels as a
**columnar batch frame**.  A population batch holds at most a few dozen
*design archetypes* (unique fingerprints) among millions of subjects,
so instead of shipping one object per subject a frame packs one
``(K, 7)`` float64 archetype table + per-archetype worker types /
representative ids / fingerprints, plus an ``(n,)`` int64 code vector
mapping each request to its archetype row.  A single design is a
one-row frame.  A shard solves the K representatives and replies with
K designs; the caller fans the results back out through the codes.
Each row carries its fingerprint, the key the router caches the design
under.  Fingerprints deliberately exclude ``subject_id``/``member_ids``,
which is what makes the rebuilt ``member_ids=()`` representatives solve
and cache exactly as the originals.

A solved design serializes to the quantities downstream consumers read
off a :class:`~repro.core.designer.DesignResult` — the posted
compensation vector, the selected piece, the best response and the
requester utility.  Python's :mod:`json` emits ``repr``-style floats,
which round-trip every finite double exactly, so frames and
compensation vectors survive the HTTP hop bit-identically — the cluster
benchmarks assert that against serial solving.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...core.decomposition import Subproblem
from ...core.designer import DesignResult
from ...core.effort import QuadraticEffort
from ...errors import ServingError
from ...types import WorkerParameters, WorkerType

__all__ = [
    "columnar_frame",
    "design_to_json",
    "frame_from_json",
    "frame_to_json",
    "subproblems_from_frame",
]

#: Wire sentinel for "no effort cap" in the archetype table.  Caps are
#: strictly positive, and a float sentinel keeps the table NaN-free so
#: it survives JSON (which cannot carry NaN) and byte comparisons.
_NO_MAX_EFFORT_WIRE = -1.0

#: Worker types in wire-code order (index == code).
_WIRE_WORKER_TYPES: Tuple[WorkerType, ...] = tuple(WorkerType)
_WIRE_WORKER_CODES: Dict[WorkerType, int] = {
    worker_type: code for code, worker_type in enumerate(_WIRE_WORKER_TYPES)
}


def design_to_json(
    subject_id: str,
    result: DesignResult,
    fingerprint: Optional[str] = None,
    cache_hit: Optional[bool] = None,
) -> Dict[str, Any]:
    """Encode one solved design as a JSON-serializable dict."""
    payload: Dict[str, Any] = {
        "subject_id": subject_id,
        "hired": result.hired,
        "k_opt": result.k_opt,
        "compensations": list(result.contract.compensations),
        "requester_utility": result.requester_utility,
        "effort": result.effort,
        "compensation": result.compensation,
    }
    if fingerprint is not None:
        payload["fingerprint"] = fingerprint
    if cache_hit is not None:
        payload["cache_hit"] = cache_hit
    return payload


def columnar_frame(
    subproblems: Sequence[Subproblem], fingerprints: Sequence[str]
) -> Dict[str, Any]:
    """Pack a solve batch into the archetype-table + codes wire frame.

    Groups requests by fingerprint: row ``k`` of the table holds the
    k-th distinct archetype (in first-appearance order) and
    ``codes[i]`` maps request ``i`` to its row.  The frame carries the
    *given* fingerprints, the keys the router caches under.
    """
    if len(subproblems) != len(fingerprints):
        raise ServingError(
            f"frame needs one fingerprint per subproblem, got "
            f"{len(subproblems)} subproblems and {len(fingerprints)} "
            "fingerprints"
        )
    slots: Dict[str, int] = {}
    codes = np.empty(len(subproblems), dtype=np.int64)
    representatives: List[Subproblem] = []
    rep_fingerprints: List[str] = []
    for index, (subproblem, fingerprint) in enumerate(
        zip(subproblems, fingerprints)
    ):
        slot = slots.get(fingerprint)
        if slot is None:
            slot = len(representatives)
            slots[fingerprint] = slot
            representatives.append(subproblem)
            rep_fingerprints.append(fingerprint)
        codes[index] = slot
    table = np.empty((len(representatives), 7), dtype=np.float64)
    worker_types = np.empty(len(representatives), dtype=np.int64)
    for slot, subproblem in enumerate(representatives):
        r2, r1, r0 = subproblem.effort_function.coefficients()
        table[slot] = (
            r2,
            r1,
            r0,
            subproblem.params.beta,
            subproblem.params.omega,
            subproblem.feedback_weight,
            _NO_MAX_EFFORT_WIRE
            if subproblem.max_effort is None
            else subproblem.max_effort,
        )
        worker_types[slot] = _WIRE_WORKER_CODES[subproblem.params.worker_type]
    return {
        "table": table,
        "worker_types": worker_types,
        "subject_ids": tuple(
            subproblem.subject_id for subproblem in representatives
        ),
        "fingerprints": tuple(rep_fingerprints),
        "codes": codes,
    }


def subproblems_from_frame(
    frame: Mapping[str, Any],
) -> Tuple[List[Subproblem], List[str]]:
    """Rebuild one representative :class:`Subproblem` per archetype row.

    ``member_ids`` are dropped (``()``): the design fingerprint — and
    therefore the designed contract and every cache key — deliberately
    excludes them, so the rebuilt representative solves identically to
    the original batch's subproblems.

    Returns:
        ``(subproblems, fingerprints)`` of length K, aligned by row.

    Raises:
        ServingError: on malformed frames (shape/code-range/field
            errors), so transports can map them to a 400.
    """
    try:
        table = np.asarray(frame["table"], dtype=np.float64)
        worker_types = np.asarray(frame["worker_types"], dtype=np.int64)
        subject_ids = tuple(frame["subject_ids"])
        fingerprints = [str(value) for value in frame["fingerprints"]]
        codes = np.asarray(frame["codes"], dtype=np.int64)
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise ServingError(f"malformed columnar frame: {error}") from error
    if table.ndim != 2 or table.shape[1] != 7:
        raise ServingError(
            f"frame table must have shape (K, 7), got {table.shape!r}"
        )
    n_archetypes = table.shape[0]
    if not (
        len(subject_ids) == len(fingerprints) == worker_types.shape[0]
        == n_archetypes
    ):
        raise ServingError(
            "frame archetype fields disagree on K: "
            f"table {n_archetypes}, worker_types {worker_types.shape[0]}, "
            f"subject_ids {len(subject_ids)}, "
            f"fingerprints {len(fingerprints)}"
        )
    if codes.ndim != 1:
        raise ServingError(
            f"frame codes must be one-dimensional, got {codes.shape!r}"
        )
    if codes.size and not (
        0 <= int(codes.min()) and int(codes.max()) < n_archetypes
    ):
        raise ServingError(
            f"frame codes reference archetypes outside [0, {n_archetypes})"
        )
    if worker_types.size and not (
        0 <= int(worker_types.min())
        and int(worker_types.max()) < len(_WIRE_WORKER_TYPES)
    ):
        raise ServingError("frame worker_types outside the wire-code range")
    subproblems: List[Subproblem] = []
    try:
        for slot in range(n_archetypes):
            r2, r1, r0, beta, omega, weight, cap = (
                float(value) for value in table[slot]
            )
            subproblems.append(
                Subproblem(
                    subject_id=str(subject_ids[slot]),
                    effort_function=QuadraticEffort(r2=r2, r1=r1, r0=r0),
                    params=WorkerParameters(
                        beta=beta,
                        omega=omega,
                        worker_type=_WIRE_WORKER_TYPES[
                            int(worker_types[slot])
                        ],
                    ),
                    feedback_weight=weight,
                    member_ids=(),
                    max_effort=(
                        None
                        if cap == _NO_MAX_EFFORT_WIRE  # noqa: REPRO001 - exact wire sentinel
                        else cap
                    ),
                )
            )
    except ServingError:
        raise
    except Exception as error:  # noqa: BLE001 - model validation -> 400
        raise ServingError(f"invalid frame archetype: {error}") from error
    return subproblems, fingerprints


def frame_to_json(frame: Mapping[str, Any]) -> Dict[str, Any]:
    """Encode a columnar frame as a JSON-serializable dict."""
    return {
        "table": np.asarray(frame["table"], dtype=np.float64).tolist(),
        "worker_types": np.asarray(
            frame["worker_types"], dtype=np.int64
        ).tolist(),
        "subject_ids": list(frame["subject_ids"]),
        "fingerprints": list(frame["fingerprints"]),
        "codes": np.asarray(frame["codes"], dtype=np.int64).tolist(),
    }


def _json_list(payload: Any, key: str, kinds: Tuple[type, ...]) -> List[Any]:
    """``payload[key]``: a JSON list whose items are exactly of ``kinds``.

    Exact types, so a ``bool`` (an ``int`` subclass) or a ``float`` never
    passes for an integer and is never silently truncated.
    """
    try:
        values = payload[key]
    except (KeyError, TypeError) as error:
        raise ServingError(f"malformed columnar frame: no {key!r} field") from error
    if not isinstance(values, list) or any(
        type(value) not in kinds for value in values
    ):
        names = " or ".join(kind.__name__ for kind in kinds)
        raise ServingError(f"frame {key} must be a JSON list of {names}")
    return values


def _packed(values: List[Any], key: str, dtype: type) -> np.ndarray:
    """``values`` as an array of ``dtype``, or a ServingError naming ``key``."""
    try:
        return np.asarray(values, dtype=dtype)
    except (ValueError, OverflowError) as error:
        raise ServingError(
            f"frame {key} does not pack into {np.dtype(dtype)}: {error}"
        ) from error


def frame_from_json(payload: Any) -> Dict[str, Any]:
    """Decode a columnar frame from JSON (packs lists back to arrays).

    The JSON boundary is strict: ``table`` is a list of rows of finite
    numbers, ``worker_types`` and ``codes`` are lists of integers within
    int64, ``subject_ids`` and ``fingerprints`` are lists of strings.
    Anything else raises :class:`ServingError` (a 400 over HTTP).
    """
    rows = _json_list(payload, "table", (list,))
    if any(type(value) not in (int, float) for row in rows for value in row):
        raise ServingError("frame table rows must be JSON lists of numbers")
    table = _packed(rows, "table", np.float64) if rows else np.empty((0, 7))
    if not np.isfinite(table).all():
        raise ServingError("frame table must hold finite numbers")
    return {
        "table": table,
        "worker_types": _packed(
            _json_list(payload, "worker_types", (int,)), "worker_types", np.int64
        ),
        "subject_ids": tuple(_json_list(payload, "subject_ids", (str,))),
        "fingerprints": tuple(_json_list(payload, "fingerprints", (str,))),
        "codes": _packed(_json_list(payload, "codes", (int,)), "codes", np.int64),
    }
