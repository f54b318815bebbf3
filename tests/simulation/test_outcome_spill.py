"""OutcomeSpill edge cases: empty rounds, exact chunk boundaries, truncation.

The spill format is self-describing only given the dtype and a constant
population size, so the failure modes worth pinning are the silent
ones: an ``np.memmap`` over a truncated file happily reads garbage past
the written bytes, and zero-size rounds must map back as a valid empty
history instead of tripping mmap's empty-file rejection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation import OutcomeSpill
from repro.simulation.ledger import SPILL_BUFFER_ROUNDS
from repro.simulation.streaming import SPILL_DTYPE


def _round(n_subjects: int, fill: float) -> np.ndarray:
    rows = np.zeros(n_subjects, dtype=SPILL_DTYPE)
    rows["effort"] = fill
    rows["feedback"] = fill * 2.0
    rows["excluded"] = False
    return rows


def test_zero_subject_rounds_map_back_empty(tmp_path):
    """An empty population still spills and maps back, shape intact."""
    spill = OutcomeSpill(tmp_path / "empty.bin")
    spill.append_round(_round(0, 0.0))
    spill.append_round(_round(0, 0.0))
    history = spill.as_array()
    assert history.shape == (2, 0)
    assert history.dtype == SPILL_DTYPE
    spill.close()


def test_no_rounds_yet_raises(tmp_path):
    spill = OutcomeSpill(tmp_path / "none.bin")
    with pytest.raises(SimulationError, match="no rounds"):
        spill.as_array()
    spill.close()


def test_chunk_boundary_exact_counts(tmp_path):
    """Appending an exact multiple of SPILL_BUFFER_ROUNDS flushes
    everything with no stragglers: file size, shape and values all line
    up."""
    buffer_rounds = SPILL_BUFFER_ROUNDS
    n_subjects = 5
    spill = OutcomeSpill(tmp_path / "exact.bin")
    for index in range(2 * buffer_rounds):
        spill.append_round(_round(n_subjects, float(index)))
    # The buffer drained exactly at the boundary; nothing pending.
    assert spill._buffer == []
    size = (tmp_path / "exact.bin").stat().st_size
    assert size == 2 * buffer_rounds * n_subjects * SPILL_DTYPE.itemsize
    history = spill.as_array()
    assert history.shape == (2 * buffer_rounds, n_subjects)
    for index in range(2 * buffer_rounds):
        assert np.all(history[index]["effort"] == float(index))
        assert np.all(history[index]["feedback"] == 2.0 * index)
    spill.close()


def test_one_round_past_boundary_flushes_on_read(tmp_path):
    spill = OutcomeSpill(tmp_path / "partial.bin")
    n_rounds = SPILL_BUFFER_ROUNDS + 1
    for index in range(n_rounds):
        spill.append_round(_round(3, float(index)))
    history = spill.as_array()
    assert history.shape == (n_rounds, 3)
    assert np.all(history[-1]["effort"] == float(n_rounds - 1))
    spill.close()


def test_truncated_file_fails_loudly(tmp_path):
    """A spill whose file lost bytes must raise, not memmap garbage."""
    path = tmp_path / "truncated.bin"
    spill = OutcomeSpill(path)
    for index in range(3):
        spill.append_round(_round(4, float(index)))
    spill.flush()
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - SPILL_DTYPE.itemsize])
    with pytest.raises(SimulationError, match="truncated"):
        spill.as_array()
    spill.close()


def test_foreign_overwrite_fails_loudly(tmp_path):
    """Extra bytes (another spill's writes) are as fatal as missing ones."""
    path = tmp_path / "foreign.bin"
    spill = OutcomeSpill(path)
    spill.append_round(_round(2, 1.0))
    spill.flush()
    with open(path, "ab") as handle:
        handle.write(b"\x00" * 7)
    with pytest.raises(SimulationError, match="truncated or"):
        spill.as_array()
    spill.close()


def test_close_is_idempotent_and_final(tmp_path):
    spill = OutcomeSpill(tmp_path / "closed.bin")
    spill.append_round(_round(2, 1.0))
    spill.close()
    spill.close()
    with pytest.raises(SimulationError, match="closed"):
        spill.append_round(_round(2, 2.0))
