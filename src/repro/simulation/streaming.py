"""Bounded-memory round accounting for very large populations.

:class:`StreamingLedger` is the one ledger with retention off: each
round's per-subject columns are folded into the views on append and
dropped, so it holds O(rounds) Python state at any population size.
Its series, per-class compensation means and ``cache_hit_rate`` equal a
retaining ledger's; run-level effort means come from running sums and
compensation quantiles from a :class:`StreamingHistogram`, unless an
:class:`OutcomeSpill` writes the columns to disk, which makes both
exact.  Its records carry no per-subject outcomes.
"""

from __future__ import annotations

from typing import Optional

from .ledger import (
    SPILL_DTYPE,
    OutcomeSpill,
    SimulationLedger,
    StreamingHistogram,
)

__all__ = [
    "SPILL_DTYPE",
    "OutcomeSpill",
    "StreamingHistogram",
    "StreamingLedger",
]


class StreamingLedger(SimulationLedger):
    """A :class:`SimulationLedger` that keeps no per-subject columns.

    Args:
        spill: optional per-subject outcome spill (exact history and
            exact run-level views at file-system cost).
    """

    retains_outcomes = False

    def __init__(self, spill: Optional[OutcomeSpill] = None) -> None:
        super().__init__()
        self.spill = spill
