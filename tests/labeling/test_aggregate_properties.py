"""Property tests for label aggregation."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.labeling import LabelSheet, majority_vote, weighted_vote


def _sheets(label_matrix):
    return [
        LabelSheet(
            worker_id=f"w{i}",
            labels=np.asarray(row, dtype=bool),
            effort=1.0,
        )
        for i, row in enumerate(label_matrix)
    ]


_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n_tasks: st.lists(
        st.lists(st.booleans(), min_size=n_tasks, max_size=n_tasks),
        min_size=1,
        max_size=7,
    )
)


@given(matrix=_matrices)
@settings(max_examples=150, deadline=None)
def test_property_unanimity_preserved(matrix):
    """If every worker agrees on a task, every vote scheme keeps it."""
    sheets = _sheets(matrix)
    labels = np.array(matrix, dtype=bool)
    consensus = majority_vote(sheets)
    weights = {sheet.worker_id: 1.0 for sheet in sheets}
    weighted = weighted_vote(sheets, weights)
    for task in range(labels.shape[1]):
        column = labels[:, task]
        if column.all():
            assert consensus[task]
            assert weighted[task]
        if not column.any():
            assert not consensus[task]
            assert not weighted[task]


@given(matrix=_matrices)
@settings(max_examples=150, deadline=None)
def test_property_equal_weights_match_majority(matrix):
    """Uniform positive weights reduce the weighted vote to majority."""
    sheets = _sheets(matrix)
    weights = {sheet.worker_id: 2.5 for sheet in sheets}
    assert weighted_vote(sheets, weights).tolist() == majority_vote(sheets).tolist()


@given(matrix=_matrices, boost=st.floats(min_value=10.0, max_value=100.0))
@settings(max_examples=100, deadline=None)
def test_property_dominant_weight_dictates_consensus(matrix, boost):
    """A worker whose weight exceeds everyone else's combined always
    gets its labels adopted."""
    sheets = _sheets(matrix)
    weights = {sheet.worker_id: 1.0 for sheet in sheets}
    dictator = sheets[0]
    weights[dictator.worker_id] = boost * len(sheets)
    consensus = weighted_vote(sheets, weights)
    assert consensus.tolist() == dictator.labels.tolist()


@given(matrix=_matrices)
@settings(max_examples=100, deadline=None)
def test_property_negative_weights_ignored(matrix):
    """Negative weights are clamped to zero, never inverted."""
    sheets = _sheets(matrix)
    if len(sheets) < 2:
        return
    weights = {sheet.worker_id: 1.0 for sheet in sheets}
    weights[sheets[0].worker_id] = -100.0
    consensus = weighted_vote(sheets, weights)
    without = weighted_vote(
        sheets[1:], {s.worker_id: 1.0 for s in sheets[1:]}
    )
    assert consensus.tolist() == without.tolist()
