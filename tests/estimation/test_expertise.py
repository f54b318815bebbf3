"""Tests for expertise / effort-proxy estimation."""

from __future__ import annotations

import pytest

from repro.data import Product, Review, ReviewTrace, Reviewer
from repro.errors import EstimationError
from repro.estimation import EffortProxy, estimate_expertise
from repro.types import WorkerType


@pytest.fixture()
def trace() -> ReviewTrace:
    products = [
        Product(product_id=f"p{i}", true_quality=3.0, expert_score=3.0)
        for i in range(4)
    ]
    reviewers = [
        Reviewer(reviewer_id="star", worker_type=WorkerType.HONEST),
        Reviewer(reviewer_id="novice", worker_type=WorkerType.HONEST),
        Reviewer(reviewer_id="idle", worker_type=WorkerType.HONEST),
    ]
    reviews = [
        Review("r1", "star", "p0", 3.0, 400, 10),
        Review("r2", "star", "p1", 3.0, 600, 14),
        Review("r3", "novice", "p2", 3.0, 200, 2),
        Review("r4", "novice", "p3", 3.0, 200, 4),
    ]
    return ReviewTrace(products=products, reviewers=reviewers, reviews=reviews)


class TestExpertise:
    def test_mean_upvotes(self, trace):
        expertise = estimate_expertise(trace)
        assert expertise["star"] == pytest.approx(12.0)
        assert expertise["novice"] == pytest.approx(3.0)

    def test_idle_worker_zero(self, trace):
        assert estimate_expertise(trace)["idle"] == 0.0


class TestEffortProxy:
    def test_from_trace_normalizers(self, trace):
        proxy = EffortProxy.from_trace(trace)
        assert proxy.mean_expertise == pytest.approx((12.0 + 3.0) / 2)
        assert proxy.mean_length == pytest.approx((400 + 600 + 200 + 200) / 4)

    def test_effort_formula(self, trace):
        proxy = EffortProxy.from_trace(trace)
        effort = proxy.effort_of("star", 400)
        expected = (12.0 / proxy.mean_expertise) * (400 / proxy.mean_length)
        assert effort == pytest.approx(expected)

    def test_effort_monotone_in_length_and_expertise(self, trace):
        proxy = EffortProxy.from_trace(trace)
        assert proxy.effort_of("star", 500) > proxy.effort_of("star", 100)
        assert proxy.effort_of("star", 300) > proxy.effort_of("novice", 300)

    def test_unknown_worker_rejected(self, trace):
        proxy = EffortProxy.from_trace(trace)
        with pytest.raises(EstimationError):
            proxy.effort_of("ghost", 100)

    def test_nonpositive_length_rejected(self, trace):
        proxy = EffortProxy.from_trace(trace)
        with pytest.raises(EstimationError):
            proxy.effort_of("star", 0)

    def test_worker_points_alignment(self, trace):
        proxy = EffortProxy.from_trace(trace)
        efforts, upvotes = proxy.worker_points(trace, "star")
        assert efforts.shape == upvotes.shape == (2,)
        assert upvotes.tolist() == [10.0, 14.0]

    def test_class_points_one_per_worker(self, trace):
        proxy = EffortProxy.from_trace(trace)
        efforts, feedbacks = proxy.class_points(trace, ["star", "novice", "idle"])
        # idle has no reviews and is skipped.
        assert efforts.shape == (2,)
        assert feedbacks.tolist() == [12.0, 3.0]

    def test_empty_trace_rejected(self):
        empty = ReviewTrace(products=[], reviewers=[], reviews=[])
        with pytest.raises(EstimationError):
            EffortProxy.from_trace(empty)
