"""Tests for trace calibration validation."""

from __future__ import annotations

import dataclasses

from repro.data import (
    AmazonTraceGenerator,
    Product,
    Review,
    ReviewTrace,
    Reviewer,
    TraceConfig,
    validate_trace,
)
from repro.types import WorkerType


class TestValidateGeneratedTrace:
    def test_small_trace_fully_calibrated(self, small_trace):
        report = validate_trace(small_trace, TraceConfig.small())
        assert report.passed, report.format()
        assert not report.failures()

    def test_without_config_checks_structure_only(self, small_trace):
        report = validate_trace(small_trace)
        names = {check.name for check in report.checks}
        assert "clustering_recovers_planted_rings" in names
        assert "count_n_reviews" not in names
        assert report.passed

    def test_wrong_config_fails_counts(self, small_trace):
        wrong = dataclasses.replace(TraceConfig.small(), n_reviews=7_000)
        report = validate_trace(small_trace, wrong)
        assert not report.passed
        failing = {check.name for check in report.failures()}
        assert "count_n_reviews" in failing

    def test_format_mentions_verdicts(self, small_trace):
        rendered = validate_trace(small_trace).format()
        assert "PASS" in rendered


class TestValidateHandBuiltTrace:
    def test_detects_missing_feedback_dominance(self):
        """A trace without collusive upvote inflation fails the Fig. 7
        signature check."""
        products = [
            Product(product_id=f"p{i}", true_quality=3.0, expert_score=3.0)
            for i in range(6)
        ]
        reviewers = [
            Reviewer(reviewer_id="h", worker_type=WorkerType.HONEST),
            Reviewer(
                reviewer_id="c1",
                worker_type=WorkerType.COLLUSIVE_MALICIOUS,
                community_id="ring",
            ),
            Reviewer(
                reviewer_id="c2",
                worker_type=WorkerType.COLLUSIVE_MALICIOUS,
                community_id="ring",
            ),
        ]
        reviews = [
            Review("r1", "h", "p0", 3.0, 300, 5, latent_effort=2.0),
            Review("r2", "c1", "p1", 5.0, 300, 5, latent_effort=2.0),
            Review("r3", "c1", "p2", 5.0, 300, 5, latent_effort=2.0),
            Review("r4", "c2", "p1", 5.0, 300, 5, latent_effort=2.0),
        ]
        trace = ReviewTrace(products=products, reviewers=reviewers, reviews=reviews)
        report = validate_trace(trace)
        failing = {check.name for check in report.failures()}
        assert "collusive_feedback_dominates" in failing

    def test_custom_config_traces_validate(self):
        """A user-customized generator config still yields a calibrated
        trace (the advertised workflow for custom studies)."""
        config = TraceConfig(
            n_reviewers=400,
            n_malicious=60,
            community_sizes=(5, 4, 3, 2, 2),
            n_products=2_000,
            n_reviews=2_600,
            n_prolific_honest=15,
        )
        trace = AmazonTraceGenerator(config, seed=3).generate()
        # Small rings (2-5 members) produce a milder upvote boost, so
        # the dominance threshold is tuned down accordingly.
        report = validate_trace(trace, config, feedback_dominance=1.2)
        assert report.passed, report.format()
