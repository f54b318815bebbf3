"""Tests for collusion-detection confidence scoring."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collusion import (
    cluster_collusive_workers,
    community_confidences,
    edge_collision_probability,
    edge_confidence,
)
from repro.errors import DataError


class TestEdgeProbability:
    def test_zero_targets_no_collision(self):
        assert edge_collision_probability(100, 0, 3) == 0.0
        assert edge_collision_probability(100, 3, 0) == 0.0

    def test_pigeonhole_certain_collision(self):
        assert edge_collision_probability(5, 3, 3) == 1.0

    def test_single_target_each(self):
        # P(same product) = 1/N.
        assert edge_collision_probability(100, 1, 1) == pytest.approx(0.01)

    def test_exact_small_case(self):
        # N=4, a=2, b=2: P(no overlap) = C(2,2)/C(4,2) = 1/6.
        assert edge_collision_probability(4, 2, 2) == pytest.approx(5.0 / 6.0)

    def test_large_catalog_tiny_probability(self):
        probability = edge_collision_probability(75_508, 3, 3)
        assert probability < 2e-4

    def test_confidence_complements(self):
        assert edge_confidence(100, 2, 2) == pytest.approx(
            1.0 - edge_collision_probability(100, 2, 2)
        )

    def test_validation(self):
        with pytest.raises(DataError):
            edge_collision_probability(0, 1, 1)
        with pytest.raises(DataError):
            edge_collision_probability(10, -1, 1)

    @given(
        n=st.integers(min_value=2, max_value=10_000),
        a=st.integers(min_value=0, max_value=30),
        b=st.integers(min_value=0, max_value=30),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_probability_bounded_and_monotone(self, n, a, b):
        probability = edge_collision_probability(n, a, b)
        assert 0.0 <= probability <= 1.0
        if a > 0:
            # More targets can only raise the collision chance.
            assert edge_collision_probability(n, a - 1, b) <= probability + 1e-12


class TestCommunityConfidence:
    def test_large_catalog_high_confidence(self):
        targets = {"w1": ["p1", "p2"], "w2": ["p1", "p3"], "w3": ["p9"]}
        clusters = cluster_collusive_workers(targets)
        scores = community_confidences(clusters, targets, n_products=100_000)
        assert len(scores) == 1
        assert scores[0].confidence > 0.999
        assert scores[0].size == 2

    def test_small_catalog_low_confidence(self):
        targets = {"w1": ["p1", "p2", "p3"], "w2": ["p1", "p4", "p5"]}
        clusters = cluster_collusive_workers(targets)
        high = community_confidences(clusters, targets, n_products=100_000)[0]
        low = community_confidences(clusters, targets, n_products=12)[0]
        assert low.confidence < high.confidence

    def test_confidence_multiplies_spanning_edges(self):
        # A 3-chain has exactly 2 spanning edges.
        targets = {"a": ["p1"], "b": ["p1", "p2"], "c": ["p2"]}
        clusters = cluster_collusive_workers(targets)
        score = community_confidences(clusters, targets, n_products=50)[0]
        assert score.size == 3
        assert len(score.edge_confidences) == 2
        expected = score.edge_confidences[0] * score.edge_confidences[1]
        assert score.confidence == pytest.approx(expected)

    def test_mismatched_targets_rejected(self):
        targets = {"w1": ["p1"], "w2": ["p1"]}
        clusters = cluster_collusive_workers(targets)
        with pytest.raises(DataError):
            community_confidences(
                clusters, {"w1": ["x"], "w2": ["y"]}, n_products=100
            )

    def test_synthetic_trace_communities_confident(self, small_trace, small_clusters):
        targets = small_trace.malicious_targets()
        scores = community_confidences(
            small_clusters, targets, n_products=small_trace.n_products
        )
        assert len(scores) == small_clusters.n_communities
        assert all(score.confidence > 0.9 for score in scores)
