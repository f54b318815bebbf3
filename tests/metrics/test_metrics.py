"""Tests for distribution summaries and comparison tables."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.metrics import ComparisonTable, summarize


class TestSummarize:
    def test_known_distribution(self):
        values = list(range(101))
        summary = summarize(values)
        assert summary.mean == pytest.approx(50.0)
        assert summary.p5 == pytest.approx(5.0)
        assert summary.p95 == pytest.approx(95.0)
        assert summary.n == 101
        assert summary.spread == pytest.approx(90.0)

    def test_single_value(self):
        summary = summarize([3.0])
        assert summary.mean == summary.p5 == summary.p95 == 3.0

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            summarize([])


class TestComparisonTable:
    def test_rows_and_ratio(self):
        table = ComparisonTable(title="demo", rows=[])
        table.add("metric_a", measured=2.0, paper=1.0)
        table.add("metric_b", measured=5.0)
        rows = table.as_dict()
        assert rows["metric_a"] == (1.0, 2.0)
        assert rows["metric_b"] == (None, 5.0)
        assert table.rows[0].ratio == pytest.approx(2.0)
        assert table.rows[1].ratio is None

    def test_zero_paper_ratio_none(self):
        table = ComparisonTable(title="demo", rows=[])
        table.add("metric", measured=1.0, paper=0.0)
        assert table.rows[0].ratio is None

    def test_format_contains_rows(self):
        table = ComparisonTable(title="demo", rows=[])
        table.add("alpha", measured=1.5, paper=1.4, note="units")
        rendered = table.format()
        assert "demo" in rendered
        assert "alpha" in rendered
        assert "units" in rendered

    def test_format_empty_rejected(self):
        with pytest.raises(ExperimentError):
            ComparisonTable(title="empty", rows=[]).format()
