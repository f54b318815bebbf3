"""Tests for markdown report generation."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.report import render_markdown, write_report
from repro.experiments import table2_communities


class TestRender:
    def test_renders_sections_and_checks(self, small_context):
        result = table2_communities.run(small_context)
        markdown = render_markdown([result], title="demo")
        assert "# demo" in markdown
        assert "## table2" in markdown
        assert "- [x]" in markdown
        assert "shape checks passing" in markdown

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            render_markdown([], title="empty")


class TestWriteReport:
    def test_writes_selected_experiments(self, small_context, tmp_path):
        out = tmp_path / "report.md"
        written = write_report(
            out,
            config=small_context.config,
            experiment_ids=["table2", "fig6"],
        )
        content = written.read_text()
        assert "## table2" in content
        assert "## fig6" in content
        assert "## fig8c" not in content

    def test_unknown_experiment_rejected(self, small_context, tmp_path):
        with pytest.raises(ExperimentError):
            write_report(
                tmp_path / "report.md",
                config=small_context.config,
                experiment_ids=["fig99"],
            )

    def test_cli_report_command(self, small_context, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "cli_report.md"
        # Use the already-cached small context's seed for speed.
        code = main(
            [
                "report",
                "--out",
                str(out),
                "--scale",
                "small",
                "--seed",
                str(small_context.config.seed),
                "--no-extensions",
            ]
        )
        assert code == 0
        assert out.exists()
        assert "## table3" in out.read_text()
