"""Integration: the run-all driver over paper artifacts + extensions."""

from __future__ import annotations

from repro.experiments.runner import EXPERIMENTS, EXTENSIONS, run_all


class TestRunAll:
    def test_run_all_with_extensions_small_scale(self, small_context):
        results = run_all(small_context.config, include_extensions=True)
        assert len(results) == len(EXPERIMENTS) + len(EXTENSIONS)
        ids = [result.experiment_id for result in results]
        assert ids[: len(EXPERIMENTS)] == list(EXPERIMENTS)
        failures = {
            result.experiment_id: [
                name for name, ok in result.checks.items() if not ok
            ]
            for result in results
            if not result.all_checks_pass
        }
        assert not failures, failures

    def test_run_all_without_extensions(self, small_context):
        results = run_all(small_context.config, include_extensions=False)
        assert len(results) == len(EXPERIMENTS)
        assert all(not r.experiment_id.startswith("ext_") for r in results)
