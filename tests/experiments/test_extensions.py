"""End-to-end tests for the extension experiments."""

from __future__ import annotations

from repro.experiments import (
    ext_adaptive,
    ext_budget,
    ext_camouflage,
    ext_labeling,
    ext_retention,
)
from repro.experiments.runner import EXTENSIONS, run_experiment


class TestExtensionDrivers:
    def test_ext_adaptive(self, small_context):
        result = ext_adaptive.run(small_context)
        assert result.experiment_id == "ext_adaptive"
        assert result.all_checks_pass, result.format()
        assert len(result.data["adaptive_series"]) == len(
            result.data["offline_series"]
        )

    def test_ext_camouflage(self, small_context):
        result = ext_camouflage.run(small_context)
        assert result.all_checks_pass, result.format()
        attack_round = result.data["attack_round"]
        online_pay = result.data["online_pay"]
        oneshot_pay = result.data["oneshot_pay"]
        # After the flip the online policy pays the attackers less than
        # the one-shot policy does.
        post_online = sum(online_pay[attack_round + 2 :])
        post_oneshot = sum(oneshot_pay[attack_round + 2 :])
        assert post_online < post_oneshot

    def test_ext_labeling(self, small_context):
        result = ext_labeling.run(small_context)
        assert result.all_checks_pass, result.format()
        assert result.data["dynamic_accuracy"] > result.data["fixed_accuracy"]

    def test_ext_budget(self, small_context):
        result = ext_budget.run(small_context)
        assert result.all_checks_pass, result.format()
        utilities = result.data["utilities"]
        assert utilities[-1] >= utilities[0]

    def test_ext_retention(self, small_context):
        result = ext_retention.run(small_context)
        assert result.all_checks_pass, result.format()
        rates = result.data["retention_rates"]
        assert rates["floored-dynamic"] > rates["paper-dynamic"]

    def test_registry(self):
        assert set(EXTENSIONS) == {
            "ext_adaptive",
            "ext_budget",
            "ext_camouflage",
            "ext_labeling",
            "ext_retention",
        }

    def test_runner_resolves_extensions(self, small_context):
        result = run_experiment("ext_labeling", small_context.config)
        assert result.experiment_id == "ext_labeling"
