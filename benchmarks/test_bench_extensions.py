"""Benches for the extension experiments (adaptive, camouflage, labeling)."""

from __future__ import annotations

from repro.experiments import ext_adaptive, ext_camouflage, ext_labeling


def test_bench_ext_adaptive(benchmark, context):
    """Time the adaptive-vs-offline convergence experiment."""
    def run():
        result = ext_adaptive.run(context)
        context.invalidate_populations()
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.all_checks_pass, result.format()


def test_bench_ext_camouflage(benchmark, context):
    """Time the camouflaged-attacker experiment."""
    def run():
        result = ext_camouflage.run(context)
        context.invalidate_populations()
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.all_checks_pass, result.format()


def test_bench_ext_labeling(benchmark, context):
    """Time the classification-extension experiment."""
    result = benchmark.pedantic(
        lambda: ext_labeling.run(context), rounds=2, iterations=1
    )
    assert result.all_checks_pass, result.format()


def test_bench_ext_retention(benchmark, context):
    """Time the retention experiment (three policies x 10 rounds)."""
    from repro.experiments import ext_retention

    def run():
        result = ext_retention.run(context)
        context.invalidate_populations()
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.all_checks_pass, result.format()
