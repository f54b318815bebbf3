"""Bench: Table II — collusive-community clustering.

Regenerates the community-size distribution (small scale) and times the
Section IV-A pipeline at the paper's full malicious-population size on a
synthetic target map with the exact Table II community structure.
"""

from __future__ import annotations

from repro.collusion import cluster_collusive_workers, community_size_table
from repro.data.synthetic import PAPER_COMMUNITY_SIZES
from repro.experiments import table2_communities


def test_bench_table2_experiment(benchmark, context):
    """Time the full Table II driver (clustering + bucketing)."""
    result = benchmark(table2_communities.run, context)
    assert result.all_checks_pass, result.format()


def _paper_scale_targets():
    """A worker -> targets map with the paper's exact structure: 47
    communities per PAPER_COMMUNITY_SIZES plus 1,312 non-collusive
    malicious workers, each on private products."""
    targets = {}
    product = 0
    worker = 0
    for size in PAPER_COMMUNITY_SIZES:
        anchor = f"p{product}"
        product += 1
        for _ in range(size):
            extra = f"p{product}"
            product += 1
            targets[f"w{worker}"] = [anchor, extra]
            worker += 1
    for _ in range(1_312):
        targets[f"w{worker}"] = [f"p{product}", f"p{product + 1}"]
        product += 2
        worker += 1
    return targets


def test_bench_table2_clustering_paper_scale(benchmark):
    """Time clustering over the full 1,524-worker malicious population."""
    targets = _paper_scale_targets()
    clusters = benchmark(cluster_collusive_workers, targets)
    assert clusters.n_communities == 47
    assert clusters.n_collusive_workers == 212
    assert len(clusters.noncollusive) == 1_312
    table = community_size_table(clusters)
    assert table.counts[2] == PAPER_COMMUNITY_SIZES.count(2)
