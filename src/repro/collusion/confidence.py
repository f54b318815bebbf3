"""Statistical confidence of detected collusive communities.

Section IV-A's clustering declares two malicious workers collusive when
they share a target product, and the paper asserts the approach
distinguishes collusive workers "with a given probability".  This module
quantifies that probability: under a null model where each of the two
workers picks its products independently and uniformly from a catalog
of size ``N``, the chance of at least one shared product is

    P(collision) = 1 - C(N - a, b) / C(N, b)

for workers with ``a`` and ``b`` products.  A detected edge's confidence
is ``1 - P(collision)`` — near 1 on Amazon-sized catalogs, which is why
the simple rule works there, and measurably lower on small catalogs.
Community-level confidence aggregates edge evidence over a spanning set
of the component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Tuple

from ..errors import DataError
from .clustering import CollusionClusters

__all__ = [
    "edge_collision_probability",
    "edge_confidence",
    "CommunityConfidence",
    "community_confidences",
]


def edge_collision_probability(
    n_products: int, n_targets_a: int, n_targets_b: int
) -> float:
    """P(two independent uniform workers share >= 1 product).

    Args:
        n_products: catalog size ``N``.
        n_targets_a: products targeted by the first worker.
        n_targets_b: products targeted by the second worker.

    Returns:
        The null-model collision probability in ``[0, 1]``.
    """
    if n_products < 1:
        raise DataError(f"n_products must be >= 1, got {n_products!r}")
    for name, value in (("n_targets_a", n_targets_a), ("n_targets_b", n_targets_b)):
        if value < 0:
            raise DataError(f"{name} must be >= 0, got {value!r}")
    if n_targets_a == 0 or n_targets_b == 0:
        return 0.0
    if n_targets_a + n_targets_b > n_products:
        # Pigeonhole: a shared product is unavoidable.
        return 1.0
    # log C(N - a, b) - log C(N, b) = sum_{i=0..b-1} log((N-a-i)/(N-i))
    log_no_collision = 0.0
    for index in range(n_targets_b):
        log_no_collision += math.log(
            (n_products - n_targets_a - index) / (n_products - index)
        )
    return 1.0 - math.exp(log_no_collision)


def edge_confidence(
    n_products: int, n_targets_a: int, n_targets_b: int
) -> float:
    """Confidence that a shared-target edge reflects true collusion.

    ``1 - P(collision under independence)``: the probability the edge
    would *not* arise by chance.
    """
    return 1.0 - edge_collision_probability(n_products, n_targets_a, n_targets_b)


@dataclass(frozen=True)
class CommunityConfidence:
    """Confidence assessment of one detected community.

    Attributes:
        community: the member set.
        edge_confidences: per detected shared-target pair, the chance the
            pair is not coincidental.
        confidence: community-level confidence — the probability that
            none of the (size - 1) linking edges of a spanning set is
            coincidental (edges treated as independent).
    """

    community: FrozenSet[Hashable]
    edge_confidences: Tuple[float, ...]
    confidence: float

    @property
    def size(self) -> int:
        """Community size."""
        return len(self.community)


def community_confidences(
    clusters: CollusionClusters,
    worker_targets: Mapping[Hashable, Iterable[Hashable]],
    n_products: int,
) -> List[CommunityConfidence]:
    """Score every detected community against the independence null.

    For each community, (size - 1) linking edges suffice to connect it;
    we take the *strongest* (highest-confidence) spanning edges — the
    clustering would have found the community via those even if the
    weaker coincidental-looking edges were discarded.

    Args:
        clusters: the Section IV-A clustering result.
        worker_targets: the same worker -> targets mapping it was built
            from.
        n_products: catalog size for the null model.
    """
    target_counts: Dict[Hashable, int] = {
        worker: len(set(targets)) for worker, targets in worker_targets.items()
    }
    results: List[CommunityConfidence] = []
    for community in clusters.communities:
        members = sorted(community, key=str)
        edges: List[float] = []
        target_sets = {
            member: set(worker_targets.get(member, ())) for member in members
        }
        for index, left in enumerate(members):
            for right in members[index + 1 :]:
                if target_sets[left] & target_sets[right]:
                    edges.append(
                        edge_confidence(
                            n_products,
                            target_counts.get(left, 0),
                            target_counts.get(right, 0),
                        )
                    )
        if not edges:
            raise DataError(
                f"community {members!r} has no shared-target edge; "
                "it cannot have come from this worker_targets mapping"
            )
        edges.sort(reverse=True)
        spanning = edges[: len(members) - 1]
        confidence = 1.0
        for edge in spanning:
            confidence *= edge
        results.append(
            CommunityConfidence(
                community=community,
                edge_confidences=tuple(edges),
                confidence=confidence,
            )
        )
    return results
