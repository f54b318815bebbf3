"""Bounded LRU cache of solved contract designs.

The marketplace re-posts contracts round after round, and the Section
IV-B decomposition means most rounds re-solve subproblems that are
*identical* to last round's (same class fit, same parameters, same
weight).  The cache keys solved :class:`~repro.core.designer.DesignResult`
objects by their :mod:`~repro.serving.fingerprint` and serves them back,
turning steady-state rounds into dictionary lookups.

Correctness invariant: a cached design must agree with a fresh solve of
the same fingerprint to :mod:`repro.numerics` tolerance (they are in
fact bit-identical — the designer is deterministic — but the invariant
is stated and checked at tolerance so it stays meaningful if the solver
ever gains a non-deterministic backend).  The check runs on every cache
hit when ``REPRO_CHECK_INVARIANTS=1``, mirroring the Lemma 4.2/4.3
runtime layer: tests pay for the re-solve, production paths don't.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from ..analysis.invariants import InvariantViolation, invariants_enabled
from ..core.designer import DesignResult
from ..errors import ServingError
from ..numerics import close
from ..obs.metrics import Counter

__all__ = [
    "CacheStats",
    "LRUCache",
    "ContractCache",
    "require_results_agree",
    "maybe_verify_cached",
]


@dataclass
class CacheStats:
    """Hit / miss / eviction counters of one :class:`ContractCache`.

    Attributes:
        hits: lookups answered from the cache.
        misses: lookups that fell through to a fresh solve.
        evictions: entries dropped to respect the capacity bound.
        verifications: cache hits re-solved and checked under
            ``REPRO_CHECK_INVARIANTS``.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    verifications: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def snapshot(self) -> Dict[str, float]:
        """Counters as a flat dict (stats reporting / CLI)."""
        return {
            "cache_hits": float(self.hits),
            "cache_misses": float(self.misses),
            "cache_evictions": float(self.evictions),
            "cache_verifications": float(self.verifications),
            "cache_hit_rate": self.hit_rate,
        }


class LRUCache:
    """A bounded, thread-safe LRU map over hashable keys.

    The one eviction policy of the serving layer, shared by the
    fingerprint-keyed :class:`ContractCache` and the designer's
    candidate-sweep cache
    (:class:`~repro.core.designer.ContractDesigner`).

    Args:
        capacity: maximum number of cached entries; the least recently
            *used* entry is evicted first.
        eviction_counter: optional :class:`~repro.obs.metrics.Counter`
            (typically registered in the shared
            :func:`~repro.obs.metrics.get_registry`) incremented once
            per evicted entry, so eviction pressure shows up next to
            the serving hit/miss metrics in one exporter pass.
    """

    def __init__(
        self,
        capacity: int = 4096,
        eviction_counter: Optional[Counter] = None,
    ) -> None:
        if capacity < 1:
            raise ServingError(f"cache capacity must be >= 1, got {capacity!r}")
        self.capacity = capacity
        self.stats = CacheStats()
        self.eviction_counter = eviction_counter
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable) -> Optional[Any]:
        """The cached value for ``key``, or ``None`` on a miss.

        A hit refreshes the entry's recency.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) one entry, evicting LRU overflow."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self.eviction_counter is not None:
                    self.eviction_counter.inc()

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    def keys(self) -> Tuple[Hashable, ...]:
        """Cached keys from least to most recently used."""
        with self._lock:
            return tuple(self._entries)


class ContractCache(LRUCache):
    """A bounded, thread-safe LRU map ``fingerprint -> DesignResult``.

    Args:
        capacity: maximum number of cached designs; the least recently
            *used* entry is evicted first.  A capacity of a few thousand
            covers every archetype a large marketplace round produces
            (workers share class-level fits, see
            :mod:`repro.serving.fingerprint`).
        eviction_counter: optional shared-registry eviction counter
            (see :class:`LRUCache`).
    """

    def get_design(self, fingerprint: str) -> Optional[DesignResult]:
        """The cached design for ``fingerprint``, or ``None`` on a miss.

        A hit refreshes the entry's recency.
        """
        return self.get(fingerprint)

    def put_design(self, fingerprint: str, result: DesignResult) -> None:
        """Insert (or refresh) one solved design, evicting LRU overflow."""
        self.put(fingerprint, result)


def require_results_agree(
    fingerprint: str, cached: DesignResult, fresh: DesignResult
) -> None:
    """Assert the cache invariant: cached and fresh solves agree.

    Agreement is checked to :mod:`repro.numerics` tolerance on the
    selected target piece, the posted compensation vector and the
    achieved requester utility — the quantities every downstream
    consumer (simulation payout, Fig. 8 reporting, Theorem 4.1
    certificates) reads off a design.

    Raises:
        InvariantViolation: if any compared quantity disagrees.
    """
    if cached.k_opt != fresh.k_opt:
        raise InvariantViolation(
            f"cache invariant violated for {fingerprint}: cached k_opt "
            f"{cached.k_opt!r} != fresh k_opt {fresh.k_opt!r}"
        )
    cached_pay = cached.contract.compensations
    fresh_pay = fresh.contract.compensations
    if len(cached_pay) != len(fresh_pay):
        raise InvariantViolation(
            f"cache invariant violated for {fingerprint}: compensation "
            f"vectors have lengths {len(cached_pay)} != {len(fresh_pay)}"
        )
    for index, (a, b) in enumerate(zip(cached_pay, fresh_pay)):
        if not close(a, b):
            raise InvariantViolation(
                f"cache invariant violated for {fingerprint}: compensation "
                f"x_{index} differs (cached {a!r}, fresh {b!r})"
            )
    if not close(cached.requester_utility, fresh.requester_utility):
        raise InvariantViolation(
            f"cache invariant violated for {fingerprint}: requester utility "
            f"differs (cached {cached.requester_utility!r}, fresh "
            f"{fresh.requester_utility!r})"
        )


def maybe_verify_cached(
    fingerprint: str,
    cached: DesignResult,
    fresh_solver: Callable[[], DesignResult],
    stats: Optional[CacheStats] = None,
) -> None:
    """Re-solve and verify a cache hit when runtime invariants are on.

    No-op (one environment lookup) unless ``REPRO_CHECK_INVARIANTS`` is
    enabled; enabled, it pays for a fresh solve per hit and asserts
    :func:`require_results_agree` — the serving analogue of the
    ``@check_bounds`` runtime layer.
    """
    if not invariants_enabled():
        return
    fresh = fresh_solver()
    require_results_agree(fingerprint, cached, fresh)
    if stats is not None:
        stats.verifications += 1
