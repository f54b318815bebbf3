"""Latency / throughput / cache counters for the serving layer.

One :class:`ServingStats` instance is threaded through a solver pool
(``repro solve`` prints its snapshot; every cluster shard keeps one).

Since the :mod:`repro.obs` layer landed, ``ServingStats`` is a *view*
over :mod:`repro.obs.metrics` instruments rather than a parallel set of
hand-rolled ints and deques: counters live in a
:class:`~repro.obs.metrics.MetricsRegistry` (a private one by default,
or a shared one so a single exporter pass sees serving traffic next to
every other subsystem), and latencies live in bounded
:class:`~repro.obs.metrics.Histogram` reservoirs summarized with the
same :func:`repro.metrics.percentiles.summarize` helper the Fig. 8
experiments use — "p95 request latency" here and "p95 compensation"
there mean the same estimator.

The public read API is unchanged: every pre-obs attribute
(``requests``, ``cache_hits``, ``request_latencies``...) still reads
the same, and ``snapshot()`` / ``format()`` emit the same keys.  The
counters are read-only properties: writes go through
:meth:`record_batch` / :meth:`record_latencies` (the PR 3
``DeprecationWarning`` shim for direct counter assignment has been
removed — assigning ``stats.requests`` now raises ``AttributeError``).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ServingError
from ..metrics.percentiles import summarize
from ..obs.metrics import Counter, Histogram, MetricsRegistry

__all__ = ["ServingStats"]


class ServingStats:
    """Accumulates serving-side counters and latency samples.

    Args:
        clock: monotonic time source in seconds (injectable for tests).
        max_samples: bound on retained latency samples; older samples
            fall off so long-running servers report recent behaviour.
        registry: the :class:`~repro.obs.metrics.MetricsRegistry` to
            register instruments in.  ``None`` (the default) uses a
            private registry, so independent stats objects never share
            counters; pass :func:`repro.obs.metrics.get_registry` to
            publish into the process-global registry the ``--obs-out``
            exporters dump.
        namespace: prefix of the registered metric names (default
            ``"serving"`` produces ``serving.requests`` etc.); give each
            stats object sharing a registry its own namespace.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        max_samples: int = 4096,
        registry: Optional[MetricsRegistry] = None,
        namespace: str = "serving",
    ) -> None:
        if max_samples < 1:
            raise ServingError(f"max_samples must be >= 1, got {max_samples!r}")
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.namespace = namespace
        self._requests: Counter = self.registry.counter(
            f"{namespace}.requests", "requests fulfilled (dupes and hits included)"
        )
        self._batches: Counter = self.registry.counter(
            f"{namespace}.batches", "batches served"
        )
        self._cache_hits: Counter = self.registry.counter(
            f"{namespace}.cache_hits", "unique fingerprints answered from cache"
        )
        self._cache_misses: Counter = self.registry.counter(
            f"{namespace}.cache_misses", "unique fingerprints freshly solved"
        )
        self._request_latency: Histogram = self.registry.histogram(
            f"{namespace}.request_latency_s",
            "per-request enqueue-to-reply latency (seconds)",
            max_samples=max_samples,
        )
        self._batch_latency: Histogram = self.registry.histogram(
            f"{namespace}.batch_latency_s",
            "per-batch fulfilment latency (seconds)",
            max_samples=max_samples,
        )

    # -- recording -----------------------------------------------------

    def now(self) -> float:
        """The stats clock (callers use it to stamp enqueue times)."""
        return self._clock()

    def record_batch(
        self,
        n_requests: int,
        n_unique: int,
        n_cache_hits: int,
        duration: float,
        request_latencies: Optional[List[float]] = None,
    ) -> None:
        """Book one served batch.

        Args:
            n_requests: requests fulfilled by the batch (duplicates and
                cache hits included).
            n_unique: distinct fingerprints the batch contained.
            n_cache_hits: fingerprints answered from the cache.
            duration: wall-clock seconds to fulfil the whole batch.
            request_latencies: optional per-request enqueue-to-reply
                latencies.
        """
        if n_requests < 0 or n_unique < 0 or n_cache_hits < 0:
            raise ServingError("batch counters must be non-negative")
        if n_cache_hits > n_unique or n_unique > n_requests:
            raise ServingError(
                f"inconsistent batch counters: requests={n_requests}, "
                f"unique={n_unique}, cache_hits={n_cache_hits}"
            )
        self._requests.inc(n_requests)
        self._batches.inc()
        self._cache_hits.inc(n_cache_hits)
        self._cache_misses.inc(n_unique - n_cache_hits)
        self._batch_latency.observe(max(duration, 0.0))
        if request_latencies:
            self.record_latencies(request_latencies)

    def record_latencies(self, latencies: List[float]) -> None:
        """Book per-request enqueue-to-reply latencies (seconds)."""
        for latency in latencies:
            self._request_latency.observe(max(latency, 0.0))

    # -- counters (read-only views over the registry) ------------------

    @property
    def requests(self) -> int:
        """Requests fulfilled so far (duplicates and hits included)."""
        return int(self._requests.value)

    @property
    def batches(self) -> int:
        """Batches served so far."""
        return int(self._batches.value)

    @property
    def cache_hits(self) -> int:
        """Unique fingerprints answered from the cache."""
        return int(self._cache_hits.value)

    @property
    def cache_misses(self) -> int:
        """Unique fingerprints that fell through to a fresh solve."""
        return int(self._cache_misses.value)

    @property
    def request_latencies(self) -> Tuple[float, ...]:
        """Retained per-request latencies, oldest first."""
        return self._request_latency.samples

    @property
    def batch_latencies(self) -> Tuple[float, ...]:
        """Retained per-batch latencies, oldest first."""
        return self._batch_latency.samples

    # -- derived rates -------------------------------------------------

    @property
    def elapsed(self) -> float:
        """Seconds since this stats object was created."""
        return max(self._clock() - self.started_at, 0.0)

    @property
    def throughput(self) -> float:
        """Fulfilled requests per second since creation."""
        elapsed = self.elapsed
        return self.requests / elapsed if elapsed > 0.0 else 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of unique lookups answered from the cache."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    @property
    def dedup_rate(self) -> float:
        """Fraction of requests collapsed onto another request's solve."""
        if self.requests == 0:
            return 0.0
        distinct = self.cache_hits + self.cache_misses
        return 1.0 - distinct / self.requests

    # -- reporting -----------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        """All counters and derived rates as a flat dict."""
        snapshot: Dict[str, float] = {
            "requests": float(self.requests),
            "batches": float(self.batches),
            "cache_hits": float(self.cache_hits),
            "cache_misses": float(self.cache_misses),
            "cache_hit_rate": self.hit_rate,
            "dedup_rate": self.dedup_rate,
            "elapsed_s": self.elapsed,
            "throughput_rps": self.throughput,
        }
        if self.request_latencies:
            summary = summarize(list(self.request_latencies))
            snapshot["request_latency_mean_s"] = summary.mean
            snapshot["request_latency_p50_s"] = self._request_latency.quantile(0.5)
            snapshot["request_latency_p95_s"] = summary.p95
            snapshot["request_latency_p99_s"] = self._request_latency.quantile(0.99)
        if self.batch_latencies:
            summary = summarize(list(self.batch_latencies))
            snapshot["batch_latency_mean_s"] = summary.mean
            snapshot["batch_latency_p95_s"] = summary.p95
        return snapshot

    def format(self) -> str:
        """Console rendering of the snapshot (``repro serve`` output)."""
        lines = ["-- serving stats --"]
        for key, value in self.snapshot().items():
            if key.endswith(("_rate", "_s")) or key == "throughput_rps":
                lines.append(f"{key:>24}: {value:.4f}")
            else:
                lines.append(f"{key:>24}: {int(value)}")
        return "\n".join(lines)
