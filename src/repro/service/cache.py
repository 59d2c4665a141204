"""Thread-safe LRU result cache with cost accounting.

The service memoises expensive fairness computations (QUANTIFY searches,
audits, comparisons) keyed by content fingerprints.  The cache is a classic
LRU bounded by entry count and, optionally, by total *cost* — an arbitrary
per-entry weight the caller supplies (the service uses the number of
candidate splits a search evaluated, so one huge search can evict many cheap
ones).

``get_or_compute`` is single-flight: when several threads request the same
missing key concurrently (HTTP handler threads do exactly this), only one
runs the producer; the others block until the value lands and then read it
as a hit.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, TypeVar

__all__ = ["CacheStats", "LRUCache"]

T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Immutable snapshot of cache effectiveness counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    total_cost: float = 0.0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": self.entries,
            "total_cost": self.total_cost,
            "hit_rate": round(self.hit_rate, 4),
        }

    def describe(self) -> str:
        return (
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%} hit rate), {self.entries} entries "
            f"(cost {self.total_cost:g}), {self.evictions} evictions"
        )


_ABSENT = object()


class LRUCache:
    """A thread-safe least-recently-used cache with per-entry costs.

    Parameters
    ----------
    capacity:
        Maximum number of entries kept (must be >= 1).
    max_cost:
        Optional bound on the sum of entry costs; when exceeded the least
        recently used entries are evicted until the total fits.  A single
        entry costlier than ``max_cost`` is refused at insert time (counted
        as an eviction) — the cache stays within budget even with one entry,
        and a pathological request can never pin the budget forever or wipe
        every cheaper entry to make room for itself.
    """

    def __init__(self, capacity: int = 256, max_cost: Optional[float] = None) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if max_cost is not None and max_cost <= 0:
            raise ValueError(f"max_cost must be positive, got {max_cost}")
        self.capacity = capacity
        self.max_cost = max_cost
        self._entries: "OrderedDict[str, Tuple[object, float]]" = OrderedDict()
        self._lock = threading.RLock()
        self._inflight: Dict[str, threading.Event] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._total_cost = 0.0

    # -- primitive operations -------------------------------------------------

    def get(self, key: str, default: object = None) -> object:
        """Return the cached value for ``key`` (counting a hit or a miss)."""
        with self._lock:
            entry = self._entries.get(key, _ABSENT)
            if entry is _ABSENT:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return entry[0]

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, key: str, value: object, cost: float = 1.0) -> None:
        """Insert (or refresh) an entry and evict LRU entries over budget."""
        cost = max(float(cost), 0.0)
        with self._lock:
            if key in self._entries:
                _, old_cost = self._entries.pop(key)
                self._total_cost -= old_cost
            if self.max_cost is not None and cost > self.max_cost:
                # An entry that alone busts the cost budget is evicted right
                # at insert: admitting it would either pin it forever (it can
                # never be the one evicted back under budget) or flush every
                # cheaper entry to make room for it.
                self._evictions += 1
                return
            self._entries[key] = (value, cost)
            self._total_cost += cost
            self._evict_over_budget_locked()

    def _evict_over_budget_locked(self) -> None:
        while len(self._entries) > self.capacity:
            self._evict_lru_locked()
        if self.max_cost is not None:
            while self._total_cost > self.max_cost and self._entries:
                self._evict_lru_locked()

    def _evict_lru_locked(self) -> None:
        _, (_, cost) = self._entries.popitem(last=False)
        self._total_cost -= cost
        self._evictions += 1

    def invalidate(self, key: str) -> bool:
        """Drop one entry; returns True when it existed."""
        with self._lock:
            entry = self._entries.pop(key, _ABSENT)
            if entry is _ABSENT:
                return False
            # Exact recompute instead of `-=`: repeated float add/subtract
            # drifts over a long-lived service, and a drifted total either
            # over-evicts or lets the budget leak.
            self._total_cost = float(sum(cost for _, cost in self._entries.values()))
            return True

    def clear(self) -> None:
        """Drop every entry (statistics counters are kept)."""
        with self._lock:
            self._entries.clear()
            # Exact by construction: an empty cache carries zero cost.
            self._total_cost = 0.0

    def values(self) -> Tuple[object, ...]:
        """Snapshot of the cached values, least recently used first."""
        with self._lock:
            return tuple(value for value, _ in self._entries.values())

    def items(self) -> Tuple[Tuple[str, object, float], ...]:
        """Snapshot of ``(key, value, cost)`` triples, least recently used first.

        Re-inserting the triples in this order into an empty cache (the
        warm-start reload path) reproduces the recency order exactly.
        """
        with self._lock:
            return tuple(
                (key, value, cost) for key, (value, cost) in self._entries.items()
            )

    # -- memoisation ----------------------------------------------------------

    def get_or_compute(
        self,
        key: str,
        producer: Callable[[], T],
        cost: Optional[Callable[[T], float]] = None,
    ) -> Tuple[T, bool]:
        """Return ``(value, was_hit)``, computing and caching on a miss.

        Concurrent callers for the same missing key are deduplicated: one
        thread runs ``producer`` while the rest wait and then read the cached
        value.  ``cost`` maps the produced value to its cache cost (default
        1.0).  If the producer raises, waiters retry the computation.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key, _ABSENT)
                if entry is not _ABSENT:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry[0], True  # type: ignore[return-value]
                event = self._inflight.get(key)
                if event is None:
                    self._inflight[key] = threading.Event()
                    self._misses += 1
                    break
            # Another thread is computing this key: wait, then loop to re-read.
            event.wait()
        try:
            value = producer()
        except BaseException:
            self._release_inflight(key)
            raise
        # Publish before releasing waiters so they observe the value as a hit.
        self.put(key, value, cost=cost(value) if cost is not None else 1.0)
        self._release_inflight(key)
        return value, False

    def _release_inflight(self, key: str) -> None:
        with self._lock:
            event = self._inflight.pop(key, None)
        if event is not None:
            event.set()

    # -- introspection --------------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                total_cost=self._total_cost,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LRUCache(capacity={self.capacity}, {self.stats.describe()})"
