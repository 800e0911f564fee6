"""LRU cache for query results, cleared at every publish.

The paper's contract is batch-boundary visibility: a query sees the index
as of the last applied batch.  An entry is stamped with the snapshot id
it was computed at (plus, on the immediate tier, the memory-tier epoch;
DESIGN.md §14) and hits only at exactly that stamp.  Every publish, cow
or clone, clears the cache (:meth:`QueryResultCache.invalidate`), so
readers pinned to an older snapshot simply miss and a stale answer can
never be served.

Keeping an entry across a publish whose batch missed its terms was tried
against its traffic and removed (``benchmarks/results/TRIAL_cache_scope.txt``).
The memory tier mutates between publishes, so an immediate-tier entry
recorded at another epoch is dropped at lookup.  (A per-term ledger that
kept entries across unrelated buffered writes served 0–1.4 % of
immediate-tier lookups — ``benchmarks/results/TRIAL_memtier.txt``.)

Thread model: many reader threads share one cache; every operation takes
the internal lock (the critical sections are dictionary operations, far
cheaper than the query evaluation a hit saves).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace

#: ``(kind, query_key)`` — the stamp lives in the entry, not the key.
CacheKey = tuple[str, object]


@dataclass
class CacheStats:
    """Aggregate counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries_invalidated: int = 0
    # Always 0: every publish clears the cache.  Kept only because
    # benchmarks/harness/replica.py:186 reads it.
    entries_retained: int = 0
    epoch_invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class QueryResultCache:
    """A bounded LRU map from ``(kind, query)`` to stamped results.

    ``get``/``put`` never copy values — the service stores immutable
    tuples, so a cached answer can be shared across readers safely.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.Lock()
        # key -> (value, snapshot_id, epoch)
        self._entries: "OrderedDict[CacheKey, tuple]" = OrderedDict()
        self._stats = CacheStats()

    def get(self, key: CacheKey, snapshot_id: int, epoch: int | None = None):
        """The value cached for ``key`` at exactly ``(snapshot_id,
        epoch)``, or ``None``; counts the outcome.

        ``epoch`` is the live memory-tier epoch for immediate-tier
        lookups: an entry recorded at any other epoch is dropped.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry[1] != snapshot_id:
                self._stats.misses += 1
                return None
            if entry[2] != epoch:
                del self._entries[key]
                self._stats.epoch_invalidations += 1
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry[0]

    def put(
        self,
        key: CacheKey,
        value,
        snapshot_id: int,
        epoch: int | None = None,
    ) -> None:
        """Insert an entry stamped ``(snapshot_id, epoch)``.  A put from a
        reader pinned to an *older* snapshot never displaces a fresher
        entry."""
        if self.capacity == 0:
            return
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                if existing[1] >= snapshot_id:
                    return
            self._entries[key] = (value, snapshot_id, epoch)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def invalidate(self) -> int:
        """Drop every entry (every publish calls this); returns the number
        of entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stats.invalidations += 1
            self._stats.entries_invalidated += dropped
            return dropped

    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters (safe to read anywhere)."""
        with self._lock:
            return replace(self._stats)
