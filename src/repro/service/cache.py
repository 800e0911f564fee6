"""Delta-scoped LRU cache for query results.

A result computed against snapshot *S* stays valid across a publish
whenever the batch that produced snapshot *S+1* provably could not have
changed it.  The dual-structure index only changes at batch boundaries,
and the writer's delta journal records exactly which vocabulary terms a
batch touched — so instead of dropping the whole cache at publish time,
the service *extends* every entry whose terms are disjoint from the
batch's dirty vocabulary (and whose answer does not depend on the
document universe when the universe grew).

The correctness argument (DESIGN.md §11): an answer depends only on

* the postings of the terms it read — unchanged unless a term is in the
  batch's dirty vocabulary (which includes words newly added, so a term
  that previously missed the vocabulary is also caught);
* the deletion filter set — any deletion change evicts everything
  (``deletions_changed``);
* for universe-sensitive queries (boolean ``NOT``, vector ranking whose
  idf uses ``ndocs``), the doc-id universe — any batch that adds
  documents evicts those (``universe_changed``).

Entries therefore carry a *validity interval* ``[first_id, last_id]`` of
snapshot ids; :meth:`publish_delta` extends clean entries to the new id
and drops the rest.  Readers pinned to an older snapshot simply miss —
an entry is never returned for a snapshot outside its interval.

Immediate-tier entries (DESIGN.md §14) additionally carry the memory-tier
*epoch* they were computed at.  The memory tier mutates between
publishes, so snapshot-interval validity is not enough: an immediate-tier
entry is valid at exactly the epoch it was computed at, and a lookup at
any other epoch drops it.  (A per-term ledger that kept entries across
unrelated buffered writes was tried against its traffic and served 0–1.4 %
of immediate-tier lookups — ``benchmarks/results/TRIAL_memtier.txt``.)

Thread model: many reader threads share one cache; every operation takes
the internal lock (the critical sections are dictionary operations, far
cheaper than the query evaluation a hit saves).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

#: ``(kind, query_key)`` — snapshot validity lives in the entry, not the key.
CacheKey = tuple[str, object]


@dataclass
class CacheStats:
    """Aggregate counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    entries_invalidated: int = 0
    entries_retained: int = 0
    epoch_invalidations: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "entries_invalidated": self.entries_invalidated,
            "entries_retained": self.entries_retained,
            "epoch_invalidations": self.epoch_invalidations,
            "hit_rate": round(self.hit_rate, 6),
        }


class _Entry:
    __slots__ = (
        "value",
        "terms",
        "universe_sensitive",
        "first_id",
        "last_id",
        "versions",
        "epoch",
    )

    def __init__(
        self, value, terms, universe_sensitive, snapshot_id, versions, epoch
    ):
        self.value = value
        self.terms = terms
        self.universe_sensitive = universe_sensitive
        self.first_id = snapshot_id
        self.last_id = snapshot_id
        # The shard-snapshot vector (per-shard batch counters) of the
        # newest snapshot this entry is valid at; publish_delta advances
        # it alongside last_id.
        self.versions = versions
        # Memory-tier epoch the answer was computed at (None for
        # snapshot-tier entries).
        self.epoch = epoch


class QueryResultCache:
    """A bounded LRU map from ``(kind, query)`` to validity-ranged results.

    ``get``/``put`` never copy values — the service stores immutable
    tuples, so a cached answer can be shared across readers safely.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[CacheKey, _Entry]" = OrderedDict()
        self._stats = CacheStats()

    def get(
        self,
        key: CacheKey,
        snapshot_id: int,
        versions: tuple[int, ...] | None = None,
        epoch: int | None = None,
    ):
        """The cached value for ``key`` valid at ``snapshot_id``, or
        ``None``; counts the outcome.

        ``versions`` is the caller's shard-snapshot vector: when given
        and the lookup lands on the entry's newest snapshot, the vectors
        must agree — a mismatch (shard layout change, out-of-band shard
        advance) drops the entry instead of serving it.  Callers on a
        rebalancable topology prefix the vector with the routing-table
        epoch (:attr:`IndexSnapshot.version_vector`), so an answer
        computed before a shard split — same per-shard
        counters, different document placement — can never be served
        after one: the epoch component (or the vector length itself)
        disagrees.

        ``epoch`` is the live memory-tier epoch for immediate-tier
        lookups: an entry recorded at any other epoch is dropped.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or not (
                entry.first_id <= snapshot_id <= entry.last_id
            ):
                self._stats.misses += 1
                return None
            if (
                versions is not None
                and entry.versions is not None
                and snapshot_id == entry.last_id
                and entry.versions != versions
            ):
                del self._entries[key]
                self._stats.misses += 1
                return None
            if epoch is not None and entry.epoch != epoch:
                del self._entries[key]
                self._stats.epoch_invalidations += 1
                self._stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self._stats.hits += 1
            return entry.value

    def put(
        self,
        key: CacheKey,
        value,
        snapshot_id: int,
        terms: frozenset = frozenset(),
        universe_sensitive: bool = False,
        versions: tuple[int, ...] | None = None,
        epoch: int | None = None,
    ) -> None:
        """Insert an entry valid (for now) only at ``snapshot_id``.

        ``terms`` are the query's vocabulary terms (lowercase) and
        ``universe_sensitive`` marks answers that depend on the doc-id
        universe; both drive :meth:`publish_delta`.  ``versions`` records
        the snapshot's shard vector, ``epoch`` the memory-tier epoch for
        immediate-tier answers.  A put from a reader pinned to an *older*
        snapshot never displaces a fresher entry.
        """
        if self.capacity == 0:
            return
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                if existing.last_id >= snapshot_id:
                    self._entries.move_to_end(key)
                    return
                self._entries.move_to_end(key)
            self._entries[key] = _Entry(
                value, terms, universe_sensitive, snapshot_id, versions, epoch
            )
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._stats.evictions += 1

    def publish_delta(
        self,
        new_id: int,
        dirty_terms: frozenset,
        universe_changed: bool,
        deletions_changed: bool,
        versions: tuple[int, ...] | None = None,
    ) -> int:
        """Apply one publish's delta: extend clean entries to ``new_id``,
        drop dirty and stranded ones; returns the number dropped.

        An entry is *clean* when it was valid at ``new_id - 1``, none of
        its terms intersect ``dirty_terms``, the deletion set did not
        change, and (if universe-sensitive) no documents were added.
        Extended entries adopt ``versions``, the new snapshot's shard
        vector.
        """
        prev_id = new_id - 1
        with self._lock:
            dropped = retained = 0
            for key in list(self._entries):
                entry = self._entries[key]
                if (
                    entry.last_id != prev_id
                    or deletions_changed
                    or (universe_changed and entry.universe_sensitive)
                    or not entry.terms.isdisjoint(dirty_terms)
                ):
                    del self._entries[key]
                    dropped += 1
                else:
                    entry.last_id = new_id
                    if versions is not None:
                        entry.versions = versions
                    retained += 1
            self._stats.invalidations += 1
            self._stats.entries_invalidated += dropped
            self._stats.entries_retained += retained
            return dropped

    def invalidate(self) -> int:
        """Drop every entry (wholesale — the clone-mode publish path and
        the cow fallback); returns the number of entries dropped."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._stats.invalidations += 1
            self._stats.entries_invalidated += dropped
            return dropped

    def stats(self) -> CacheStats:
        """A point-in-time copy of the counters (safe to read anywhere)."""
        with self._lock:
            return CacheStats(
                hits=self._stats.hits,
                misses=self._stats.misses,
                evictions=self._stats.evictions,
                invalidations=self._stats.invalidations,
                entries_invalidated=self._stats.entries_invalidated,
                entries_retained=self._stats.entries_retained,
                epoch_invalidations=self._stats.epoch_invalidations,
            )
