"""Shared read-block buffer cache for the serving path.

Every long-list read pays the simulated seek + transfer *and* a decode
of the stored block payloads.  Across reader threads the hot head of the
Zipf-skewed query mix re-reads the same chunks over and over, so the
serving layer attaches a small LRU cache of decoded chunk payloads keyed
by ``(disk, start_block)`` to each published snapshot.

Correctness hinges on two properties:

* **Accounting is unchanged.**  The cache is consulted *after* the
  read-op and trace accounting in ``LongListManager`` — a hit skips only
  the block-store access and the decode, never the Figure-10 read-op
  unit, so cached and uncached serving report identical costs.
* **Dirty blocks never survive a publish.**  A copy-on-write publish
  derives the next snapshot's cache with ``successor``, which drops any
  entry whose block span intersects the batch's dirty blocks; a full
  clone publish starts from an empty cache.  Entries additionally carry
  the chunk's ``npostings`` as a self-check against stale reuse.

Capacity is a block budget, not an entry count, so long chunks displace
proportionally more of the cache.  Hit/miss/eviction counts aggregate
into a shared :class:`repro.pipeline.profiling.HitMissCounters` owned by
the service, surviving across snapshot generations.
"""

from __future__ import annotations

import threading
from collections import OrderedDict


class BlockBufferCache:
    """LRU over decoded long-list chunk payloads, budgeted in blocks."""

    def __init__(self, capacity_blocks: int, counters=None) -> None:
        if capacity_blocks < 0:
            raise ValueError("capacity_blocks must be >= 0")
        self.capacity_blocks = capacity_blocks
        self.counters = counters
        self._lock = threading.Lock()
        # (disk, start) -> (span_blocks, npostings, decoded payload)
        self._entries: OrderedDict[tuple[int, int], tuple] = OrderedDict()
        self._used_blocks = 0

    def get(self, disk: int, start: int, npostings: int):
        """Return the cached decoded payload, or None.

        The payload object is shared between the cache and all callers;
        it must be treated as immutable (callers copy/extend into their
        own accumulators).
        """
        key = (disk, start)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and entry[1] == npostings:
                self._entries.move_to_end(key)
                if self.counters is not None:
                    self.counters.note_hit()
                return entry[2]
            if entry is not None:
                # Geometry changed under the same address: stale, drop.
                self._used_blocks -= entry[0]
                del self._entries[key]
            if self.counters is not None:
                self.counters.note_miss()
            return None

    def put(
        self, disk: int, start: int, span_blocks: int, npostings: int, payload
    ) -> None:
        if self.capacity_blocks <= 0 or span_blocks > self.capacity_blocks:
            return
        key = (disk, start)
        with self._lock:
            old = self._entries.pop(key, None)
            if old is not None:
                self._used_blocks -= old[0]
            self._entries[key] = (span_blocks, npostings, payload)
            self._used_blocks += span_blocks
            while self._used_blocks > self.capacity_blocks:
                _, (spilled, _, _) = self._entries.popitem(last=False)
                self._used_blocks -= spilled
                if self.counters is not None:
                    self.counters.note_eviction()

    def successor(
        self, dirty_blocks: set[tuple[int, int]]
    ) -> "BlockBufferCache":
        """Carry clean entries into the next snapshot's cache.

        Drops every entry whose block span touches ``dirty_blocks`` —
        the journal records writes *and* frees, so both rewritten and
        relocated chunks are purged.
        """
        fresh = BlockBufferCache(self.capacity_blocks, self.counters)
        with self._lock:
            for (disk, start), entry in self._entries.items():
                span = entry[0]
                if any(
                    (disk, block) in dirty_blocks
                    for block in range(start, start + span)
                ):
                    if self.counters is not None:
                        self.counters.note_invalidated()
                    continue
                fresh._entries[(disk, start)] = entry
                fresh._used_blocks += span
        return fresh
