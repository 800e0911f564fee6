"""The immediate-access in-memory tier: the writer's own batch, queryable.

The paper's visibility contract is batch-grained: a document ingested into
the in-memory batch (:mod:`repro.core.memindex`) becomes searchable only
at the flush that publishes it, so read-your-writes latency is bounded
below by the whole flush + publish path.  The paper also says the batch
"can be searched simultaneously with the larger index" (§1); this module
is that, over the one copy of the batch there is — the writer's own
:class:`~repro.core.memindex.InMemoryIndex`, read through the writer's
vocabulary — while the ordinary flush path drains it into the
dual-structure disk index.

A batch is one update's worth of postings and is gone at the flush, so it
stays uncompressed.  Moffat & Mackenzie's immediate-access index
(PAPERS.md) seals and compresses segments because their in-memory index
*is* the collection; here a batch averages 2.6 postings a term, a sealed
64-document segment was larger than the lists it replaced, and sealing
lost adds, reads and flushes in every pair of the trial that removed it
(``benchmarks/results/TRIAL_memtier.txt``).

Structure — one writer, lock-free readers:

* the **batch handle** is the writer's ``pending_batch()``: per volume,
  its vocabulary and its live ``word id -> payload`` dict.  Payload lists
  grow only at the tail, in ascending doc-id order, so a reader slices
  each to the ids at or below the *visibility watermark* (the highest
  fully ingested doc id); the runtime advances the watermark after the
  writer has inserted the whole document, so none is seen half-inserted;
* **tombstones** record buffered deletions (of snapshot documents and of
  buffered documents alike) as an immutable frozenset replaced wholesale
  per delete, filtering both tiers' answers;
* a flush *retires* the batch — a fresh dict takes its place — instead of
  emptying it, and a crash's rollback and replay do the same, so the tier
  keeps reading the whole retired batch against the old base until
  :meth:`MemTier.rebase` swaps in the new base, the writer's new handle
  and empty tombstones in one assignment.  No reader ever pairs the old
  base with an emptied batch, or one publication's base with another's
  batch or tombstones.

The **epoch** counts this tier's mutations (adds, deletes, rebases).  The
result cache stamps an immediate-tier entry with the epoch it was
computed at and serves it at exactly that epoch.  It counts from the
construction of *this object*, so it orders the states of one process
and nothing else: two replicas of a shard, or a worker and its rebuilt
successor, hold the same postings at different epochs.

Read-op accounting: memory postings are free of I/O charge — the same
convention :meth:`DualStructureIndex.fetch` and the streaming cursors
already use for the unflushed batch — so an immediate-tier query charges
exactly the read ops its snapshot-tier evaluation would.
"""

from __future__ import annotations

from bisect import bisect_right
from heapq import merge


class MemTierView:
    """One atomically captured read view of the memory tier.

    Everything a two-tier evaluation needs, frozen at capture time: the
    base disk snapshot, the batch handle (shared, sliced at the
    watermark), the tombstone set, the visibility watermark, and the
    epoch to stamp cached results with.  Answers computed from one view
    are internally consistent even while the writer keeps ingesting or a
    background merge publishes.
    """

    __slots__ = ("base", "batch", "tombstones", "visible", "epoch")

    def __init__(self, base, batch, tombstones, visible, epoch) -> None:
        self.base = base
        self.batch = batch
        self.tombstones = tombstones
        self.visible = visible
        self.epoch = epoch

    @property
    def base_ndocs(self) -> int:
        """Doc ids below this live in the base snapshot's universe."""
        return self.base.ndocs

    @property
    def ndocs(self) -> int:
        """The merged universe size: base plus every visible buffered doc."""
        return max(self.base_ndocs, self.visible + 1)

    @property
    def buffered_docs(self) -> int:
        """Visible buffered documents (those under the watermark)."""
        return max(0, self.ndocs - self.base_ndocs)

    def postings(self, term: str) -> list[int]:
        """The term's buffered doc ids, ascending, tombstones *not* yet
        filtered (the merge layer filters once over both tiers): per
        volume a vocabulary lookup, a ``dict.get`` and a bisect at the
        watermark, merged across volumes (disjoint ids) when sharded."""
        runs = []
        for vocabulary, lists in self.batch:
            payload = lists.get(vocabulary.lookup(term))
            if payload is not None:
                docs = payload.doc_ids
                runs.append(docs[: bisect_right(docs, self.visible)])
        if len(runs) > 1:
            return list(merge(*runs))
        return runs[0] if runs else []

    def is_empty(self) -> bool:
        """True when the merged answer equals the base snapshot's."""
        return not self.tombstones and self.visible < self.base_ndocs


class MemTier:
    """The writer's pending batch as a tier, with lock-free reader views.

    Threading contract (the same one the serving layer already lives
    by): all mutators — :meth:`advance`, :meth:`delete_document`,
    :meth:`rebase` — are called under the service's writer lock, after
    the writer itself has changed; :meth:`view` is safe from any number
    of reader threads concurrently.  Every mutator changes state first
    and bumps the epoch last, and a view reads the epoch first, so an
    answer is never cached under an epoch newer than what it saw.
    """

    def __init__(self, writer, base) -> None:
        self._writer = writer
        # (base, batch handle, tombstones), replaced whole.
        self._state = (base, writer.pending_batch(), frozenset())
        self._visible = base.ndocs - 1
        self._epoch = 0
        self.rebases = 0

    # -- writer side -------------------------------------------------------

    def advance(self, doc_id: int) -> None:
        """Make the writer's newest document visible, whole."""
        self._visible = doc_id
        self._epoch += 1

    def delete_document(self, doc_id: int) -> None:
        """Tombstone a document (snapshot-resident or buffered) now."""
        # Copy-on-write: readers holding the old frozenset keep a
        # consistent deletion filter.
        base, batch, tombstones = self._state
        self._state = (base, batch, tombstones | {doc_id})
        self._epoch += 1

    def rebase(self, base) -> None:
        """Swap in the freshly published base and the writer's new batch
        handle together (called at publish time, under the writer lock).

        The flush that produced ``base`` retired the batch the old handle
        reads, and ``base`` carries every deletion made before it, so the
        tombstones start over.
        """
        self._state = (base, self._writer.pending_batch(), frozenset())
        self._epoch += 1
        self.rebases += 1

    # -- reader side -------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def view(self) -> MemTierView:
        """Capture one consistent read view (no locks).

        Field order matters: the epoch first (see the class doc), then
        the watermark, then the structures — so the structures are at
        least as new as the watermark.  Past a rebase the new base covers
        every id the old watermark admitted; before it the old batch
        holds them.
        """
        epoch = self._epoch
        visible = self._visible
        base, batch, tombstones = self._state
        return MemTierView(base, batch, tombstones, visible, epoch)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time counters (writer thread or tests)."""
        _, batch, _ = self._state
        buffered = sum(len(p) for _, lists in batch for p in lists.values())
        return {"buffered_postings": buffered, "rebases": self.rebases}
