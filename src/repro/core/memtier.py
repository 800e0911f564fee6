"""The immediate-access in-memory tier: a queryable write buffer.

The paper's visibility contract is batch-grained: a document ingested into
the in-memory batch (:mod:`repro.core.memindex`) becomes searchable only
at the flush that publishes it, so read-your-writes latency is bounded
below by the whole flush + publish path.  The paper also says the batch
"can be searched simultaneously with the larger index" (§1); this module
is that: a mirror of the one pending batch that absorbs ``add_document``
/ ``delete_document`` the moment they happen and is queryable
concurrently, while the ordinary flush path drains it into the
dual-structure disk index.

It holds one update's worth of postings and is gone at the flush, so it
is kept uncompressed.  Moffat & Mackenzie's immediate-access index
(PAPERS.md) seals and compresses segments because their in-memory index
*is* the collection; here a batch averages 2.6 postings a term, a sealed
64-document segment was larger than the lists it replaced, and sealing
lost adds, reads and flushes in every pair of the trial that removed it
(``benchmarks/results/TRIAL_memtier.txt``).

Structure — one writer, lock-free readers:

* the **active segment** is an append-only ``term -> [doc ids]`` map the
  writer inserts into; readers slice it under the *visibility watermark*
  (the highest fully inserted doc id), so a half-inserted document is
  never observable — its id sits above the watermark until every term is
  in place;
* **tombstones** record buffered deletions (of snapshot documents and of
  buffered documents alike) as an immutable frozenset replaced wholesale
  per delete, filtering both tiers' answers;
* at each publish :meth:`MemTier.rebase` swaps in the new base snapshot
  and drops everything the snapshot now covers — under the writer lock,
  so nothing is ever lost or double-counted; a reader holding the old
  view keeps a consistent (old base + buffered) state whose merged answer
  is identical.

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

from bisect import bisect_left, bisect_right
from typing import Iterable


class ActiveSegment:
    """The append-only segment the writer inserts into.

    Lists only ever grow at the tail and doc ids arrive in increasing
    order, so a reader holding a view slices each list to the ids at or
    below its captured watermark (a bisect on the immutable-so-far
    prefix) — concurrent appends extend the list past the slice but never
    reorder it.
    """

    __slots__ = ("lists",)

    def __init__(self) -> None:
        self.lists: dict[str, list[int]] = {}

    def add(self, doc_id: int, terms: Iterable[str]) -> None:
        """Append one document's postings."""
        lists = self.lists
        for term in terms:
            docs = lists.get(term)
            if docs is None:
                lists[term] = [doc_id]
            else:
                docs.append(doc_id)

    def postings_upto(self, term: str, watermark: int) -> list[int]:
        """The term's doc ids at or below ``watermark`` (copied)."""
        docs = self.lists.get(term)
        if not docs:
            return []
        # The slice point is stable: ids are ascending and appends only
        # extend the tail, so bisect over a concurrent append is safe.
        return docs[: bisect_right(docs, watermark)]


class MemTierView:
    """One atomically captured read view of the memory tier.

    Everything a two-tier evaluation needs, frozen at capture time: the
    base disk snapshot, the (shared but watermark-sliced) active segment,
    the tombstone set, the visibility watermark, and the epoch to stamp
    cached results with.  Answers computed from one view are internally
    consistent even while the writer keeps ingesting or a background
    merge publishes: each of these fields is immutable or safely
    sliceable.
    """

    __slots__ = ("base", "active", "tombstones", "visible", "epoch")

    def __init__(self, base, active, tombstones, visible, epoch) -> None:
        self.base = base
        self.active = active
        self.tombstones = tombstones
        self.visible = visible
        self.epoch = epoch

    @property
    def base_ndocs(self) -> int:
        """Doc ids below this live in the base snapshot's universe."""
        return self.base.ndocs if self.base is not None else 0

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
        filtered (the merge layer filters once over both tiers)."""
        return self.active.postings_upto(term, self.visible)

    def is_empty(self) -> bool:
        """True when the merged answer equals the base snapshot's."""
        return not self.tombstones and self.visible < self.base_ndocs


class MemTier:
    """The writer-owned memory tier with lock-free reader views.

    Threading contract (the same one the serving layer already lives
    by): all mutators — :meth:`add_document`, :meth:`delete_document`,
    :meth:`rebase` — are called under the service's writer lock;
    :meth:`view` is safe from any number of reader threads concurrently,
    because every published structure is either immutable (tombstone
    frozensets, the view itself) or append-only under a captured
    watermark (the active segment's lists).
    """

    def __init__(self, *, base=None) -> None:
        self._base = base
        self._active = ActiveSegment()
        self._tombstones: frozenset[int] = frozenset()
        self._visible = (base.ndocs - 1) if base is not None else -1
        self._epoch = 0
        self.rebases = 0

    # -- writer side -------------------------------------------------------

    def add_document(self, doc_id: int, words: Iterable[str]) -> None:
        """Absorb one document immediately (distinct lowercased terms).

        Postings land in the active segment first; the watermark moves
        only after the *whole* document is inserted, so a concurrent
        reader either sees all of the document or none of it.
        """
        if doc_id <= self._visible:
            raise ValueError(
                f"doc id {doc_id} is not above the watermark "
                f"{self._visible}"
            )
        self._epoch += 1
        self._active.add(doc_id, {w.lower() for w in words})
        # Publication point: the document becomes visible here, whole.
        self._visible = doc_id

    def delete_document(self, doc_id: int) -> None:
        """Tombstone a document (snapshot-resident or buffered) now."""
        self._epoch += 1
        # Copy-on-write: readers holding the old frozenset keep a
        # consistent deletion filter.
        self._tombstones = self._tombstones | {doc_id}

    def rebase(self, base) -> None:
        """Swap in the freshly published base snapshot and drop what it
        covers (called at publish time, under the writer lock).

        The flush that produced ``base`` drained the writer's whole
        batch and applied every pending deletion, so normally *all*
        buffered postings and tombstones are covered; anything above the
        new base's universe (which cannot happen under the writer lock,
        but is pruned rather than asserted away) is re-buffered.  The
        retired segment is never appended to again, so a reader
        mid-iteration on it stays correct.
        """
        base_ndocs = base.ndocs
        survivors = ActiveSegment()
        for term, docs in self._active.lists.items():
            kept = docs[bisect_left(docs, base_ndocs):]
            if kept:
                survivors.lists[term] = kept
        self._active = survivors
        self._tombstones = frozenset(
            d for d in self._tombstones if d >= base_ndocs
        )
        self._base = base
        self._visible = max(self._visible, base_ndocs - 1)
        self._epoch += 1
        self.rebases += 1

    # -- reader side -------------------------------------------------------

    @property
    def epoch(self) -> int:
        return self._epoch

    def view(self) -> MemTierView:
        """Capture one consistent read view (no locks).

        Field order matters: the structural fields (base, active,
        tombstones) are read before the watermark, so ``visible`` can
        only run *ahead* of the captured structures — ids it admits that
        the old active segment does not contain are simply absent, which
        degrades to an earlier (still consistent) prefix of the ingest
        stream, never a torn document.
        """
        base = self._base
        active = self._active
        tombstones = self._tombstones
        epoch = self._epoch
        visible = self._visible
        return MemTierView(base, active, tombstones, visible, epoch)

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Point-in-time counters (writer thread or tests)."""
        return {
            "epoch": self._epoch,
            "buffered_postings": sum(map(len, self._active.lists.values())),
            "tombstones": len(self._tombstones),
            "rebases": self.rebases,
        }
