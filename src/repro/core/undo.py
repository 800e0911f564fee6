"""Undo log: roll an aborted ``flush_batch`` back from pre-images.

The paper's restartability (§1, §3) is a shadow discipline — write the
new buckets and directory, then free the old — never a copy of the
index.  A flush mutates a bounded set of things, and a structure's
``journal.note_*`` hook is called *before* that structure's first
mutation in the flush; repeats are idempotent (the contract stated in
:mod:`repro.core.delta`).  On a ``crash_safe`` volume those
``journal`` attributes point at an :class:`UndoLog`, which

* is **armed** when ``flush_batch`` begins: it copies the small state a
  flush always touches (free intervals, counters, flush regions, the
  RELEASE list, trace lengths, batch number, config, the bucket table);
* captures a **pre-image on first touch** at each hook while armed — a
  bucket's list table, a word's directory entry, update-size estimate
  and short-list length, a block's stored bytes;
* forwards every hook to the :class:`~repro.core.delta.DeltaJournal`
  (when the volume has one), armed or not;
* is **sealed** when the batch is complete, dropping the pre-images;
* **rolls back** in place on ``recover()``.

The cost of a batch boundary is therefore O(batch), not O(index).  The
log is armed at flush *begin* rather than snapshotted at flush *end* on
purpose: a deletion sweep rewrites lists between flushes and discards
its filter set, so a boundary taken before the sweep would resurrect the
swept documents when the next flush aborts.

Rollback leans on three properties of the flush path.  Short lists only
grow or leave their bucket whole, and a list grows in place only after
its word is noted, so a bucket is restored from a shallow copy of its
list table plus the noted words' old lengths.  ``BucketGrower``
builds a fresh bucket table and leaves the old ``Bucket`` objects
intact, so growth inside a flush undoes by reference.  New directory
entries and update-size estimates land at the end of their dicts, so
popping them restores the old iteration order.
"""

from __future__ import annotations

from ..storage.blockmap import ABSENT
from ..storage.freelist import BuddyFreeList


class UndoLog:
    """Pre-images of exactly what one ``flush_batch`` dirties.

    Speaks the three journal hooks the mutable structures call
    (``note_bucket``, ``note_word``, ``note_blocks``) and passes each on
    to ``forward``, the volume's delta journal (``None`` in evaluation
    mode).
    """

    def __init__(self, index, forward=None) -> None:
        for disk in index.array.disks:
            if isinstance(disk.freelist, BuddyFreeList):
                from .checkpoint import CheckpointError

                raise CheckpointError(
                    "buddy allocator state is not checkpointable"
                )
        self.index = index
        self.forward = forward
        self.armed = False
        #: ``_next_doc_id`` at the last sealed boundary: where a rollback
        #: that does not replay puts the id counter back.
        self.boundary_next_doc_id = index._next_doc_id
        self._attrs: list[tuple] = []
        self._counters: list[tuple] = []
        self._lengths: list[tuple] = []
        self._buckets: dict[int, tuple] = {}
        self._words: dict[int, tuple] = {}
        self._blocks: list[dict] = [{} for _ in index.array.disks]

    # -- journal protocol ----------------------------------------------------

    def note_bucket(self, bucket_id: int) -> None:
        if self.armed and bucket_id not in self._buckets:
            bucket = self.index.buckets.buckets[bucket_id]
            self._buckets[bucket_id] = (
                bucket, dict(bucket.lists), bucket.npostings
            )
        if self.forward is not None:
            self.forward.note_bucket(bucket_id)

    def note_word(self, word: int) -> None:
        if self.armed and word not in self._words:
            longlists = self.index.longlists
            entry = longlists.directory.get(word)
            # A word has a long list or a short one, never both.
            short = self.index.buckets.get(word) if entry is None else None
            self._words[word] = (
                entry,
                # _update_in_place mutates Chunk.npostings; the other
                # chunk fields never change once the chunk is entered.
                None if entry is None else list(entry.chunks),
                None if entry is None else [c.npostings for c in entry.chunks],
                longlists._update_sizes.get(word),
                short,
                None if short is None else len(short),
            )
        if self.forward is not None:
            self.forward.note_word(word)

    def note_blocks(self, disk_id: int, start: int, nblocks: int) -> None:
        if self.armed:
            saved = self._blocks[disk_id]
            stored = self.index.array.disks[disk_id]._blocks
            for block in range(start, start + nblocks):
                if block not in saved:
                    saved[block] = stored.get(block, ABSENT)
        if self.forward is not None:
            self.forward.note_blocks(disk_id, start, nblocks)

    # -- batch protocol ------------------------------------------------------

    def arm(self) -> None:
        """Start capturing; copy the state every flush touches."""
        index = self.index
        array, longlists, flusher, buckets = (
            index.array, index.longlists, index.flusher, index.buckets
        )
        # Attributes a flush rebinds, restored by assignment.  The bucket
        # table is kept by reference: growth builds a fresh one.
        rebound = [
            (index, "_batches"),
            (index, "config"),
            (array, "_next_disk"),
            (longlists, "_current_prediction"),
            (flusher, "_bucket_regions"),
            (flusher, "_directory_region"),
            (buckets, "buckets"),
            (buckets, "nbuckets"),
            (buckets, "hash_fn"),
        ]
        # Lists a flush mutates in place, restored from a copy.
        mutated = [(longlists, "release")]
        counters = [longlists.counters, flusher.counters]
        for disk in array.disks:
            rebound.append((disk, "head"))
            mutated.append((disk.freelist, "_starts"))
            mutated.append((disk.freelist, "_lengths"))
            counters.append(disk.counters)
        # Lists a flush only appends to, restored by truncation.
        appended = []
        if index.trace is not None:
            appended += [index.trace._ops, index.trace._batch_bounds]
        if index.grower is not None:
            appended.append(index.grower.events)
        self._attrs = [(o, name, getattr(o, name)) for o, name in rebound]
        self._attrs += [
            (o, name, list(getattr(o, name))) for o, name in mutated
        ]
        self._counters = [(c, dict(vars(c))) for c in counters]
        self._lengths = [(items, len(items)) for items in appended]
        self.armed = True

    def seal(self) -> None:
        """The batch is complete: this is the new restart boundary."""
        self._drop()
        self.boundary_next_doc_id = self.index._next_doc_id

    def _drop(self) -> None:
        self.armed = False
        self._attrs, self._counters, self._lengths = [], [], []
        self._buckets.clear()
        self._words.clear()
        for saved in self._blocks:
            saved.clear()

    def rollback(self) -> None:
        """Restore, in place, the state the last :meth:`arm` saw.

        A no-op on the disk structures when nothing is armed.  Either
        way the id counter returns to the last sealed boundary — the
        documents of an unflushed batch are gone with it.
        """
        index = self.index
        index._next_doc_id = self.boundary_next_doc_id
        if not self.armed:
            return
        for owner, name, value in self._attrs:
            setattr(owner, name, value)
        for counters, fields in self._counters:
            vars(counters).update(fields)
        for items, length in self._lengths:
            del items[length:]

        for disk, saved in zip(index.array.disks, self._blocks):
            for block, data in saved.items():
                if data is ABSENT:
                    disk._blocks.pop(block, None)
                else:
                    disk._blocks[block] = data

        for bucket, lists, npostings in self._buckets.values():
            bucket.lists = lists
            bucket.npostings = npostings

        buckets = index.buckets
        entries = index.longlists.directory._entries
        sizes = index.longlists._update_sizes
        for word, saved in self._words.items():
            entry, chunks, npostings, size, short, n = saved
            if short is not None and len(short) != n:
                # Grown in place: its restored table holds it again.
                lists = buckets.buckets[buckets.bucket_of(word)].lists
                lists[word] = short.split(n)[0]
            if entry is None:
                entries.pop(word, None)
            else:
                for chunk, n in zip(chunks, npostings):
                    chunk.npostings = n
                entry.chunks = chunks
            if size is None:
                sizes.pop(word, None)
            else:
                sizes[word] = size
        self._drop()
