"""Per-batch delta journal feeding incremental copy-on-write publication.

Between two published snapshots the writer mutates a bounded set of
structures: the buckets that absorbed short postings, the directory
entries and chunks of long lists that were appended to or relocated, the
disk blocks rewritten or freed by those moves, and the deletion set.
``DeltaJournal`` records exactly that dirty set so that
``checkpoint.clone_incremental`` can deep-copy only what changed and
structurally share everything else with the previous snapshot, so
the serving cache can evict only results whose terms intersect the
batch's dirty vocabulary, and so a shard worker can cut a redo record
(``checkpoint.save_record``) from the journals of every publish since
its last checkpoint, folded together with :meth:`DeltaJournal.absorb`.

The journal is created once by ``DualStructureIndex`` (content mode
only), when a full copy of the volume is first taken, and fed by the
``journal`` hooks of the disks, the bucket manager, the long-list manager
and the flush manager, and by the deletion manager.  It is a single
long-lived object cleared in place after each successful publish, and
recovery restores the structures in place, so the hooks are wired once.

The structure hooks (``note_bucket``, ``note_word``, ``note_blocks``)
have two consumers.  On a ``crash_safe`` volume the structures point at
the :class:`~repro.core.undo.UndoLog` instead, which captures a
pre-image of whatever is about to change and then forwards the call
here.  Hence the contract every mutation site keeps: **a structure's
hook is called before that structure's first mutation in a flush**, and
no flush-path mutation bypasses it.  Repeats are idempotent — the log
captures on first touch only and this journal keeps sets — so a site
may call again before each later mutation, or, like
``BucketManager.merge``'s bucket hook, once per flush.

Recording is deliberately a superset: anything that *might* differ from
the previous snapshot is marked dirty.  Over-recording costs a little
sharing; under-recording would leak writer mutations into published
snapshots, so every mutation path must pass through a ``note_*`` hook.
"""

from __future__ import annotations


class FrozenStateError(RuntimeError):
    """A mutation reached an index structure frozen at publish time.

    Raised by the debug-mode write barrier (``invariants.freeze_index``)
    when a published snapshot — whose buckets, chunks, and blocks may be
    structurally shared with other snapshots — is mutated.  Any
    occurrence is a bug in the copy-on-write discipline, never a
    recoverable condition.
    """


class DeltaJournal:
    """Dirty-set record of all writer mutations since the last publish."""

    __slots__ = (
        "dirty_words",
        "dirty_buckets",
        "dirty_blocks",
        "deletions_changed",
        "structure_changed",
        "recovered",
        "batches",
    )

    def __init__(self) -> None:
        self.dirty_words: set[int] = set()
        self.dirty_buckets: set[int] = set()
        self.dirty_blocks: set[tuple[int, int]] = set()
        self.deletions_changed = False
        self.structure_changed = False
        self.recovered = False
        self.batches = 0

    # ------------------------------------------------------------------
    # Recording hooks (called from the flush / deletion / storage paths)
    # ------------------------------------------------------------------
    def note_word(self, word: int) -> None:
        """A long-list directory entry (or its chunks) changed."""
        self.dirty_words.add(word)

    def note_bucket(self, bucket_id: int) -> None:
        """A bucket's resident short lists changed."""
        self.dirty_buckets.add(bucket_id)

    def note_blocks(self, disk_id: int, start: int, nblocks: int) -> None:
        """A contiguous block range was written or freed."""
        add = self.dirty_blocks.add
        for block in range(start, start + nblocks):
            add((disk_id, block))

    def note_deletions(self) -> None:
        """The deleted-document set changed (delete or sweep drain)."""
        self.deletions_changed = True

    def note_structure(self) -> None:
        """A structural change (bucket growth) invalidated sharing."""
        self.structure_changed = True

    def note_recovery(self) -> None:
        """Crash recovery rebuilt the index; journal coverage is void,
        and so is the writer's ownership of the words noted so far."""
        self.recovered = True
        self.dirty_words.clear()

    def note_batch(self) -> None:
        """A flush completed; used to cross-check publish bookkeeping."""
        self.batches += 1

    # ------------------------------------------------------------------
    # Publication protocol
    # ------------------------------------------------------------------
    @property
    def requires_full(self) -> bool:
        """True when only a full clone is safe.

        Bucket growth rehashes every resident word, and crash recovery
        replaces the structures the journal was observing — in both
        cases the dirty set no longer bounds the divergence from the
        previous snapshot, so the publisher falls back to the full
        checkpoint clone (the differential-testing oracle).
        """
        return self.structure_changed or self.recovered

    def absorb(self, other: "DeltaJournal") -> None:
        """Fold ``other``'s dirty set into this one — a journal spanning
        several publishes (a shard worker's since-checkpoint journal,
        which a redo record is cut from)."""
        self.dirty_words |= other.dirty_words
        self.dirty_buckets |= other.dirty_buckets
        self.dirty_blocks |= other.dirty_blocks
        self.deletions_changed |= other.deletions_changed
        self.structure_changed |= other.structure_changed
        self.recovered |= other.recovered
        self.batches += other.batches

    def clear(self) -> None:
        """Reset in place after a successful publish.

        In-place so every structure holding a reference to the journal
        (disks, managers) keeps observing the same object — no
        re-wiring after publish.
        """
        self.dirty_words.clear()
        self.dirty_buckets.clear()
        self.dirty_blocks.clear()
        self.deletions_changed = False
        self.structure_changed = False
        self.recovered = False
        self.batches = 0
