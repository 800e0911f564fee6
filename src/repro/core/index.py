"""The dual-structure index facade — the paper's primary contribution.

:class:`DualStructureIndex` ties the pieces together exactly as §2 describes:

* arriving documents accumulate in an :class:`~repro.core.memindex.InMemoryIndex`;
* at a batch boundary (:meth:`flush_batch`) each in-memory list moves to
  disk: **appended to the word's long list** when the directory has an
  entry, otherwise **inserted into bucket** ``h(w)``; bucket overflows
  promote the longest short list to a new long list via the policy machine;
* finally all buckets and the directory shadow-flush to disk and the
  RELEASE list is freed.

A word never has both a short and a long list (asserted in tests).  The
facade works on integer word ids; :class:`repro.textindex.TextDocumentIndex`
layers tokenization and a vocabulary on top for text documents.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields, replace

from ..storage import faults
from ..storage.diskarray import DiskArray, DiskArrayConfig
from ..storage.faults import FaultPlan, FaultyDiskArray
from ..storage.iotrace import IOTrace
from ..storage.profiles import SEAGATE_SCSI_1994, DiskProfile
from .buckets import BucketManager
from .delta import DeltaJournal, FrozenStateError
from .flush import FlushManager
from .longlists import LongListManager
from .memindex import InMemoryIndex
from .policy import Policy
from .positional import PositionalPostings
from .rebalance import BucketGrower, GrowthPolicy
from .postings import DocPostings
from .undo import UndoLog

CP_FLUSH_BEGIN = faults.register_crash_point(
    "index.flush-begin",
    "flush_batch entered; no disk structure touched yet",
)
CP_BEFORE_WORD = faults.register_crash_point(
    "index.before-word-append",
    "mid-batch, before moving one in-memory list to disk",
)
CP_BEFORE_SHADOW_FLUSH = faults.register_crash_point(
    "index.before-shadow-flush",
    "all lists moved to disk; buckets/directory not yet shadow-flushed",
)
CP_BEFORE_RELEASE = faults.register_crash_point(
    "index.before-release",
    "shadow flush done; RELEASE list not yet freed",
)
CP_BEFORE_CLEAR = faults.register_crash_point(
    "index.before-clear",
    "batch fully on disk; in-memory batch not yet cleared",
)
CP_BEFORE_RECOVERY_POINT = faults.register_crash_point(
    "index.before-recovery-point",
    "batch complete on disk; undo log not yet sealed",
)


class WordCategory(enum.Enum):
    """Per-update word classification behind the paper's Figure 7."""

    NEW = "new"
    BUCKET = "bucket"
    LONG = "long"


@dataclass(frozen=True)
class IndexConfig:
    """Tunable parameters of the dual-structure index.

    Defaults reproduce the base case of the paper's Table 4 as reconstructed
    in DESIGN.md §6.
    """

    nbuckets: int = 1024
    bucket_size: int = 1024
    block_postings: int = 64
    bucket_unit_bytes: int = 4
    ndisks: int = 4
    profile: DiskProfile | None = None
    allocator: str = "first-fit"
    policy: Policy = field(default_factory=Policy.recommended_new)
    #: Store word positions and region flags in every posting (paper §1).
    positional: bool = False
    nblocks_override: int | None = None
    trace_enabled: bool = True
    directory_entry_bytes: int = 16
    #: Grow the bucket space automatically when occupancy crosses the
    #: growth policy's threshold (paper §7's rebalancing strategy).
    grow_buckets: bool = False
    growth: GrowthPolicy = field(default_factory=GrowthPolicy)
    #: Keep an undo log of every flush (pre-images of exactly what the
    #: batch dirties, dropped when the batch is complete) so
    #: :meth:`DualStructureIndex.recover` can roll back an aborted update
    #: (the paper's §1 restartability claim, made operational).
    crash_safe: bool = False
    #: Inject failures from this plan into every disk operation (testing).
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.nbuckets <= 0 or self.bucket_size <= 0:
            raise ValueError("nbuckets and bucket_size must be > 0")
        if self.block_postings <= 0:
            raise ValueError("block_postings must be > 0")

    def array_config(self) -> DiskArrayConfig:
        return DiskArrayConfig(
            ndisks=self.ndisks,
            profile=self.profile or SEAGATE_SCSI_1994,
            allocator=self.allocator,
            store_contents=True,
            nblocks_override=self.nblocks_override,
        )


@dataclass
class BatchResult:
    """Outcome of flushing one batch update."""

    batch: int
    nwords: int
    npostings: int
    new_words: int
    bucket_words: int
    long_words: int
    migrations: int
    io_ops: int
    in_place_updates: int

    @classmethod
    def total(cls, batch: int, results) -> "BatchResult":
        """Per-shard flush results summed into global batch ``batch``.

        ``nwords`` sums *per-shard* distinct words (a word split across
        shards counts once per shard it touched — each shard really did
        update a list for it); I/O counters are straight sums.
        """
        results = list(results)
        return cls(
            batch,
            *(
                sum(getattr(r, f.name) for r in results)
                for f in fields(cls)[1:]
            ),
        )


@dataclass
class IndexStats:
    """Point-in-time index statistics (the measurements of Section 5)."""

    batches: int
    long_words: int
    long_chunks: int
    long_postings: int
    long_blocks: int
    long_utilization: float
    avg_reads_per_long_list: float
    bucket_words: int
    bucket_postings: int
    bucket_occupancy: float
    disk_allocated_blocks: int
    disk_total_blocks: int
    in_place_updates: int
    in_place_possible: int
    io_ops: int


class DualStructureIndex:
    """Incrementally updatable inverted index over integer word ids."""

    #: Set on every published snapshot (``shard.publish_copy``) and by
    #: ``invariants.freeze_index``, which arms the structures too; guarded
    #: at the mutation entry points so copy-on-write sharing violations
    #: fail loudly in debug mode.
    frozen = False

    def __init__(self, config: IndexConfig | None = None) -> None:
        self.config = config or IndexConfig()
        self.trace = IOTrace() if self.config.trace_enabled else None
        if self.config.fault_plan is not None:
            self.array = FaultyDiskArray(
                self.config.array_config(), self.config.fault_plan
            )
        else:
            self.array = DiskArray(self.config.array_config())
        self.buckets = BucketManager(
            self.config.nbuckets, self.config.bucket_size
        )
        content_cls = (
            PositionalPostings if self.config.positional else DocPostings
        )
        self.longlists = LongListManager(
            self.config.policy,
            self.array,
            self.config.block_postings,
            trace=self.trace,
            content_cls=content_cls,
        )
        self.flusher = FlushManager(
            self.array,
            self.config.block_postings,
            trace=self.trace,
            directory_entry_bytes=self.config.directory_entry_bytes,
        )
        self.memory = InMemoryIndex()
        self.grower = BucketGrower(self.config.growth) if (
            self.config.grow_buckets
        ) else None
        self._batches = 0
        self._next_doc_id = 0
        self._aborted_batch: tuple | None = None
        self._aborted_next_doc_id = 0
        # The index journals every mutation for incremental copy-on-write
        # publication from its first full copy on (begin_journal).
        self.delta: DeltaJournal | None = None
        self._undo = UndoLog(self) if self.config.crash_safe else None
        self._attach_journal()

    def begin_journal(self) -> None:
        """Build the delta journal unless there is one, or this is a
        published (frozen) snapshot, which nothing copies from.

        Called as a full copy of the volume is taken (a base, which is
        also how a clone copies): every consumer of the journal starts
        from such a copy, so it need cover nothing before it, and a
        volume never copied pays for none.
        """
        if self.delta is None and not self.frozen:
            self.delta = DeltaJournal()
            self._attach_journal()

    def _attach_journal(self) -> None:
        """Point every mutable structure's ``journal`` hook at its consumer.

        On a ``crash_safe`` volume that is the undo log, which captures
        pre-images while a flush is in progress and forwards to the delta
        journal; otherwise the delta journal itself, or nothing before it
        is built.  Both objects are long-lived and reset in place (the
        journal at each publish, the log at each batch boundary), and
        recovery restores the structures in place, so the
        references set here stay valid for the life of the index.  The
        journal's noted words are also the bucket manager's :attr:`owned`
        set.
        """
        if self.delta is not None:
            self.buckets.owned = self.delta.dirty_words
        if self._undo is not None:
            self._undo.forward = self.delta
        journal = self._undo if self._undo is not None else self.delta
        if journal is None:
            return
        self.buckets.journal = journal
        self.longlists.journal = journal
        self.flusher.journal = journal
        for disk_id, disk in enumerate(self.array.disks):
            disk.journal = journal
            disk.journal_disk = disk_id

    # -- ingest -----------------------------------------------------------

    @property
    def directory(self):
        """The long-list directory (read-only use expected)."""
        return self.longlists.directory

    def add_document(self, words, doc_id: int | None = None) -> int:
        """Add one document's words to the current in-memory batch.

        Returns the document id used.  Ids are assigned in arrival order
        when not supplied — the paper's increasing-identifier assumption
        that keeps all lists sorted and append-only.
        """
        if doc_id is None:
            doc_id = self._next_doc_id
        elif doc_id < self._next_doc_id:
            raise ValueError(
                f"doc ids must be non-decreasing; got {doc_id} after "
                f"{self._next_doc_id - 1}"
            )
        if self.config.positional:
            raise RuntimeError(
                "positional indexes ingest via add_document_occurrences"
            )
        self.memory.add_document(doc_id, words)
        self._next_doc_id = doc_id + 1
        return doc_id

    def add_document_occurrences(self, occurrences, doc_id: int | None = None):
        """Positional variant of :meth:`add_document`: ``occurrences`` are
        ``(word, position, Region)`` triples (paper §1's posting extras)."""
        if not self.config.positional:
            raise RuntimeError("index is not configured as positional")
        if doc_id is None:
            doc_id = self._next_doc_id
        elif doc_id < self._next_doc_id:
            raise ValueError(
                f"doc ids must be non-decreasing; got {doc_id} after "
                f"{self._next_doc_id - 1}"
            )
        self.memory.add_document_occurrences(doc_id, occurrences)
        self._next_doc_id = doc_id + 1
        return doc_id

    def classify(self, word: int) -> WordCategory:
        """Categorize a word as the paper's Figure 7 does: long if the
        directory knows it, bucket if a bucket holds it, new otherwise."""
        if word in self.longlists.directory:
            return WordCategory.LONG
        if self.buckets.contains(word):
            return WordCategory.BUCKET
        return WordCategory.NEW

    def flush_batch(self) -> BatchResult:
        """Write the in-memory index to disk as one batch update."""
        if self.frozen:
            raise FrozenStateError(
                "attempt to flush a frozen (published) snapshot"
            )
        undo = self._undo
        if undo is not None:
            if undo.armed:
                raise RuntimeError(
                    "an aborted flush has not been rolled back; call "
                    "recover() before flushing again"
                )
            # Keep the batch before any disk structure is touched so an
            # aborted update can be re-applied after rollback.
            self._aborted_batch = self.memory.snapshot()
            self._aborted_next_doc_id = self._next_doc_id
            undo.arm()
        faults.crash_point(CP_FLUSH_BEGIN)
        ops_before = self.longlists.counters.io_ops
        in_place_before = self.longlists.counters.in_place_updates
        nwords = len(self.memory)
        new, in_bucket, nlong, migrations, npostings = self.buckets.merge(
            self.memory.items(),
            self.longlists.directory._entries.__contains__,
            self.longlists.append,
            faults.armed(CP_BEFORE_WORD),
        )
        if self.grower is not None:
            # Rebalance before the flush so the enlarged region is what
            # gets written ("expanded and written in a larger region").
            grew = self.grower.maybe_grow(self.buckets, batch=self._batches)
            if grew is not None:
                self._note_growth()
        faults.crash_point(CP_BEFORE_SHADOW_FLUSH)
        profile = self.array.profile
        self.flusher.flush(
            self.buckets.flush_blocks(
                profile.block_size, self.config.bucket_unit_bytes
            ),
            self.longlists.directory,
        )
        faults.crash_point(CP_BEFORE_RELEASE)
        self.longlists.end_batch()
        if self.trace is not None:
            self.trace.end_batch()
        faults.crash_point(CP_BEFORE_CLEAR)
        self.memory.clear()
        self._batches += 1
        if self.delta is not None:
            self.delta.note_batch()
        if undo is not None:
            faults.crash_point(CP_BEFORE_RECOVERY_POINT)
            undo.seal()
            self._aborted_batch = None
        return BatchResult(
            batch=self._batches - 1,
            nwords=nwords,
            npostings=npostings,
            new_words=new,
            bucket_words=in_bucket,
            long_words=nlong,
            migrations=migrations,
            io_ops=self.longlists.counters.io_ops - ops_before,
            in_place_updates=(
                self.longlists.counters.in_place_updates - in_place_before
            ),
        )

    def _note_growth(self) -> None:
        """Record the consequences of a bucket-space expansion.

        Growth rehashes every resident word, so the delta journal's dirty
        set no longer bounds the divergence — the next publish must fall
        back to a full clone.  The config is re-synced to the enlarged
        manager (a *new* frozen instance; a config object shared across
        shards is never mutated) so checkpoint serialization and the
        clone fingerprint see the bucket count that is actually live.
        """
        if self.delta is not None:
            self.delta.note_structure()
        if self.config.nbuckets != self.buckets.nbuckets:
            self.config = replace(self.config, nbuckets=self.buckets.nbuckets)

    def grow_bucket_space(self, grower: BucketGrower | None = None):
        """Expand the bucket space once, outside the flush path.

        The scheduled-rebuild entry point: a caller that staggers growth
        across shards (gateway replicas, the sharded index's rebuild
        scheduler) disables the in-flush auto-grower and applies growth
        explicitly between batches.  Uses ``grower`` (or this index's
        own, or a fresh one from ``config.growth``) and returns the
        :class:`~repro.core.rebalance.GrowthEvent`.
        """
        grower = grower or self.grower or BucketGrower(self.config.growth)
        event = grower.grow(self.buckets, batch=self._batches)
        self._note_growth()
        return event

    # -- crash recovery ----------------------------------------------------

    def recover(self, replay: bool = True) -> BatchResult | None:
        """Roll back to the state the aborted flush began from and resume.

        The paper's §1 restartability claim, as a driver: restore, in
        place, every structure the aborted flush touched (directory,
        buckets, free lists, flush regions, disk contents, counters) from
        the undo log's pre-images, drop the in-memory batch, then — when
        ``replay`` is true and an aborted batch was captured — re-apply
        that batch and flush it again, returning the replayed
        :class:`BatchResult`.  With nothing aborted the disk structures
        are left as they are.

        Requires ``crash_safe=True``.  Nothing is rebuilt, so whatever the
        flush does not touch survives: the I/O trace of earlier batches,
        bucket watch histories, and the disk array itself — a fault plan
        wired into it stays wired (its one-shot ``crash_on_*`` triggers
        count operations monotonically and have already fired).
        """
        if self._undo is None:
            raise RuntimeError(
                "recover() requires IndexConfig(crash_safe=True)"
            )
        self._undo.rollback()
        self.memory.clear()
        # The journal kept recording through the aborted flush, but the
        # rollback is not one of its hooks: void its coverage so the next
        # publish falls back to a full clone, and its noted words, since
        # the rollback put back payloads a snapshot may share.
        if self.delta is not None:
            self.delta.note_recovery()
        if replay and self._aborted_batch is not None:
            self.memory.restore(self._aborted_batch)
            self._next_doc_id = self._aborted_next_doc_id
            return self.flush_batch()
        self._aborted_batch = None
        return None

    # -- retrieval ---------------------------------------------------------

    def fetch(self, word: int):
        """Fetch a word's full posting list and the read ops it cost.

        Merges, in order: the on-disk long list (one read per chunk — the
        Figure 10 cost), or the bucket short list (one bucket read), plus
        any unflushed postings from the current in-memory batch ("the
        batch can be searched simultaneously with the larger index", §1).
        The read ops are the caller's to charge: a fetch changes no
        counter, trace or other state of the index.
        """
        content_cls = self.longlists.content_cls
        postings = content_cls()
        read_ops = 0
        entry = self.longlists.directory.get(word)
        if entry is not None:
            postings = self.longlists.query_postings(word)
            read_ops = entry.nchunks
        else:
            short = self.buckets.get(word)
            if short is not None:
                postings = short.copy()
                read_ops = 1
        pending = self.memory.get(word)
        if pending is not None:
            postings.extend(pending.copy())
        return postings, read_ops

    def posting_count(self, word: int) -> int:
        """Total postings currently indexed for a word."""
        total = 0
        entry = self.longlists.directory.get(word)
        if entry is not None:
            total += entry.npostings
        else:
            short = self.buckets.get(word)
            if short is not None:
                total += len(short)
        pending = self.memory.get(word)
        if pending is not None:
            total += len(pending)
        return total

    @property
    def ndocs(self) -> int:
        """Documents indexed so far (content usage)."""
        return self._next_doc_id

    @property
    def batches(self) -> int:
        """Completed batch flushes (the public face of ``_batches``)."""
        return self._batches

    # -- statistics ---------------------------------------------------------

    def stats(self) -> IndexStats:
        d = self.longlists.directory
        return IndexStats(
            batches=self._batches,
            long_words=d.nwords,
            long_chunks=d.total_chunks,
            long_postings=d.total_postings,
            long_blocks=d.total_blocks,
            long_utilization=d.utilization(self.config.block_postings),
            avg_reads_per_long_list=d.avg_reads_per_list(),
            bucket_words=self.buckets.total_words,
            bucket_postings=self.buckets.total_postings,
            bucket_occupancy=self.buckets.occupancy(),
            disk_allocated_blocks=self.array.allocated_blocks,
            disk_total_blocks=self.array.total_blocks,
            in_place_updates=self.longlists.counters.in_place_updates,
            in_place_possible=self.longlists.counters.appends_to_existing,
            io_ops=self.longlists.counters.io_ops,
        )
