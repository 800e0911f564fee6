"""Long lists and the Figure-2 update algorithm — the heart of the paper.

:class:`LongListManager` owns the directory, talks to the disk array, and
applies a :class:`~repro.core.policy.Policy` to every append of an in-memory
list ``M`` to a word's long list ``L``.  The paper's pseudo-code::

    1  if y <= Limit then
    2      UPDATE(M)                      -- in-place append into slack z
    3  else
    4      if Style = whole then
    5          b := READ(L)
    6          WRITE_RESERVED(M and b)    -- old chunks retire to RELEASE
    7      if Style = fill then
    8          WHILE (M not empty)
    9              WRITE(M, M)            -- one fixed-size extent at a time
    10     if Style = new then
    11         WRITE_RESERVED(M)

where ``y = len(M)`` and ``z`` is the posting slack at the end of ``L``'s
last chunk.  Consequence of lines 1–2 (paper §3): an in-memory list is never
split across chunks by an in-place update — either all of ``M`` fits in the
slack or the style machinery runs.

Every disk operation is recorded on an :class:`~repro.storage.IOTrace`
(when attached) so the ComputeDisks stage of the pipeline is literally this
class running over a long-list update trace.

In content mode (``store_contents=True`` on the disk array) the manager also
moves real posting bytes: each block stores a self-contained delta+varint
encoding of the postings that live in it, so queries can read lists back by
visiting exactly the chunks the directory names — paying exactly the read
operations the evaluation charges.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage import faults
from ..storage.block import Chunk, blocks_for_postings
from ..storage.diskarray import DiskArray
from ..storage.iotrace import IOTrace, OpKind, Target, TraceOp
from .directory import Directory, LongListEntry
from .policy import Policy, Style
from .postings import CountPostings, DocPostings, PostingPayload, empty_like

CP_BEFORE_INPLACE_WRITE = faults.register_crash_point(
    "longlists.before-inplace-write",
    "UPDATE(M): tail block read, in-place write not yet applied",
)
CP_AFTER_WHOLE_READ = faults.register_crash_point(
    "longlists.after-whole-read",
    "whole style: old chunks read and retired to RELEASE, new chunk not "
    "yet written",
)
CP_AFTER_CHUNK_ALLOC = faults.register_crash_point(
    "longlists.after-chunk-alloc",
    "WRITE_RESERVED: chunk allocated, not yet entered in the directory",
)
CP_FILL_EXTENT = faults.register_crash_point(
    "longlists.fill-extent",
    "fill style: between extent writes of one update",
)
CP_BEFORE_RELEASE_FREE = faults.register_crash_point(
    "longlists.before-release-free",
    "batch boundary reached, RELEASE list not yet freed",
)
CP_MID_RELEASE_FREE = faults.register_crash_point(
    "longlists.mid-release-free",
    "some RELEASE chunks freed, the rest still allocated",
)


class ShortChunkError(ValueError):
    """Disk blocks decoded to a different posting count than the directory
    records for them: answering from them would answer short."""


@dataclass
class LongListCounters:
    """Cumulative activity of the long-list manager.

    ``appends_to_existing`` is the paper's "total possible number of
    in-place updates"; ``in_place_updates`` over it gives the Table-5/6
    ``Frac`` column.
    """

    appends: int = 0
    appends_to_existing: int = 0
    in_place_updates: int = 0
    reads: int = 0
    writes: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    lists_created: int = 0
    whole_moves: int = 0

    @property
    def io_ops(self) -> int:
        return self.reads + self.writes

    @property
    def in_place_fraction(self) -> float:
        if self.appends_to_existing == 0:
            return 0.0
        return self.in_place_updates / self.appends_to_existing


class LongListManager:
    """Applies the update policy to long lists on a simulated disk array."""

    #: Delta-journal hook (attached by ``DualStructureIndex`` in content
    #: mode) and the publish-time write barrier flag.
    journal = None
    frozen = False
    #: Optional per-snapshot decoded-chunk cache (serving layer attaches a
    #: ``storage.buffercache.BlockBufferCache`` to published snapshots).
    buffer_cache = None

    def __init__(
        self,
        policy: Policy,
        array: DiskArray,
        block_postings: int,
        trace: IOTrace | None = None,
        content_cls: type = DocPostings,
    ) -> None:
        if block_postings <= 0:
            raise ValueError("block_postings must be > 0")
        self.policy = policy
        self.array = array
        self.block_postings = block_postings
        self.trace = trace
        self.content_cls = content_cls
        self.directory = Directory()
        self.release: list[Chunk] = []
        self.counters = LongListCounters()
        self._content = array.config.store_contents
        # Per-word EWMA of in-memory list sizes (adaptive allocation),
        # observed *after* each update so predictions use history only.
        self._update_sizes: dict[int, float] = {}
        self._current_prediction = 0.0

    def _check_unfrozen(self, action: str) -> None:
        if self.frozen:
            from .delta import FrozenStateError

            raise FrozenStateError(
                f"attempt to {action} a frozen (published) long-list manager"
            )

    # -- trace plumbing ------------------------------------------------------

    def _record(
        self,
        kind: OpKind,
        chunk_disk: int,
        start: int,
        nblocks: int,
        word: int,
        npostings: int,
    ) -> None:
        if kind is OpKind.READ:
            self.counters.reads += 1
            self.counters.blocks_read += nblocks
        else:
            self.counters.writes += 1
            self.counters.blocks_written += nblocks
        if self.trace is not None:
            self.trace.append(
                TraceOp(
                    kind=kind,
                    target=Target.LONG_LIST,
                    disk=chunk_disk,
                    start=start,
                    nblocks=nblocks,
                    word=word,
                    npostings=npostings,
                )
            )

    # -- content-mode block encoding ------------------------------------------

    def _encode_blocks(self, payload: PostingPayload) -> list[bytes]:
        """Encode a payload into self-contained per-block byte strings."""
        if not isinstance(payload, self.content_cls):
            raise TypeError(
                f"content mode requires {self.content_cls.__name__} payloads"
            )
        blocks: list[bytes] = []
        remaining = payload
        while len(remaining) > 0:
            head, remaining = remaining.split(self.block_postings)
            data = head.encode()
            if len(data) > self.array.profile.block_size:
                raise ValueError(
                    f"{len(head)} postings encode to {len(data)} bytes, "
                    f"exceeding the {self.array.profile.block_size}-byte "
                    "block; lower block_postings"
                )
            blocks.append(data)
        return blocks

    def _write_chunk_contents(self, chunk: Chunk, payload: PostingPayload) -> None:
        if not self._content:
            return
        self.array.disks[chunk.disk].write_blocks(
            chunk.start, self._encode_blocks(payload)
        )

    def _read_chunk_postings(self, chunk: Chunk):
        data_blocks = blocks_for_postings(chunk.npostings, self.block_postings)
        # The buffer cache sits *below* all read-op and trace accounting:
        # a hit skips only the block-store access and the decode, so cached
        # serving reports exactly the Figure-10 costs of uncached serving.
        cache = self.buffer_cache
        if cache is not None:
            cached = cache.get(chunk.disk, chunk.start, chunk.npostings)
            if cached is not None:
                return cached
        raw = self.array.disks[chunk.disk].read_blocks(chunk.start, data_blocks)
        postings = self.content_cls()
        for block in raw:
            postings.extend(self.content_cls.decode(block))
        if len(postings) != chunk.npostings:
            raise ShortChunkError(
                f"chunk at disk {chunk.disk} start {chunk.start} decodes "
                f"to {len(postings)} postings, the directory says "
                f"{chunk.npostings}"
            )
        if cache is not None:
            cache.put(
                chunk.disk, chunk.start, data_blocks, chunk.npostings, postings
            )
        return postings

    def query_postings(self, word: int):
        """A word's full long list, decoded and sorted (content mode only),
        for a query.

        A query costs one read per chunk (Figure 10), which the caller
        charges (``DualStructureIndex.fetch`` returns it).  Nothing is
        recorded here: the counters and trace hold the update side's I/O
        and are saved with the index, so a published snapshot answers
        from any thread and saves to the same bytes after any number of
        queries.
        """
        if not self._content:
            raise RuntimeError("query_postings requires content mode")
        postings = self.content_cls()
        entry = self.directory.get(word)
        if entry is not None:
            for chunk in entry.chunks:
                postings.extend(self._read_chunk_postings(chunk))
        return postings

    def read_postings(self, word: int):
        """Read a word's full long list back for an update (the deletion
        sweep's read before its rewrite): ``query_postings`` plus one
        traced read per chunk in the counters and trace."""
        entry = self.directory.get(word)
        if entry is not None:
            for chunk in entry.chunks:
                self._record(
                    OpKind.READ,
                    chunk.disk,
                    chunk.start,
                    chunk.nblocks,
                    word,
                    chunk.npostings,
                )
        return self.query_postings(word)

    # -- the Figure-2 algorithm -------------------------------------------------

    def append(self, word: int, payload: PostingPayload) -> None:
        """Append the in-memory list ``payload`` to ``word``'s long list.

        Creates the long list on first call for a word (bucket overflow
        promotion lands here).
        """
        y = len(payload)
        if y <= 0:
            raise ValueError("an update must carry at least one posting")
        self._check_unfrozen("append to")
        if self.journal is not None:
            self.journal.note_word(word)
        self.counters.appends += 1
        # Adaptive allocation predicts from *prior* updates only: the first
        # write of a word (often a bulk bucket migration) reserves nothing,
        # and steady words converge to their typical update size.
        self._current_prediction = self._update_sizes.get(word, 0.0)
        entry = self.directory.entry(word)
        last = entry.last_chunk
        if last is None:
            self.counters.lists_created += 1
        else:
            self.counters.appends_to_existing += 1
            z = last.slack(self.block_postings)
            if y <= self.policy.in_place_limit(z):
                self._update_in_place(entry, last, payload)
                return
        if self.policy.style is Style.WHOLE:
            self._append_whole(entry, payload)
        elif self.policy.style is Style.FILL:
            self._append_fill(entry, payload)
        else:
            self._append_new(entry, payload)
        self._observe_update(word, y)

    def _update_in_place(
        self, entry: LongListEntry, chunk: Chunk, payload: PostingPayload
    ) -> None:
        """UPDATE(M): read the tail block, append, write back in place."""
        y = len(payload)
        # Read the last block currently containing postings.
        data_blocks = blocks_for_postings(chunk.npostings, self.block_postings)
        read_block = chunk.start + data_blocks - 1
        self._record(
            OpKind.READ, chunk.disk, read_block, 1, entry.word, chunk.npostings
        )
        faults.crash_point(CP_BEFORE_INPLACE_WRITE)
        touched = chunk.blocks_touched_by_append(y, self.block_postings)
        if self._content:
            # Rewrite the partial tail block plus any newly filled blocks.
            in_tail = chunk.npostings - (touched.start - chunk.start) * (
                self.block_postings
            )
            old_tail = self.content_cls()
            if in_tail > 0:
                raw = self.array.disks[chunk.disk].read_blocks(
                    touched.start, 1
                )[0]
                old_tail = self.content_cls.decode(raw)
            combined = old_tail
            combined.extend(payload)  # type: ignore[arg-type]
            self.array.disks[chunk.disk].write_blocks(
                touched.start, self._encode_blocks(combined)
            )
        chunk.npostings += y
        self._record(
            OpKind.WRITE,
            chunk.disk,
            touched.start,
            touched.nblocks,
            entry.word,
            y,
        )
        self.counters.in_place_updates += 1
        self._observe_update(entry.word, y)

    def _append_whole(
        self, entry: LongListEntry, payload: PostingPayload
    ) -> None:
        """whole style: READ(L); WRITE_RESERVED(M and b)."""
        combined = empty_like(payload)
        for chunk in entry.chunks:
            self._record(
                OpKind.READ,
                chunk.disk,
                chunk.start,
                chunk.nblocks,
                entry.word,
                chunk.npostings,
            )
            if self._content:
                combined.extend(self._read_chunk_postings(chunk))
            else:
                combined.extend(CountPostings(chunk.npostings))
            self.release.append(chunk)
        if entry.chunks:
            self.counters.whole_moves += 1
            faults.crash_point(CP_AFTER_WHOLE_READ)
        combined.extend(payload)
        entry.chunks = []
        self._write_reserved(entry, combined)

    def _append_new(self, entry: LongListEntry, payload: PostingPayload) -> None:
        """new style: WRITE_RESERVED(M) as a fresh chunk."""
        self._write_reserved(entry, payload)

    def _write_reserved(
        self, entry: LongListEntry, payload: PostingPayload
    ) -> None:
        """WRITE_RESERVED: one chunk sized by the Alloc strategy."""
        x = len(payload)
        nblocks = self.policy.chunk_blocks(
            x,
            self.block_postings,
            predicted_update=self._current_prediction,
        )
        chunk = self.array.allocate_chunk(nblocks)
        faults.crash_point(CP_AFTER_CHUNK_ALLOC)
        chunk.npostings = x
        chunk.reserved = nblocks * self.block_postings - x
        entry.chunks.append(chunk)
        self._write_chunk_contents(chunk, payload)
        # The write op covers the data blocks; reserved blocks are
        # allocated but not transferred.
        written = blocks_for_postings(x, self.block_postings)
        self._record(
            OpKind.WRITE, chunk.disk, chunk.start, written, entry.word, x
        )

    def _append_fill(self, entry: LongListEntry, payload: PostingPayload) -> None:
        """fill style: WRITE(M, M) until the in-memory list is empty."""
        extent_capacity = self.policy.extent_blocks * self.block_postings
        remaining = payload
        while len(remaining) > 0:
            faults.crash_point(CP_FILL_EXTENT)
            head, remaining = remaining.split(extent_capacity)
            chunk = self.array.allocate_chunk(self.policy.extent_blocks)
            chunk.npostings = len(head)
            entry.chunks.append(chunk)
            self._write_chunk_contents(chunk, head)
            written = blocks_for_postings(len(head), self.block_postings)
            self._record(
                OpKind.WRITE,
                chunk.disk,
                chunk.start,
                written,
                entry.word,
                len(head),
            )

    def _observe_update(self, word: int, y: int) -> None:
        """Fold an update's size into the word's EWMA estimate."""
        alpha = self.policy.ewma_alpha
        prev = self._update_sizes.get(word)
        self._update_sizes[word] = (
            float(y) if prev is None else alpha * y + (1 - alpha) * prev
        )

    # -- rewriting (deletion sweeps) --------------------------------------------

    def rewrite(self, word: int, payload: PostingPayload) -> None:
        """Replace a long list's contents wholesale.

        Used by the deletion sweeper (paper §3): the old chunks retire to
        the RELEASE list and the new contents are written through the
        policy's own style, so reclamation pays normal policy I/O.  An
        empty payload removes the word from the directory entirely.
        """
        self._check_unfrozen("rewrite")
        entry = self.directory.get(word)
        if entry is None:
            raise KeyError(f"word {word} has no long list to rewrite")
        if self.journal is not None:
            self.journal.note_word(word)
        self.release.extend(entry.chunks)
        entry.chunks = []
        if len(payload) == 0:
            self.directory.remove(word)
            return
        self._current_prediction = self._update_sizes.get(word, 0.0)
        if self.policy.style is Style.FILL:
            self._append_fill(entry, payload)
        else:
            self._write_reserved(entry, payload)

    # -- batch boundary ------------------------------------------------------

    def end_batch(self) -> None:
        """Free the RELEASE list (paper §3: old whole-style chunks are only
        returned to free space when the buckets and directory flush)."""
        self._check_unfrozen("end a batch on")
        faults.crash_point(CP_BEFORE_RELEASE_FREE)
        for chunk in self.release:
            self.array.free_chunk(chunk)
            faults.crash_point(CP_MID_RELEASE_FREE)
        self.release.clear()
