"""Streaming query evaluation: merge posting lists block by block.

The paper's query processing merges sorted inverted lists (§3: "the merge
operation can be used to compute answers to boolean queries").  The basic
evaluators in :mod:`repro.query.boolean` materialize whole lists first;
this module evaluates the same merges *lazily*, decoding one disk block at
a time, so a conjunction stops reading as soon as any operand is
exhausted.  For the skewed lists the dual structure manages — "cat AND
rare-word" touching a frequent word's enormous list — early exit saves
most of the frequent list's blocks.

Accounting matches the rest of the system: a cursor charges one *read
operation* per chunk it opens (the Figure 10 unit — chunks are contiguous,
so the seek happens once) and separately counts the *blocks* it actually
decodes, which is where streaming wins.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..core.index import DualStructureIndex
from ..core.longlists import ShortChunkError
from ..storage.block import blocks_for_postings


def parse_flat(query: str) -> tuple[list[str], set[str]]:
    """Parse a flat ``a AND b AND c`` / ``a OR b OR c`` query.

    Returns the lowercased words and the (single-element) operator set;
    raises :class:`ValueError` on anything that needs the full boolean
    evaluator.  Shared by the facade and the scatter-gather layer so both
    reject exactly the same inputs.
    """
    tokens = query.split()
    words = [t.lower() for t in tokens[::2]]
    operators = {t.upper() for t in tokens[1::2]}
    if len(tokens) % 2 == 0 or operators - {"AND", "OR"} or (
        len(operators) > 1
    ):
        raise ValueError(
            "search_streamed takes flat 'a AND b AND c' or "
            "'a OR b OR c' queries; use search_boolean for general "
            "expressions"
        )
    return words, operators


@dataclass
class StreamStats:
    """I/O actually performed by a streamed evaluation."""

    read_ops: int = 0
    blocks_read: int = 0
    postings_decoded: int = 0


class ListCursor:
    """A lazy cursor over one word's postings on the simulated disks.

    Blocks are decoded on first touch; ``next_geq`` advances to the first
    document id ≥ its argument.  Chunk metadata does not record doc-id
    ranges, so every block up to the target is still read and decoded —
    blocks are only left unread when evaluation stops early — but inside
    a decoded block the cursor gallops (``bisect``) instead of scanning.

    ``current`` is ``None`` and ``exhausted`` true once the list is spent.
    """

    def __init__(
        self, index: DualStructureIndex, word: int, stats: StreamStats
    ) -> None:
        if not index.config.store_contents:
            raise RuntimeError("streaming requires content mode")
        self.index = index
        self.stats = stats
        self.block_postings = index.config.block_postings
        entry = index.directory.get(word)
        # (disk, block address, postings in the block, starts-a-chunk):
        # chunk read ops are only charged when evaluation actually touches
        # the chunk.
        self._blocks: list[tuple[int, int, int, bool]] = []
        self._bucket_docs: list[int] = []
        if entry is not None:
            for chunk in entry.chunks:
                data_blocks = blocks_for_postings(
                    chunk.npostings, self.block_postings
                )
                for b in range(data_blocks):
                    held = chunk.npostings - b * self.block_postings
                    self._blocks.append(
                        (
                            chunk.disk,
                            chunk.start + b,
                            min(held, self.block_postings),
                            b == 0,
                        )
                    )
        else:
            short = index.buckets.get(word)
            if short is not None:
                self._bucket_docs = list(short.doc_ids)
        self._entry = entry
        # The unflushed in-memory batch is searchable alongside the larger
        # index (paper §1); it is served after the on-disk blocks, free of
        # I/O charges.
        pending = index.memory.get(word)
        self._pending = list(pending.doc_ids) if pending is not None else []
        self._pending_served = False
        self._buffer: list[int] = []
        self._buffer_pos = 0
        self._next_block = 0
        self.exhausted = False
        self.current: int | None = None
        self.next()

    # -- block refill -------------------------------------------------------

    def _refill(self) -> bool:
        if self._refill_disk():
            return True
        if self._pending and not self._pending_served:
            self._pending_served = True
            self._buffer = self._pending
            self._buffer_pos = 0
            self.stats.postings_decoded += len(self._buffer)
            return True
        self.exhausted = True
        self.current = None
        self._buffer = []
        self._buffer_pos = 0
        return False

    def _refill_disk(self) -> bool:
        if self._entry is None:
            if self._next_block == 0 and self._bucket_docs:
                self._buffer = self._bucket_docs
                self._buffer_pos = 0
                self._next_block = 1
                self.stats.read_ops += 1  # the bucket read
                self.stats.postings_decoded += len(self._buffer)
                return True
            return False
        if self._next_block >= len(self._blocks):
            return False
        disk_id, address, npostings, chunk_start = self._blocks[
            self._next_block
        ]
        self._next_block += 1
        if chunk_start:
            self.stats.read_ops += 1  # positioned read opening the chunk
        raw = self.index.array.disks[disk_id].read_blocks(address, 1)[0]
        decoded = self.index.longlists.content_cls.decode(raw)
        if len(decoded) != npostings:
            raise ShortChunkError(
                f"block {address} of disk {disk_id} decodes to "
                f"{len(decoded)} postings, the directory says {npostings}"
            )
        self._buffer = decoded.doc_ids
        self._buffer_pos = 0
        self.stats.blocks_read += 1
        self.stats.postings_decoded += npostings
        return True

    # -- cursor API ----------------------------------------------------------

    def next(self) -> None:
        """Advance one posting."""
        if self._buffer_pos >= len(self._buffer) and not self._refill():
            return
        self.current = self._buffer[self._buffer_pos]
        self._buffer_pos += 1

    def next_geq(self, doc_id: int) -> None:
        """Advance until ``current >= doc_id`` (or exhaustion)."""
        if self.exhausted or self.current >= doc_id:
            return
        # A block whose last id is below the target is skipped unscanned;
        # the next one is read exactly when a scan would have run off it.
        while self._buffer[-1] < doc_id:
            if not self._refill():
                return
        pos = bisect_left(self._buffer, doc_id, self._buffer_pos)
        self.current = self._buffer[pos]
        self._buffer_pos = pos + 1


def stream_intersect(cursors: Sequence[ListCursor]) -> Iterator[int]:
    """Yield documents present in every cursor, reading lazily.

    Standard leapfrog: repeatedly align all cursors on the maximum of
    their currents; stops — leaving blocks unread — when any cursor
    exhausts.
    """
    if not cursors or any(c.exhausted for c in cursors):
        return
    while True:
        target = cursors[0].current
        for cursor in cursors:
            if cursor.current > target:
                target = cursor.current
        aligned = True
        for cursor in cursors:
            if cursor.current < target:
                cursor.next_geq(target)
                if cursor.exhausted:
                    return
                if cursor.current != target:
                    aligned = False
        if aligned:
            yield target
            for cursor in cursors:
                cursor.next()
                if cursor.exhausted:
                    return


def stream_union(cursors: Sequence[ListCursor]) -> Iterator[int]:
    """Yield documents present in any cursor, in ascending order."""
    live = [c for c in cursors if not c.exhausted]
    while live:
        doc = min([c.current for c in live])
        yield doc
        for cursor in live:
            if cursor.current == doc:
                cursor.next()
        live = [c for c in live if not c.exhausted]


def streamed_and(
    index: DualStructureIndex, words: Sequence[int]
) -> tuple[list[int], StreamStats]:
    """Evaluate a conjunction lazily; returns (answer, I/O stats)."""
    stats = StreamStats()
    cursors = [ListCursor(index, word, stats) for word in words]
    return list(stream_intersect(cursors)), stats


def streamed_or(
    index: DualStructureIndex, words: Sequence[int]
) -> tuple[list[int], StreamStats]:
    """Evaluate a disjunction lazily; returns (answer, I/O stats)."""
    stats = StreamStats()
    cursors = [ListCursor(index, word, stats) for word in words]
    return list(stream_union(cursors)), stats
