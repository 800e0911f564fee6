"""The posting kernels as they stood before they moved to C speed: the oracle.

Verbatim from db9f274 (``core/postings.py``, ``query/boolean.py``,
``query/streaming.py``, ``query/vector.py``): one Python iteration per
posting, one call and one tuple per varint.  ``test_kernels_differential``
holds the kernels in ``src/`` to these, answer for answer, byte for byte
and read for read.  Not collected (no ``test_`` prefix); edit nothing here
but imports.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.core.index import DualStructureIndex
from repro.core.postings import decode_varint, encode_varint
from repro.query.streaming import StreamStats
from repro.query.vector import ScoredDocument, idf
from repro.storage.block import blocks_for_postings

# -- core/postings.py -----------------------------------------------------------


def encode_doc_ids(doc_ids: Iterable[int]) -> bytes:
    """Delta + varint encode a strictly increasing doc-id sequence."""
    out = bytearray()
    prev = -1
    for doc in doc_ids:
        if doc <= prev:
            raise ValueError(
                f"doc ids must be strictly increasing; {doc} after {prev}"
            )
        out += encode_varint(doc - prev - 1)
        prev = doc
    return bytes(out)


def decode_doc_ids(data: bytes) -> list[int]:
    """Inverse of :func:`encode_doc_ids`."""
    out: list[int] = []
    prev = -1
    pos = 0
    while pos < len(data):
        gap, pos = decode_varint(data, pos)
        prev = prev + 1 + gap
        out.append(prev)
    return out


# -- query/boolean.py -----------------------------------------------------------


def intersect(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted-list intersection (two-pointer merge)."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return out


def union(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted-list union (two-pointer merge)."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def difference(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Sorted-list difference ``a - b`` (two-pointer merge)."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            i += 1
            j += 1
        elif a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            j += 1
    out.extend(a[i:])
    return out


# -- query/streaming.py ---------------------------------------------------------


class ListCursor:
    """A lazy cursor over one word's postings on the simulated disks.

    Blocks are decoded on first touch; ``next_geq`` advances to the first
    document id ≥ its argument (sequential block scan — chunk metadata
    does not record doc-id ranges, so blocks cannot be skipped, only left
    unread when evaluation stops early).
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
        # (disk, block address, starts-a-chunk): chunk read ops are only
        # charged when evaluation actually touches the chunk.
        self._blocks: list[tuple[int, int, bool]] = []
        if entry is not None:
            for chunk in entry.chunks:
                data_blocks = blocks_for_postings(
                    chunk.npostings, self.block_postings
                )
                for b in range(data_blocks):
                    self._blocks.append(
                        (chunk.disk, chunk.start + b, b == 0)
                    )
        else:
            short = index.buckets.get(word)
            if short is not None:
                self._bucket_docs = list(short.doc_ids)
            else:
                self._bucket_docs = []
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
        self._exhausted = False
        self.current: int | None = None
        self._advance()

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
        disk_id, address, chunk_start = self._blocks[self._next_block]
        self._next_block += 1
        if chunk_start:
            self.stats.read_ops += 1  # positioned read opening the chunk
        raw = self.index.array.disks[disk_id].read_blocks(address, 1)[0]
        decoded = self.index.longlists.content_cls.decode(raw)
        self._buffer = decoded.doc_ids
        self._buffer_pos = 0
        self.stats.blocks_read += 1
        self.stats.postings_decoded += len(self._buffer)
        return bool(self._buffer)

    def _advance(self) -> None:
        while self._buffer_pos >= len(self._buffer):
            if not self._refill():
                self._exhausted = True
                self.current = None
                return
        self.current = self._buffer[self._buffer_pos]
        self._buffer_pos += 1

    # -- cursor API ----------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        return self._exhausted

    def next(self) -> None:
        """Advance one posting."""
        if not self._exhausted:
            self._advance()

    def next_geq(self, doc_id: int) -> None:
        """Advance until ``current >= doc_id`` (or exhaustion)."""
        while not self._exhausted and self.current < doc_id:
            self._advance()


def stream_intersect(cursors: Sequence[ListCursor]) -> Iterator[int]:
    """Yield documents present in every cursor, reading lazily.

    Standard leapfrog: repeatedly align all cursors on the maximum of
    their currents; stops — leaving blocks unread — when any cursor
    exhausts.
    """
    if not cursors or any(c.exhausted for c in cursors):
        return
    while True:
        target = max(c.current for c in cursors)
        for cursor in cursors:
            cursor.next_geq(target)
            if cursor.exhausted:
                return
        if all(c.current == target for c in cursors):
            yield target
            for cursor in cursors:
                cursor.next()
                if cursor.exhausted:
                    return


def stream_union(cursors: Sequence[ListCursor]) -> Iterator[int]:
    """Yield documents present in any cursor, in ascending order."""
    live = [c for c in cursors if not c.exhausted]
    while live:
        doc = min(c.current for c in live)
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


# -- query/vector.py ------------------------------------------------------------


def rank(
    weights: Mapping[str, float],
    fetch: Callable[[str], Sequence[int]],
    ndocs: int,
    top_k: int = 10,
) -> list[ScoredDocument]:
    """Rank documents for a weighted word query.

    ``fetch`` returns a word's sorted posting list (empty when unknown).
    Scores accumulate per document across the query's posting lists — the
    "prune with inverted lists, then evaluate the vector condition" pattern
    the paper describes.
    """
    if top_k <= 0:
        raise ValueError("top_k must be > 0")
    scores: dict[int, float] = {}
    # Sorted iteration pins the float accumulation order: two queries
    # naming the same (word, weight) set in different orders must score
    # bit-identically, or answer caches keyed on the canonicalized set
    # would serve results that differ in the last ulp from a fresh
    # evaluation.
    for word, weight in sorted(weights.items()):
        if weight == 0.0:
            continue
        postings = fetch(word)
        contribution = weight * idf(ndocs, len(postings))
        if contribution == 0.0:
            continue
        for doc in postings:
            scores[doc] = scores.get(doc, 0.0) + contribution
    best = heapq.nlargest(
        top_k, scores.items(), key=lambda item: (item[1], -item[0])
    )
    return [ScoredDocument(doc_id=d, score=s) for d, s in best]
