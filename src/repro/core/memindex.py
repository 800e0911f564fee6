"""The in-memory inverted index for arriving documents (paper §2, ¶1).

"When a new document arrives it is parsed and its words are inserted into an
in-memory inverted index.  At some point the in-memory inverted index must
be written to disk.  Collecting many documents into an in-memory inverted
index before writing the index to disk amortizes the cost of storing a
posting."

This is the batching structure whose contents become one *batch update*.
It supports both payload kinds: real document ids (library use) and bare
counts (evaluation pipeline, where a batch update is a list of
word-occurrence pairs, paper §4.2).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .positional import PositionalPostings, Region
from .postings import CountPostings, DocPostings, PostingPayload


class InMemoryIndex:
    """Accumulates postings for a batch of arriving documents."""

    def __init__(self) -> None:
        self._lists: dict[int, PostingPayload] = {}
        self._ndocs = 0
        self._npostings = 0
        self._last_doc = -1  # the batch's highest doc id; no list ends above
        # Cached ascending key list for items()/items_by_bucket — the
        # flush hot path iterates it once per batch, and re-sorting the
        # whole dict per call is O(W log W) for work only new words
        # change.  None = stale (a word was inserted or the dict was
        # replaced); rebuilt lazily on the next ordered iteration.
        self._sorted_words: list[int] | None = None

    def __len__(self) -> int:
        """Number of distinct words in the batch."""
        return len(self._lists)

    def __contains__(self, word: int) -> bool:
        return word in self._lists

    @property
    def ndocs(self) -> int:
        return self._ndocs

    @property
    def npostings(self) -> int:
        return self._npostings

    @property
    def size_units(self) -> int:
        """Memory footprint in the paper's units: words + postings."""
        return len(self._lists) + self._npostings

    def add_document(self, doc_id: int, words: Iterable[int]) -> None:
        """Index one document: one posting per *distinct* word.

        Duplicate words within the document are dropped, as the paper's
        lexical analysis does (§4.2).  Documents must arrive in increasing
        id order so posting lists stay sorted: an id not above the batch's
        highest raises ``ValueError`` and leaves the batch as it was.  That
        one check stands in for one per posting, so no payload re-checks.
        """
        if doc_id <= self._last_doc:
            raise ValueError(f"doc ids must increase: {doc_id} after {self._last_doc}")
        lists = self._lists
        get = lists.get
        words = dict.fromkeys(words)
        for word in words:
            payload = get(word)
            if payload is None:
                payload = lists[word] = object.__new__(DocPostings)
                payload.doc_ids = [doc_id]
                self._sorted_words = None
            elif type(payload) is DocPostings:
                payload.doc_ids.append(doc_id)
            else:
                payload.extend(DocPostings([doc_id]))
        self._last_doc = doc_id
        self._npostings += len(words)
        self._ndocs += 1

    def add_document_occurrences(
        self, doc_id: int, occurrences: Iterable[tuple[int, int, Region]]
    ) -> None:
        """Index one document with word positions and regions.

        ``occurrences`` yields ``(word, position, region)`` triples; per
        word the positions are collected and the region flags or-ed, so the
        document still contributes exactly one posting per distinct word
        (the accounting the evaluation relies on).
        """
        per_word: dict[int, tuple[list[int], Region]] = {}
        for word, position, region in occurrences:
            if word in per_word:
                positions, regions = per_word[word]
                positions.append(position)
                per_word[word] = (positions, regions | region)
            else:
                per_word[word] = ([position], region)
        for word, (positions, regions) in per_word.items():
            single = PositionalPostings.single(
                doc_id, sorted(set(positions)), regions
            )
            payload = self._lists.get(word)
            if payload is None:
                self._lists[word] = single
                self._sorted_words = None
            else:
                payload.extend(single)
            self._npostings += 1
        self._ndocs += 1

    def add_counts(self, pairs: Iterable[tuple[int, int]]) -> None:
        """Load a batch of word-occurrence pairs (evaluation mode)."""
        lists = self._lists
        npostings = 0
        for word, count in pairs:
            if count <= 0:
                raise ValueError(
                    f"word {word} has non-positive count {count}"
                )
            payload = lists.get(word)
            if payload is None:
                lists[word] = CountPostings(count)
                self._sorted_words = None
            elif type(payload) is CountPostings:
                payload.add_count(count)
            else:
                payload.extend(CountPostings(count))
            npostings += count
        self._npostings += npostings

    def get(self, word: int) -> PostingPayload | None:
        """The in-memory list for a word, or None."""
        return self._lists.get(word)

    def _ordered_words(self) -> list[int]:
        """The cached ascending key list, rebuilt only after an insert."""
        words = self._sorted_words
        if words is None:
            words = self._sorted_words = sorted(self._lists)
        return words

    def items(self) -> Iterator[tuple[int, PostingPayload]]:
        """All (word, in-memory list) pairs in ascending word order.

        Sorted order matters operationally: the paper notes that sorting
        the in-memory lists into bucket order lets an implementation keep
        only one bucket in memory at a time during the merge.  The sort
        itself is cached across calls and invalidated only when a new
        word enters the batch — flushing iterates these pairs once per
        batch, and appends to existing lists must not re-pay it.
        """
        words = self._ordered_words()
        return zip(words, map(self._lists.__getitem__, words))

    def items_by_bucket(self, hash_fn, nbuckets: int):
        """All (word, list) pairs grouped by destination bucket.

        The paper's memory optimization (§4.3): "the cost of maintaining
        all the buckets in memory during the update process can be avoided
        by sorting the in-memory lists into bucket order and then merging
        the in-memory list with the buckets, requiring only one bucket to
        be in memory at any single point in time."  Within each bucket the
        words stay in ascending order, so the overall outcome is identical
        to the word-ordered merge (asserted in tests).

        Yields ``(bucket_id, [(word, payload), ...])`` in bucket order,
        skipping empty buckets.
        """
        groups: dict[int, list[tuple[int, PostingPayload]]] = {}
        for word in self._ordered_words():
            groups.setdefault(hash_fn(word) % nbuckets, []).append(
                (word, self._lists[word])
            )
        for bucket_id in sorted(groups):
            yield bucket_id, groups[bucket_id]

    def snapshot(self) -> tuple:
        """The batch contents by reference (crash recovery).

        Taken by the index before a flush starts mutating disk
        structures, so an aborted batch can be re-applied after
        rollback.  No payload is copied: the flush only reads them, and
        a host takes no document between an aborted flush and its
        ``recover()``.
        """
        lists = list(self._lists.items())
        return lists, self._ndocs, self._npostings, self._last_doc

    def restore(self, snapshot: tuple) -> None:
        """Replace the batch contents with a :meth:`snapshot`'s payloads,
        which this index owns (and extends) from then on."""
        lists, self._ndocs, self._npostings, self._last_doc = snapshot
        self._lists = dict(lists)
        self._sorted_words = None

    def clear(self) -> None:
        """Reset after the batch has been written to disk.

        The batch is *retired*, not emptied: a reader holding the old dict
        (:mod:`repro.core.memtier`) keeps the whole batch, which nothing
        mutates again — the flush only reads payloads."""
        self._lists = {}
        self._ndocs = 0
        self._npostings = 0
        self._last_doc = -1
        self._sorted_words = None
