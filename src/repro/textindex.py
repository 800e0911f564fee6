"""Text-level retrieval facade: the library's friendliest entry point.

:class:`TextDocumentIndex` composes the text substrate (tokenizer +
vocabulary) with the dual-structure index and the two query models, so a
user can go from raw article text to ranked results in a few lines::

    from repro import TextDocumentIndex

    index = TextDocumentIndex()
    index.add_document("Date: ignored\\n\\nthe cat sat with the dog")
    index.add_document("a mouse ran past the dog")
    index.flush_batch()
    index.search_boolean("(cat AND dog) OR mouse")   # -> [0, 1]
    index.search_vector({"dog": 1.0, "mouse": 2.0})  # ranked

The index stores real postings on the simulated disks (content mode), so
every query pays — and reports — the read operations the paper's evaluation
charges for the configured policy.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass, replace
from itertools import accumulate

from .core import checkpoint
from .core.deletion import DeletionManager, SweepStats
from .core.index import BatchResult, DualStructureIndex, IndexConfig
from .core.positional import PositionalPostings, Region
from .query import boolean as boolean_query
from .query import positional as positional_query
from .query import streaming as streaming_query
from .query import vector as vector_query
from .query.vector import ScoredDocument
from .text.occurrences import RegionRules, tokenize_occurrences
from .text.tokenizer import TokenizerConfig, tokenize, tokenize_document
from .text.vocabulary import Vocabulary, VocabularyView


@dataclass
class QueryAnswer:
    """Boolean query result plus its I/O cost."""

    doc_ids: list[int]
    read_ops: int


class TextDocumentIndex:
    """An incrementally updatable full-text index over text documents."""

    def __init__(
        self,
        config: IndexConfig | None = None,
        tokenizer_config: TokenizerConfig | None = None,
        region_rules: RegionRules | None = None,
    ) -> None:
        base = config or IndexConfig()
        if not base.store_contents:
            base = replace(base, store_contents=True)
        self.index = DualStructureIndex(base)
        self.vocabulary = Vocabulary()
        self.tokenizer_config = tokenizer_config
        self.region_rules = region_rules
        self.deletions = DeletionManager(self.index)
        self._last_read_ops = 0

    # -- ingest ---------------------------------------------------------------

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        """Tokenize and index one document; returns its doc id.

        On a positional index (``IndexConfig(positional=True)``) every
        posting also records the word's offsets and region flags.
        ``doc_id`` pins an explicit (non-decreasing) identifier — used by
        the sharded router, which assigns global ids and hands each shard
        an increasing subsequence of them.
        """
        if self.index.config.positional:
            occurrences = [
                (self.vocabulary.id_of(o.word), o.position, o.region)
                for o in tokenize_occurrences(
                    text, self.tokenizer_config, self.region_rules
                )
            ]
            return self.index.add_document_occurrences(
                occurrences, doc_id=doc_id
            )
        words = tokenize_document(text, self.tokenizer_config)
        word_ids = [self.vocabulary.id_of(w) for w in words]
        return self.index.add_document(word_ids, doc_id=doc_id)

    def flush_batch(self) -> BatchResult:
        """Flush the in-memory batch to disk (one incremental update)."""
        return self.index.flush_batch()

    @property
    def ndocs(self) -> int:
        return self.index.ndocs

    @property
    def batches(self) -> int:
        """Completed batch flushes (protocol surface for the service)."""
        return self.index.batches

    @property
    def shard_versions(self) -> tuple[int, ...]:
        """The shard-snapshot vector of a single volume: one component."""
        return (self.index.batches,)

    @property
    def crash_safe(self) -> bool:
        return self.index.config.crash_safe

    @property
    def delta(self):
        """The writer's delta journal (``None`` in evaluation mode)."""
        return self.index.delta

    def recover(self, replay: bool = True) -> BatchResult | None:
        """Roll back an aborted flush and optionally replay it (requires
        ``IndexConfig(crash_safe=True)``)."""
        return self.index.recover(replay=replay)

    @property
    def needs_recovery(self) -> bool:
        """True while an aborted crash-safe flush awaits :meth:`recover`."""
        return self.index._aborted_batch is not None

    def pending_batch(self) -> tuple:
        """The unflushed batch, one ``(vocabulary, word id -> payload)``
        pair per volume: the live dict, which the next flush retires
        whole (the immediate tier's handle, :mod:`repro.core.memtier`)."""
        return ((self.vocabulary, self.index.memory._lists),)

    def freeze(self) -> None:
        """Debug write barrier over the core index (publish-time)."""
        from .core.invariants import freeze_index

        freeze_index(self.index)

    def check(self):
        """Run the dual-structure invariant checker over the core index."""
        from .core.invariants import check_index

        return check_index(self.index)

    def attach_buffer_cache(
        self, blocks: int, counters, prev=None, delta=None
    ) -> None:
        """Wire a decoded-chunk buffer cache into this (published) index.

        With ``prev`` (the previously published index) and ``delta`` (the
        batch's journal) the cache is carried forward minus the delta's
        dirty blocks; otherwise a fresh cache is attached.
        """
        from .storage.buffercache import BlockBufferCache

        prev_cache = (
            prev.index.longlists.buffer_cache if prev is not None else None
        )
        if prev_cache is not None and delta is not None:
            cache = prev_cache.successor(delta.dirty_blocks)
        else:
            cache = BlockBufferCache(blocks, counters)
        self.index.longlists.buffer_cache = cache

    # -- deletion -----------------------------------------------------------------

    def delete_document(self, doc_id: int) -> None:
        """Delete a document from the user's point of view (paper §3):
        it disappears from answers immediately; its postings are reclaimed
        by the background sweep."""
        self.deletions.delete(doc_id)

    def sweep_deletions(self, max_lists: int | None = None) -> SweepStats:
        """Run the background reclamation sweep — incrementally when
        ``max_lists`` is given, else to completion."""
        if max_lists is None:
            return self.deletions.sweep_all()
        if not self.deletions.sweeping:
            self.deletions.begin_sweep()
        return self.deletions.sweep_step(max_lists=max_lists)

    # -- retrieval ----------------------------------------------------------------

    def fetch_postings(self, word: str) -> tuple[list[int], int]:
        """One word's live (deletion-filtered) doc ids plus the read ops
        charged — the per-call fetch primitive scatter-gather merges
        across shards.  No shared accounting: safe from any thread."""
        word_id = self.vocabulary.lookup(word)
        if word_id is None:
            return [], 0
        postings, read_ops = self.index.fetch(word_id)
        return self.deletions.filter(postings.doc_ids), read_ops

    def _counted_fetch(self, counter: list[int]):
        """A fetcher whose read-op total lives in ``counter`` — query
        accounting stays local to the call so published clones can serve
        many reader threads at once."""

        def fetch(word: str) -> list[int]:
            docs, read_ops = self.fetch_postings(word)
            counter[0] += read_ops
            return docs

        return fetch

    def search_boolean(self, query: str) -> QueryAnswer:
        """Evaluate a boolean query (AND/OR/NOT, parentheses)."""
        counter = [0]
        docs = boolean_query.evaluate(
            query, self._counted_fetch(counter), self.index.ndocs
        )
        # NOT complements against the full doc-id universe, which still
        # contains deleted ids; the answer filter removes them (§3).
        docs = self.deletions.filter(docs)
        self._last_read_ops = counter[0]
        return QueryAnswer(doc_ids=docs, read_ops=counter[0])

    def search_streamed(self, query: str) -> QueryAnswer:
        """Evaluate a flat conjunction or disjunction lazily.

        Supports queries of the shape ``a AND b AND c`` or ``a OR b OR c``
        (one operator, no parentheses or NOT): the streaming evaluator
        decodes posting blocks on demand and a conjunction stops reading
        as soon as any operand is exhausted.  ``read_ops`` counts only the
        chunks actually touched — for skewed conjunctions this is far
        below :meth:`search_boolean`'s cost.
        """
        words, operators = streaming_query.parse_flat(query)
        word_ids = [
            word_id
            for word_id in (self.vocabulary.lookup(w) for w in words)
            if word_id is not None
        ]
        missing = len(words) - len(word_ids)
        if operators == {"OR"} or len(words) == 1:
            docs, stats = streaming_query.streamed_or(self.index, word_ids)
        elif missing:
            # An unknown conjunct empties the conjunction without I/O.
            docs, stats = [], streaming_query.StreamStats()
        else:
            docs, stats = streaming_query.streamed_and(self.index, word_ids)
        docs = self.deletions.filter(docs)
        # Keep the facade-level counter in step with the per-answer cost so
        # last_read_ops means the same thing (Figure 10 read units: one per
        # chunk opened, one per bucket) after any search_* method.
        self._last_read_ops = stats.read_ops
        return QueryAnswer(doc_ids=docs, read_ops=stats.read_ops)

    def search_vector(
        self, weights: dict[str, float], top_k: int = 10
    ) -> list[ScoredDocument]:
        """Rank documents for a weighted vector query."""
        ranked, read_ops = self.search_vector_counted(weights, top_k=top_k)
        return ranked

    def search_vector_counted(
        self, weights: dict[str, float], top_k: int = 10
    ) -> tuple[list[ScoredDocument], int]:
        """:meth:`search_vector` plus the read ops it charged."""
        counter = [0]
        ranked = vector_query.rank(
            weights,
            self._counted_fetch(counter),
            self.index.ndocs,
            top_k=top_k,
        )
        self._last_read_ops = counter[0]
        return ranked, counter[0]

    # -- positional conditions (paper §1) ------------------------------------------

    def _fetch_positional(self, word: str) -> PositionalPostings:
        if not self.index.config.positional:
            raise RuntimeError(
                "positional queries need IndexConfig(positional=True)"
            )
        word_id = self.vocabulary.lookup(word.lower())
        if word_id is None:
            return PositionalPostings()
        postings, read_ops = self.index.fetch(word_id)
        self._last_read_ops += read_ops
        return postings

    def search_phrase(self, phrase: str) -> QueryAnswer:
        """Documents containing the words of ``phrase`` consecutively."""
        self._last_read_ops = 0
        words = list(tokenize(phrase, self.tokenizer_config))
        fetched = {w: self._fetch_positional(w) for w in dict.fromkeys(words)}
        payloads = [fetched[w] for w in words]
        docs = self.deletions.filter(positional_query.phrase_docs(payloads))
        return QueryAnswer(doc_ids=docs, read_ops=self._last_read_ops)

    def search_near(self, word_a: str, word_b: str, k: int) -> QueryAnswer:
        """Documents where the two words occur within ``k`` words of each
        other (the paper's proximity condition)."""
        self._last_read_ops = 0
        docs = positional_query.proximity_docs(
            self._fetch_positional(word_a),
            self._fetch_positional(word_b),
            k,
        )
        docs = self.deletions.filter(docs)
        return QueryAnswer(doc_ids=docs, read_ops=self._last_read_ops)

    def search_region(self, word: str, region: Region) -> QueryAnswer:
        """Documents where ``word`` occurs inside ``region`` (the paper's
        "within a title region" condition)."""
        self._last_read_ops = 0
        docs = positional_query.region_docs(
            self._fetch_positional(word), region
        )
        docs = self.deletions.filter(docs)
        return QueryAnswer(doc_ids=docs, read_ops=self._last_read_ops)

    def more_like(self, text: str, top_k: int = 10) -> list[ScoredDocument]:
        """Vector query derived from a document, the paper's vector-IRM
        workload shape."""
        words = list(tokenize(text, self.tokenizer_config))
        return self.search_vector(
            vector_query.query_from_document(words), top_k=top_k
        )

    @property
    def last_read_ops(self) -> int:
        """Read operations charged by the most recent search."""
        return self._last_read_ops

    # -- introspection -----------------------------------------------------------

    def document_frequency(self, word: str) -> int:
        """Number of documents containing ``word``."""
        word_id = self.vocabulary.lookup(word)
        if word_id is None:
            return 0
        if self.deletions.ndeleted:
            postings, _ = self.index.fetch(word_id)
            return len(self.deletions.filter(postings.doc_ids))
        return self.index.posting_count(word_id)

    def stats(self):
        """Underlying index statistics."""
        return self.index.stats()

    # -- persistence ----------------------------------------------------------------

    def clone(self) -> "TextDocumentIndex":
        """An independent deep copy at the current batch boundary.

        Copy-on-publish for the serving layer
        (:mod:`repro.service`): the clone is rebuilt from the serialized
        checkpoint form — core index, vocabulary, deletion set — so it
        shares no mutable structure with this index and can be read from
        other threads while this one keeps ingesting.  Like :meth:`save`,
        requires an empty in-memory batch (flush first).
        """
        buf = io.BytesIO()
        self.save(buf)
        buf.seek(0)
        copy = TextDocumentIndex.load(buf)
        copy.tokenizer_config = self.tokenizer_config
        copy.region_rules = self.region_rules
        return copy

    def clone_incremental(
        self, prev: "TextDocumentIndex", delta
    ) -> "TextDocumentIndex":
        """A published snapshot that structurally shares ``prev``.

        The incremental counterpart of :meth:`clone`: instead of
        serializing the whole index, only state touched since ``prev``
        was published (recorded in ``delta``, the writer's
        :class:`~repro.core.delta.DeltaJournal`) is copied.  Everything
        else — bucket images, long-list chunks, directory entries, the
        vocabulary, the deletion set — is shared with ``prev``, so the
        publish cost is O(batch) rather than O(index).  Raises
        :class:`~repro.core.checkpoint.CheckpointError` when the delta
        cannot prove it covers the gap (e.g. after crash recovery or a
        structural rebuild); :func:`repro.core.shard.publish_copy`, the
        one publish step, then falls back to :meth:`clone`.
        """
        core = checkpoint.clone_incremental(self.index, prev.index, delta)
        copy = TextDocumentIndex.__new__(TextDocumentIndex)
        copy.index = core
        copy.vocabulary = VocabularyView(self.vocabulary)
        copy.tokenizer_config = self.tokenizer_config
        copy.region_rules = self.region_rules
        copy.deletions = DeletionManager(core)
        if delta.deletions_changed:
            copy.deletions.deleted = set(self.deletions.deleted)
        else:
            # Unchanged since the previous publish: share its (now
            # immutable) set outright.
            copy.deletions.deleted = prev.deletions.deleted
        copy._last_read_ops = 0
        return copy

    _MAGIC = b"DSTX"

    def save(self, target) -> None:
        """Persist the whole text index to one file: the core
        checkpoint's configuration header, then the redo record cut from
        the empty index — every word's lists, the whole vocabulary and
        the whole deletion set.

        Like core checkpoints, saving happens at batch boundaries (flush
        first).  ``target`` is a path or binary file object.
        """
        if hasattr(target, "write"):
            self._save(target)
        else:
            with open(target, "wb") as fp:
                self._save(fp)

    def _save(self, fp) -> None:
        fp.write(self._MAGIC)
        checkpoint.save_header(self.index, fp)
        self.save_record(fp, None, (0, 0))

    @classmethod
    def load(cls, source) -> "TextDocumentIndex":
        """Restore a text index saved by :meth:`save`: build the empty
        index its header names and apply its record.  Raises
        :class:`~repro.core.checkpoint.CheckpointError` on a truncated
        or foreign file."""
        if hasattr(source, "read"):
            return cls._load(source)
        with open(source, "rb") as fp:
            return cls._load(fp)

    @classmethod
    def _load(cls, fp) -> "TextDocumentIndex":
        if fp.read(4) != cls._MAGIC:
            raise checkpoint.CheckpointError("not a text-index snapshot")
        index = cls(checkpoint.load_header(fp))
        index._apply_record(fp)
        return index

    # -- redo records (base + chain) ------------------------------------------------

    _RECORD_MAGIC = b"DSTR"

    @property
    def mark(self) -> tuple[int, int]:
        """``(batches, vocabulary size)``: the boundary a later redo
        record chains from (both only grow)."""
        return self.index.batches, len(self.vocabulary)

    def save_record(self, target, dirty, mark: tuple[int, int]) -> None:
        """Write the redo record from the boundary ``mark`` to now into
        the binary file object ``target``.

        ``dirty`` is a :class:`~repro.core.delta.DeltaJournal` covering
        every mutation since ``mark`` was taken.  The record holds the
        core record of :func:`repro.core.checkpoint.save_record`, the
        words the vocabulary gained and, when it changed, the deletion
        set.  ``dirty=None`` with mark ``(0, 0)`` is the record from the
        empty index, the body of :meth:`save`.  Raises
        :class:`~repro.core.checkpoint.CheckpointError` where :meth:`save`
        would, or when the journal cannot vouch for a record (growth,
        crash recovery): take a base instead.
        """
        batches, nwords = mark
        target.write(self._RECORD_MAGIC)
        target.write(struct.pack("<QQ", batches, nwords))
        core = io.BytesIO()
        checkpoint.save_record(self.index, dirty, core)
        blob = core.getvalue()
        target.write(struct.pack("<Q", len(blob)))
        target.write(blob)
        # The words the vocabulary gained: their lengths in characters,
        # then all of them as one UTF-8 run.
        words = self.vocabulary._words[nwords:]
        data = "".join(words).encode("utf-8")
        target.write(
            struct.pack(
                f"<QQ{len(words)}I", len(words), len(data), *map(len, words)
            )
        )
        target.write(data)
        if dirty is None or dirty.deletions_changed:
            deleted = sorted(self.deletions.deleted)
            target.write(struct.pack("<Q", len(deleted)))
            target.write(struct.pack(f"<{len(deleted)}Q", *deleted))
        else:
            target.write(struct.pack("<Q", _UNCHANGED))

    @classmethod
    def restore(cls, base: bytes, records) -> "TextDocumentIndex":
        """The index a :meth:`save` blob plus its chain of redo records
        describes: load ``base``, then apply each record in order.

        A base is itself a record, from the empty index, so every step
        is :meth:`_apply_record`.  The result saves to exactly the bytes
        the writer's own :meth:`save` produced at the last record's
        boundary.  Raises :class:`~repro.core.checkpoint.CheckpointError`
        on a truncated record or one that does not chain onto the state
        before it.
        """
        index = cls.load(io.BytesIO(base))
        for record in records:
            index._apply_record(io.BytesIO(record))
        return index

    def _apply_record(self, fp) -> None:
        def take(n: int) -> bytes:
            data = fp.read(n)
            if len(data) != n:
                raise checkpoint.CheckpointError("truncated redo record")
            return data

        def read(fmt: str) -> tuple:
            return struct.unpack(fmt, take(struct.calcsize(fmt)))

        if fp.read(4) != self._RECORD_MAGIC:
            raise checkpoint.CheckpointError("not a text-index redo record")
        if read("<QQ") != self.mark:
            raise checkpoint.CheckpointError(
                "redo record does not chain onto this state"
            )
        core_fp = io.BytesIO(take(*read("<Q")))
        checkpoint.apply_record(self.index, core_fp)
        if core_fp.read(1):
            raise checkpoint.CheckpointError("corrupt redo record (core)")
        nwords, nbytes = read("<QQ")
        lengths = read(f"<{nwords}I")
        text = take(nbytes).decode("utf-8")
        if sum(lengths) != len(text):
            raise checkpoint.CheckpointError("corrupt redo record (words)")
        ends = list(accumulate(lengths))
        self.vocabulary.ids_of(
            text[start:end] for start, end in zip([0, *ends], ends)
        )
        (ndeleted,) = read("<Q")
        if ndeleted != _UNCHANGED:
            self.deletions.deleted = set(read(f"<{ndeleted}Q"))
        if fp.read(1):
            raise checkpoint.CheckpointError("corrupt redo record (tail)")


#: Deletion-count sentinel: the record leaves the deletion set as it was.
_UNCHANGED = 2**64 - 1
