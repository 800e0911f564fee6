"""Incremental copy-on-write publication: parity, fallback, sharing.

The contract under test (DESIGN.md §11): a snapshot published with
``publish_mode="cow"`` is *observably identical* to one published through
the full checkpoint clone — same answers, same read-op charges — while
costing O(batch) to build and structurally sharing all untouched state
with its predecessor.
"""

import pytest

from repro.core import checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.delta import FrozenStateError
from repro.core.index import IndexConfig
from repro.core.invariants import check_index, freeze_index
from repro.service import QueryService
from repro.storage import faults
from repro.storage.blockmap import LayeredBlocks
from repro.storage.faults import FaultPlan
from repro.textindex import TextDocumentIndex


def small_config(**overrides):
    base = dict(
        nbuckets=16,
        bucket_size=64,
        block_postings=8,
        ndisks=2,
        nblocks_override=200_000,
        store_contents=True,
    )
    base.update(overrides)
    return IndexConfig(**base)


DOCS = [
    "the cat sat with the dog",
    "a mouse ran past the dog",
    "cat and mouse games all day",
    "dogs chase cats and mice",
    "the quick brown fox jumps",
    "lazy dogs sleep while cats watch",
]

QUERIES = [
    "cat AND dog",
    "cat OR mouse",
    "(dog AND mouse) OR fox",
    "cat AND NOT dog",
]


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


def build_writer(nbatches=3):
    writer = TextDocumentIndex(small_config())
    for batch in range(nbatches):
        for i in range(4):
            writer.add_document(DOCS[(batch * 4 + i) % len(DOCS)])
        writer.flush_batch()
        if batch == 0:
            writer.delete_document(0)
    return writer


def assert_same_answers(a, b):
    for q in QUERIES:
        got, want = a.search_boolean(q), b.search_boolean(q)
        assert got.doc_ids == want.doc_ids, q
        assert got.read_ops == want.read_ops, q
    for word in ("cat", "dog", "mouse", "fox", "the"):
        assert a.document_frequency(word) == b.document_frequency(word)


class TestCloneIncrementalParity:
    def test_cow_clone_matches_full_clone(self):
        writer = TextDocumentIndex(small_config())
        prev = writer.clone()
        for cycle in range(4):
            for i in range(4):
                writer.add_document(DOCS[(cycle + i) % len(DOCS)])
            if cycle == 2:
                writer.delete_document(1)
            writer.flush_batch()
            cow = writer.clone_incremental(prev, writer.index.delta)
            writer.index.delta.clear()
            assert_same_answers(cow, writer.clone())
            assert check_index(cow.index).ok
            prev = cow  # chain: each publish shares with the last

    def test_chained_cow_clones_stay_independent(self):
        """Older snapshots must keep answering their own state after
        newer publishes mutate the writer."""
        writer = TextDocumentIndex(small_config())
        prev = writer.clone()
        generations = []
        for cycle in range(3):
            for i in range(4):
                writer.add_document(DOCS[(cycle + i) % len(DOCS)])
            writer.flush_batch()
            cow = writer.clone_incremental(prev, writer.index.delta)
            writer.index.delta.clear()
            generations.append(
                (cow, {q: cow.search_boolean(q).doc_ids for q in QUERIES})
            )
            prev = cow
        # Every generation still answers exactly what it answered when
        # published, despite later batches touching shared structure.
        for cow, frozen_answers in generations:
            for q, want in frozen_answers.items():
                assert cow.search_boolean(q).doc_ids == want

    def test_shared_structure_is_actually_shared(self):
        """A cow clone's untouched bucket images are the same objects as
        its predecessor's — publication did not copy them."""
        writer = build_writer()
        prev = writer.clone()
        writer.index.delta.clear()
        # One tiny batch: a single new document touching few buckets.
        writer.add_document("zebra unique nonsense")
        writer.flush_batch()
        delta = writer.index.delta
        cow = writer.clone_incremental(prev, delta)
        shared = sum(
            1
            for a, b in zip(
                cow.index.buckets.buckets, prev.index.buckets.buckets
            )
            if a is b
        )
        assert shared == len(cow.index.buckets.buckets) - len(
            delta.dirty_buckets
        )
        assert shared > 0
        # Disk block stores are layered over the predecessor's, not copied.
        assert all(
            isinstance(d._blocks, LayeredBlocks)
            for d in cow.index.index.array.disks
        ) if hasattr(cow.index, "index") else True

    def test_clean_word_lists_are_shared_with_the_predecessor(self):
        """Inside a dirty bucket only the batch's words are copied: a
        clean word's short list is the predecessor's object, a batch
        word's is neither the writer's nor the predecessor's."""
        writer = build_writer()
        prev = writer.clone()
        writer.index.delta.clear()
        writer.add_document("zebra fox")  # fox is resident, zebra is new
        writer.flush_batch()
        delta = writer.index.delta
        cow = writer.clone_incremental(prev, delta)
        fox = writer.vocabulary.lookup("fox")
        bucket_id = writer.index.buckets.bucket_of(fox)
        assert bucket_id in delta.dirty_buckets
        mine, theirs, writers = (
            index.index.buckets.buckets[bucket_id].lists
            for index in (cow, prev, writer)
        )
        assert list(mine) == list(writers)
        assert mine[fox] == writers[fox]
        assert mine[fox] is not writers[fox]
        assert mine[fox] is not theirs[fox]
        clean = [w for w in mine if w not in delta.dirty_words]
        assert clean, "pick a bucket that also holds an untouched word"
        for word in clean:
            assert mine[word] is theirs[word]
            assert mine[word] is not writers[word]
        assert_same_answers(cow, writer.clone())

    def test_requires_full_after_recovery(self):
        writer = TextDocumentIndex(small_config(crash_safe=True))
        for i in range(6):
            writer.add_document(DOCS[i])
        writer.flush_batch()
        prev = writer.clone()
        writer.index.delta.clear()
        writer.add_document("one more document here")
        faults.install(
            FaultPlan(crash_at="index.before-release", crash_at_hit=1)
        )
        try:
            with pytest.raises(Exception):
                writer.flush_batch()
        finally:
            faults.uninstall()
        writer.index.recover(replay=True)
        assert writer.index.delta.requires_full
        with pytest.raises(CheckpointError):
            writer.clone_incremental(prev, writer.index.delta)

    def test_batch_gap_is_rejected(self):
        """A delta that does not cover the gap between prev and the
        writer (a publish was skipped) must be refused."""
        writer = build_writer()
        prev = writer.clone()
        writer.index.delta.clear()
        for cycle in range(2):
            writer.add_document("gap document text")
            writer.flush_batch()
        writer.index.delta.batches = 1  # claim only one batch observed
        with pytest.raises(CheckpointError):
            writer.clone_incremental(prev, writer.index.delta)


class TestFreezeBarrier:
    def test_frozen_snapshot_rejects_mutation(self):
        writer = build_writer()
        clone = writer.clone()
        freeze_index(clone.index)
        with pytest.raises(FrozenStateError):
            clone.add_document("must not land")
            clone.flush_batch()
        with pytest.raises(FrozenStateError):
            clone.index.buckets.insert(0, clone.index.longlists.content_cls())
        with pytest.raises(FrozenStateError):
            clone.index.array.disks[0].allocate(1)
        with pytest.raises(FrozenStateError):
            clone.delete_document(2)


class TestServicePublishModes:
    def _drive(self, service, cycles=4):
        for cycle in range(cycles):
            for i in range(3):
                service.add_document(DOCS[(cycle + i) % len(DOCS)])
            if cycle == 1:
                service.delete_document(0)
            service.flush_and_publish()

    def test_cow_mode_publishes_incrementally(self):
        service = QueryService(
            small_config(), publish_mode="cow", check_invariants=True
        )
        self._drive(service)
        assert service.stats.cow_publishes == 4
        assert service.stats.full_clone_publishes == 0
        assert service.stats.cow_fallbacks == 0

    def test_modes_answer_identically(self):
        results = {}
        for mode in ("clone", "cow"):
            service = QueryService(small_config(), publish_mode=mode)
            self._drive(service)
            snapshot = service.snapshot()
            results[mode] = {
                q: (
                    snapshot.search_boolean(q).doc_ids,
                    snapshot.search_boolean(q).read_ops,
                )
                for q in QUERIES
            }
        assert results["clone"] == results["cow"]

    def test_delta_scoped_invalidation_keeps_clean_entries(self):
        service = QueryService(small_config(), publish_mode="cow")
        service.add_document("alpha beta gamma")
        service.add_document("delta epsilon zeta")
        service.flush_and_publish()
        assert service.search_boolean("alpha AND beta").doc_ids == [0]
        # A batch that cannot touch 'alpha'/'beta' and adds no documents
        # ... is impossible (any doc changes the universe), but the query
        # has no NOT, so universe growth alone must not evict it.
        service.add_document("eta theta iota")
        service.flush_and_publish()
        stats_before = service.cache.stats()
        assert service.search_boolean("alpha AND beta").doc_ids == [0]
        stats_after = service.cache.stats()
        assert stats_after.hits == stats_before.hits + 1  # served from cache
        assert stats_after.entries_retained >= 1

    def test_dirty_term_is_evicted_and_recomputed(self):
        service = QueryService(small_config(), publish_mode="cow")
        service.add_document("alpha beta gamma")
        service.flush_and_publish()
        assert service.search_boolean("alpha").doc_ids == [0]
        service.add_document("alpha again here")
        service.flush_and_publish()
        # 'alpha' was in the batch's dirty vocabulary: the entry must not
        # serve the stale answer.
        assert service.search_boolean("alpha").doc_ids == [0, 1]

    def test_not_query_evicted_on_universe_growth(self):
        service = QueryService(small_config(), publish_mode="cow")
        service.add_document("alpha beta")
        service.add_document("beta gamma")
        service.flush_and_publish()
        assert service.search_boolean("NOT alpha").doc_ids == [1]
        service.add_document("unrelated words only")
        service.flush_and_publish()
        # None of the query's terms were dirty, but the complement is
        # taken over a grown universe: the entry must have been evicted.
        assert service.search_boolean("NOT alpha").doc_ids == [1, 2]

    def test_deletion_evicts_everything(self):
        service = QueryService(small_config(), publish_mode="cow")
        service.add_document("alpha beta")
        service.add_document("alpha gamma")
        service.flush_and_publish()
        assert service.search_boolean("alpha").doc_ids == [0, 1]
        service.delete_document(0)
        service.add_document("filler noise")
        service.flush_and_publish()
        assert service.search_boolean("alpha").doc_ids == [1]

    def test_crash_safe_cow_boundary_never_serializes(self, monkeypatch):
        """Neither half of a batch boundary is O(index): the undo log
        replaces the per-batch recovery point and the publish is
        incremental, so ``checkpoint.save`` is not called at all."""
        service = QueryService(
            small_config(crash_safe=True), publish_mode="cow"
        )
        saves = []
        real_save = checkpoint.save

        def counting_save(index, target):
            saves.append(index)
            real_save(index, target)

        monkeypatch.setattr(checkpoint, "save", counting_save)
        self._drive(service)
        assert service.stats.cow_publishes == 4
        assert service.stats.cow_fallbacks == 0
        assert saves == []

    def test_cow_crash_is_retried(self):
        service = QueryService(
            small_config(crash_safe=True),
            publish_mode="cow",
        )
        service.add_document(DOCS[0])
        service.flush_and_publish()
        service.add_document(DOCS[1])
        faults.install(
            FaultPlan(crash_at="checkpoint.cow-publish", crash_at_hit=1)
        )
        try:
            _, snapshot = service.flush_and_publish()
        finally:
            faults.uninstall()
        assert service.stats.publish_retries == 1
        assert snapshot.ndocs == 2
        assert service.stats.cow_publishes >= 1

    def test_recovery_forces_full_clone_fallback(self):
        service = QueryService(
            small_config(crash_safe=True),
            publish_mode="cow",
        )
        service.add_document(DOCS[0])
        service.flush_and_publish()
        service.add_document(DOCS[1])
        faults.install(
            FaultPlan(crash_at="index.before-release", crash_at_hit=1)
        )
        try:
            service.flush_and_publish()
        finally:
            faults.uninstall()
        assert service.stats.flush_recoveries == 1
        assert service.stats.cow_fallbacks == 1
        assert service.stats.full_clone_publishes >= 1
        # The fallback published correct state, and the *next* publish
        # can go incremental again (journal coverage restarted).
        assert service.search_boolean("mouse").doc_ids == [1]
        service.add_document(DOCS[2])
        service.flush_and_publish()
        assert service.stats.cow_publishes >= 1


class TestBufferCache:
    def test_hits_do_not_change_read_ops(self):
        service = QueryService(
            small_config(), publish_mode="cow", buffer_cache_blocks=64
        )
        for _ in range(12):
            for i in range(6):
                service.add_document("hot shared words " + DOCS[i])
            service.flush_and_publish()
        snapshot = service.snapshot()
        first = snapshot.search_boolean("hot AND shared")
        second = snapshot.search_boolean("hot AND shared")
        assert first.doc_ids == second.doc_ids
        assert first.read_ops == second.read_ops  # accounting unchanged
        counters = service.buffer_counters
        assert counters.hits > 0

    def test_stale_entries_never_served_across_publish(self):
        """An in-place append extends a chunk beyond its cached span:
        the ``npostings`` self-check forces a re-read (a stale hit would
        drop the appended postings from the answer)."""
        service = QueryService(
            small_config(), publish_mode="cow", buffer_cache_blocks=64
        )
        for _ in range(12):
            for i in range(6):
                service.add_document("hot shared words " + DOCS[i])
            service.flush_and_publish()
        snapshot = service.snapshot()
        snapshot.search_boolean("hot AND shared")  # warm the cache
        for i in range(6):
            service.add_document("hot shared words " + DOCS[i])
        service.flush_and_publish()
        fresh = service.snapshot()
        answer = fresh.search_boolean("hot AND shared")
        assert answer.doc_ids[-1] == fresh.ndocs - 1
        # The re-read repopulated the successor cache: repeats hit.
        hits_before = service.buffer_counters.hits
        assert fresh.search_boolean("hot AND shared").doc_ids == (
            answer.doc_ids
        )
        assert service.buffer_counters.hits > hits_before

    def test_successor_invalidates_rewritten_blocks(self):
        """A deletion sweep rewrites long-list blocks in place; the
        journal records those writes, so the next publish's successor
        cache must drop the overlapping entries."""
        service = QueryService(
            small_config(), publish_mode="cow", buffer_cache_blocks=64
        )
        for _ in range(12):
            for i in range(6):
                service.add_document("hot shared words " + DOCS[i])
            service.flush_and_publish()
        snapshot = service.snapshot()
        snapshot.search_boolean("hot AND shared")  # warm the cache
        service.delete_document(0)
        service.writer_index.sweep_deletions()  # rewrites the lists
        service.add_document("hot shared words again")
        service.flush_and_publish()
        assert service.buffer_counters.invalidated > 0
        fresh = service.snapshot()
        answer = fresh.search_boolean("hot AND shared")
        assert 0 not in answer.doc_ids
        assert answer.doc_ids[-1] == fresh.ndocs - 1
