"""Incremental copy-on-write publication: parity, fallback, sharing.

The contract under test (DESIGN.md §11): a snapshot published
incrementally is *observably identical* to the full checkpoint clone of
the same writer — same answers, same read-op charges — while costing
O(batch) to build and structurally sharing all untouched state with its
predecessor.
"""

import io

import pytest

from repro.core import checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.delta import FrozenStateError
from repro.core.index import IndexConfig
from repro.core.invariants import check_index, freeze_index
from repro.service import QueryService
from repro.service.gateway import AsyncShardGateway
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


def saved(index):
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


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

    def test_clean_payloads_shared_until_extended(self):
        """A publish shares the writer's short-list payloads: a word the
        batch left alone has one payload object in the writer, ``prev``
        and the cow snapshot.  The writer's next extension of that word
        is made on a copy, so the snapshot's object keeps its postings."""
        writer = build_writer()
        prev = writer.clone()
        writer.index.delta.clear()
        for doc in DOCS:  # every resident word: every such bucket dirty
            writer.add_document(doc)
        writer.flush_batch()
        prev = writer.clone_incremental(prev, writer.index.delta)
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
        assert mine[fox] is writers[fox]
        assert mine[fox] is not theirs[fox]
        clean = [w for w in mine if w not in delta.dirty_words]
        assert clean, "pick a bucket that also holds an untouched word"
        for word in clean:
            assert mine[word] is theirs[word] is writers[word]
        writer.index.delta.clear()

        word = clean[0]
        held = list(mine[word].doc_ids)
        payload = mine[word]
        writer.add_document(writer.vocabulary.word_of(word))
        writer.flush_batch()
        assert writer.index.buckets.get(word) is not payload
        assert mine[word] is payload and payload.doc_ids == held
        assert len(writer.index.buckets.get(word)) == len(held) + 1

    def test_cow_snapshot_saves_like_the_full_clone(self):
        """A published snapshot saves (and so clones) to the bytes of the
        writer's full clone at its boundary, through the service too."""
        writer = TextDocumentIndex(small_config())
        prev = writer.clone()
        for cycle in range(3):
            for i in range(4):
                writer.add_document(DOCS[(cycle + i) % len(DOCS)])
            writer.flush_batch()
            cow = writer.clone_incremental(prev, writer.index.delta)
            writer.index.delta.clear()
            assert saved(cow) == saved(writer.clone())
            assert saved(cow.clone()) == saved(cow)
            prev = cow
        service = QueryService(small_config(crash_safe=True), shards=1)
        for doc in DOCS:
            service.add_document(doc)
        service.flush_and_publish()
        service.add_document("zebra fox")
        service.flush_and_publish()
        assert service.stats.cow_publishes == 2
        published = service.snapshot().index
        assert saved(published) == saved(service.writer_index.clone())

    def test_long_cow_chains_save_like_the_full_clone(self):
        """Past the overlay stack's compaction depth, over a base larger
        than the chain's dirty blocks, with sweeps and windows of two
        flushes freeing and rewriting blocks, every snapshot still saves
        to its full clone's bytes: its maps keep the writer's order."""
        def add(n):
            for _ in range(n):
                i = writer.ndocs
                writer.add_document(f"{DOCS[i % len(DOCS)]} w{chr(97 + i % 26)}")

        writer = TextDocumentIndex(small_config(block_postings=4))
        add(600)
        writer.flush_batch()
        prev = writer.clone()
        writer.index.delta.clear()
        history = []
        for cycle in range(40):
            add(2)
            if cycle % 5 == 4:
                writer.delete_document(writer.ndocs - 3)
                writer.sweep_deletions()
            if cycle % 3 == 2:
                writer.flush_batch()
                add(2)
            writer.flush_batch()
            cow = writer.clone_incremental(prev, writer.index.delta)
            writer.index.delta.clear()
            history.append((cow, saved(writer.clone())))
            assert saved(cow) == history[-1][1], cycle
            prev = cow
        for cycle, (cow, want) in enumerate(history):
            assert saved(cow) == want, cycle

    def test_block_freed_and_written_again_moves_to_the_end(self):
        """A block the writer frees and writes again in one publish window
        moves to the end of the writer's map, and of the snapshot's."""
        writer = build_writer()
        prev = writer.clone()
        writer.index.delta.clear()
        disk = writer.index.array.disks[0]
        first, second = disk.allocate(1), disk.allocate(1)
        disk.write_blocks(first, [b"first"])
        disk.write_blocks(second, [b"second"])
        prev = writer.clone_incremental(prev, writer.index.delta)
        writer.index.delta.clear()
        disk.free(first, 1)
        assert disk.allocate(1) == first
        disk.write_blocks(first, [b"again"])
        assert list(disk._blocks)[-2:] == [second, first]
        cow = writer.clone_incremental(prev, writer.index.delta)
        assert list(cow.index.array.disks[0]._blocks)[-2:] == [second, first]
        assert saved(cow) == saved(writer.clone())

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
        service = QueryService(small_config(), check_invariants=True)
        self._drive(service)
        assert service.stats.cow_publishes == 4
        assert service.stats.full_clone_publishes == 0
        assert service.stats.cow_fallbacks == 0

    def test_modes_answer_identically(self):
        """The published snapshot answers like the full clone of the
        writer it was published from, read ops included."""
        service = QueryService(small_config())
        self._drive(service)
        results = {}
        for name, index in (
            ("cow", service.snapshot()),
            ("clone", service.writer_index.clone()),
        ):
            results[name] = {
                q: (
                    index.search_boolean(q).doc_ids,
                    index.search_boolean(q).read_ops,
                )
                for q in QUERIES
            }
        assert service.stats.cow_publishes == 4
        assert results["clone"] == results["cow"]

    def test_cow_is_the_only_publish_mode(self):
        """``publish_mode`` survives as a keyword the benchmark harness
        passes; the full clone is a fallback, not a mode."""
        with pytest.raises(ValueError, match="publish_mode"):
            QueryService(small_config(), publish_mode="clone")
        with pytest.raises(ValueError, match="publish_mode"):
            AsyncShardGateway(small_config(), publish_mode="clone")

    def test_publish_clears_entries_the_batch_missed(self):
        """Every publish clears the cache, even when the batch missed
        the query's terms: the repeat is a miss with an equal answer."""
        service = QueryService(small_config())
        service.add_document("alpha beta gamma")
        service.add_document("delta epsilon zeta")
        service.flush_and_publish()
        assert service.search_boolean("alpha AND beta").doc_ids == [0]
        service.add_document("eta theta iota")
        service.flush_and_publish()
        stats_before = service.cache.stats()
        assert service.search_boolean("alpha AND beta").doc_ids == [0]
        stats_after = service.cache.stats()
        assert stats_after.hits == stats_before.hits
        assert stats_after.misses == stats_before.misses + 1
        assert stats_after.entries_retained == 0

    def test_dirty_term_is_evicted_and_recomputed(self):
        service = QueryService(small_config())
        service.add_document("alpha beta gamma")
        service.flush_and_publish()
        assert service.search_boolean("alpha").doc_ids == [0]
        service.add_document("alpha again here")
        service.flush_and_publish()
        # 'alpha' was in the batch's dirty vocabulary: the entry must not
        # serve the stale answer.
        assert service.search_boolean("alpha").doc_ids == [0, 1]

    def test_not_query_evicted_on_universe_growth(self):
        service = QueryService(small_config())
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
        service = QueryService(small_config())
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
        service = QueryService(small_config(crash_safe=True))
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
        service = QueryService(small_config(crash_safe=True))
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
        service = QueryService(small_config(crash_safe=True))
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
        service = QueryService(small_config(), buffer_cache_blocks=64)
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
        service = QueryService(small_config(), buffer_cache_blocks=64)
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
        service = QueryService(small_config(), buffer_cache_blocks=64)
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
