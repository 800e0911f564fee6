"""ShardedTextIndex: routing, flush modes, recovery, and publication.

The tentpole claims pinned here:

* the router is a pure function of ``(doc_id, nshards, seed)`` — the
  same corpus always lands on the same shards, in any process;
* serial, thread-parallel, and process-parallel flushes produce
  identical search results and identical shard-version vectors (shards
  share no mutable state, so execution order cannot matter);
* a crash inside one shard's flush leaves completed sibling results in
  the in-flight table, and :meth:`recover` replays *only* the crashed
  shard before finishing the same global batch;
* copy-on-write cloning degrades per shard — one unprovable shard falls
  back to a full clone without dragging its siblings along.
"""

import io
import random
from dataclasses import replace

import pytest

from repro.core.index import IndexConfig
from repro.core.shard import IndexShard, shard_of
from repro.core.sharded import ShardedTextIndex, build_text_index
from repro.pipeline.profiling import HitMissCounters
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.textindex import TextDocumentIndex

WORDS = [f"w{c}" for c in "abcdefghijkl"]


def small_config(**overrides):
    base = dict(
        nbuckets=2,
        bucket_size=24,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
    )
    base.update(overrides)
    return IndexConfig(**base)


def corpus(ndocs=40, seed=7):
    rng = random.Random(seed)
    return [
        " ".join(rng.sample(WORDS, rng.randint(2, 6))) for _ in range(ndocs)
    ]


def build(docs, flush_every=9, **kwargs):
    kwargs.setdefault("config", small_config())
    index = ShardedTextIndex(**kwargs)
    for n, text in enumerate(docs):
        index.add_document(text)
        if n % flush_every == flush_every - 1:
            index.flush_batch()
    index.flush_batch()
    return index


QUERIES = ["wa AND wb", "wa OR wk", "wc AND NOT wd", "(wa OR wb) AND we"]


def answers(index):
    return {q: index.search_boolean(q).doc_ids for q in QUERIES}


class TestRouter:
    def test_stable_and_total(self):
        for seed in (0, 1, 99):
            for doc_id in range(500):
                s = shard_of(doc_id, 4, seed)
                assert 0 <= s < 4
                assert s == shard_of(doc_id, 4, seed)

    def test_seed_changes_partition(self):
        a = [shard_of(d, 4, 0) for d in range(256)]
        b = [shard_of(d, 4, 1) for d in range(256)]
        assert a != b

    def test_spreads_sequential_ids(self):
        # Sequential global ids must not pile onto one shard — every
        # shard of 4 sees a decent slice of 400 docs.
        counts = [0] * 4
        for d in range(400):
            counts[shard_of(d, 4, 0)] += 1
        assert min(counts) > 50

    def test_route_matches_module_function(self):
        index = ShardedTextIndex(small_config(), shards=3, router_seed=5)
        for d in range(64):
            assert index.route(d) == shard_of(d, 3, 5)


class TestConstruction:
    def test_rejects_single_shard(self):
        with pytest.raises(ValueError, match="shards >= 2"):
            ShardedTextIndex(small_config(), shards=1)

    def test_build_text_index_dispatch(self):
        assert isinstance(
            build_text_index(small_config(), shards=1), TextDocumentIndex
        )
        sharded = build_text_index(small_config(), shards=3)
        assert isinstance(sharded, ShardedTextIndex)
        assert len(sharded.shards) == 3
        assert isinstance(sharded, IndexShard)

    def test_satisfies_protocol(self):
        assert isinstance(ShardedTextIndex(small_config()), IndexShard)
        assert isinstance(TextDocumentIndex(small_config()), IndexShard)


class TestIngestAndRouting:
    def test_docs_land_on_routed_shard(self):
        index = build(corpus(30), shards=3)
        for shard_i, shard in enumerate(index.shards):
            # Every doc a shard holds routes back to it.
            for q in WORDS:
                for doc_id in shard.fetch_postings(q)[0]:
                    assert index.route(doc_id) == shard_i

    def test_global_ndocs_and_ids(self):
        docs = corpus(25)
        index = build(docs, shards=4)
        assert index.ndocs == len(docs)
        with pytest.raises(ValueError, match="non-decreasing"):
            index.add_document("wa", doc_id=3)

    def test_delete_routes_and_validates(self):
        index = build(corpus(20), shards=3)
        index.delete_document(11)
        assert 11 in index.shards[index.route(11)].deletions.deleted
        for q in QUERIES:
            assert 11 not in index.search_boolean(q).doc_ids
        with pytest.raises(ValueError):
            index.delete_document(20)

    def test_delete_of_a_hole_is_refused_whichever_shard_owns_it(self):
        """The gateway's rule: an id explicit-id ingest skipped was never
        added, whatever the owning shard's own document count says."""
        index = ShardedTextIndex(small_config(), shards=2)
        index.add_document("wa wb", doc_id=0)
        index.add_document("wb wc", doc_id=10)
        index.flush_batch()
        for hole in range(1, 10):
            with pytest.raises(ValueError, match="never added"):
                index.delete_document(hole)
        assert index.search_boolean("NOT wc").doc_ids == list(range(10))


class TestFlushModes:
    def test_empty_shard_version_stands_still(self):
        index = ShardedTextIndex(small_config(), shards=4)
        # Add exactly one document: only its shard's counter may move.
        index.add_document("wa wb")
        owner = index.route(0)
        index.flush_batch()
        for i, v in enumerate(index.shard_versions):
            assert v == (1 if i == owner else 0)
        assert index.batches == 1

    def test_aggregate_sums_postings(self):
        docs = corpus(20)
        index = ShardedTextIndex(small_config(), shards=3)
        single = TextDocumentIndex(small_config())
        for text in docs:
            index.add_document(text)
            single.add_document(text)
        result = index.flush_batch()
        expected = single.flush_batch()
        # Documents are partitioned, postings are not duplicated: the
        # global batch carries exactly the single-volume posting count.
        assert result.batch == 1
        assert result.npostings == expected.npostings


class TestCrashRecovery:
    def _faulty_sharded(self, crash_on_write=3):
        """Three crash-safe shards; shard 1 carries a write-crash plan."""
        config = small_config(crash_safe=True)
        index = ShardedTextIndex(config, shards=3)
        faulty = replace(
            config, fault_plan=FaultPlan(crash_on_write=crash_on_write)
        )
        index.shards[1] = TextDocumentIndex(faulty)
        return index

    def test_one_faulty_shard_does_not_disturb_siblings(self):
        docs = corpus(36, seed=3)
        clean = build(
            docs,
            flush_every=len(docs) + 1,  # one global batch, like the crash run
            shards=3,
            config=small_config(crash_safe=True),
        )

        index = self._faulty_sharded()
        for text in docs:
            index.add_document(text)
        with pytest.raises(InjectedCrash):
            index.flush_batch()

        # Only the faulty shard needs recovery; its siblings either
        # completed (result parked in the in-flight table) or never
        # started — none of them rolled anything back.
        assert not index.shards[0].needs_recovery
        assert index.shards[1].needs_recovery
        assert not index.shards[2].needs_recovery
        completed = set(index._inflight)
        assert 1 not in completed

        result = index.recover(replay=True)
        assert result is not None
        assert not any(s.needs_recovery for s in index.shards)
        assert index.batches == 1

        # Completed siblings were not re-flushed by the replay.
        for i in completed:
            assert index.shards[i].batches == 1
        # And the recovered whole answers exactly like a clean run.
        assert answers(index) == answers(clean)
        assert index.shard_versions == clean.shard_versions

    def test_recover_without_replay_discards_inflight(self):
        index = self._faulty_sharded()
        for text in corpus(36, seed=3):
            index.add_document(text)
        with pytest.raises(InjectedCrash):
            index.flush_batch()
        index.recover(replay=False)
        assert index._inflight == {}
        assert not any(s.needs_recovery for s in index.shards)

    def test_recover_requires_crash_safe(self):
        index = ShardedTextIndex(small_config(), shards=2)
        with pytest.raises(RuntimeError, match="crash_safe"):
            index.recover()

    def test_recover_on_healthy_index_is_noop(self):
        index = build(
            corpus(10), shards=2, config=small_config(crash_safe=True)
        )
        assert index.recover(replay=True) is None


class TestPublication:
    def test_clone_is_independent(self):
        index = build(corpus(30), shards=3)
        snap = answers(index)
        clone = index.clone()
        index.add_document("wa wb wc")
        index.flush_batch()
        assert answers(clone) == snap
        assert clone.check().ok

    def test_clone_incremental_matches_clone(self):
        index = build(corpus(30), shards=3)
        prev = index.clone()
        index.delta.clear()
        for text in corpus(12, seed=9):
            index.add_document(text)
        index.flush_batch()
        cow, causes = index.publish_copy(prev, index.delta, 0, None)
        assert causes == [None] * 3
        assert answers(cow) == answers(index.clone())
        assert cow.check().ok
        assert cow.shard_versions == index.shard_versions

    def test_clone_incremental_rejects_layout_mismatch(self):
        """A predecessor of another layout has no counterpart shards:
        every shard falls back to the full clone."""
        index = build(corpus(10), shards=3)
        other = build(corpus(10), shards=2)
        reseeded = build(corpus(10), shards=3, router_seed=1)
        for prev in (other, reseeded):
            copy, causes = index.publish_copy(prev, index.delta, 0, None)
            assert causes == ["no predecessor"] * 3
            assert answers(copy) == answers(index.clone())

    def test_one_recovered_shard_falls_back_alone(self):
        """The per-volume publish step on a 3-shard writer where one
        shard recovers: that shard alone is a fresh clone with a cold
        buffer cache; its siblings share structure with their
        predecessors and carry their caches.  A split changes the layout
        and falls back on every shard."""
        counters = HitMissCounters()
        config = small_config(crash_safe=True)
        index = build(corpus(60), shards=3, config=config)
        prev, _ = index.publish_copy(None, index.delta, 300, counters)
        index.delta.clear()
        for shard in prev.shards:  # warm every shard's cache
            shard.search_boolean("wa OR wb OR wc OR wd OR we OR wf")
        assert all(
            s.index.longlists.buffer_cache._entries for s in prev.shards
        )
        for n in range(12):  # new words only: no long-list block is dirtied
            index.add_document(f"zq{'abcdefghijkl'[n]} zr")
        assert all(len(s.index.memory) for s in index.shards)
        with faults.injected(FaultPlan(crash_at="index.flush-begin")):
            with pytest.raises(InjectedCrash):
                index.flush_batch()
        index.recover()
        recovered = [
            i for i, s in enumerate(index.shards) if s.delta.requires_full
        ]
        assert len(recovered) == 1

        copy, causes = index.publish_copy(prev, index.delta, 300, counters)
        assert [i for i, c in enumerate(causes) if c] == recovered
        assert "crash recovery" in causes[recovered[0]]
        for i, (shard, before) in enumerate(zip(copy.shards, prev.shards)):
            entries = {
                e.word: e for e in before.index.longlists.directory.entries()
            }
            shared = sum(
                entries.get(e.word) is e
                for e in shard.index.longlists.directory.entries()
            )
            cached = len(shard.index.longlists.buffer_cache._entries)
            if i in recovered:
                assert (shared, cached) == (0, 0), i
            else:
                assert shared > 0, i
                assert cached == len(
                    before.index.longlists.buffer_cache._entries
                ), i
        assert answers(copy) == answers(index.clone())

        index.delta.clear()
        index.split_shard(recovered[0])
        split, causes = index.publish_copy(copy, index.delta, 300, counters)
        assert causes == ["no predecessor"] * 4
        assert not any(
            s.index.longlists.buffer_cache._entries for s in split.shards
        )
        assert answers(split) == answers(index.clone())

    def test_check_prefixes_shard_violations(self):
        index = build(corpus(60), shards=2)
        report = index.check()
        assert report.ok and report.checks > 0
        # Corrupt one shard's directory: the merged report localises it.
        core = index.shards[1].index
        entries = [e for e in core.directory.entries() if e.chunks]
        assert entries, "corpus too small to overflow into long lists"
        entries[0].chunks[0].npostings += 1
        broken = index.check()
        assert not broken.ok
        assert all("shard 1:" in v.detail for v in broken.violations)

    def test_checkpoint_roundtrip_per_shard(self):
        index = build(corpus(20), shards=2)
        for shard in index.shards:
            buf = io.BytesIO()
            shard.save(buf)
            loaded = TextDocumentIndex.load(io.BytesIO(buf.getvalue()))
            for q in WORDS:
                assert (
                    loaded.fetch_postings(q)[0] == shard.fetch_postings(q)[0]
                )
