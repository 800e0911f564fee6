"""Unit tests for dynamic bucket-space growth (paper §7)."""

import pytest

from repro.core.buckets import BucketManager
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.postings import CountPostings
from repro.core.rebalance import BucketGrower, GrowthPolicy

from ..counted import add_counts, insert


def fill_manager(manager, nwords, postings_each=3):
    for word in range(1, nwords + 1):
        insert(manager, word, CountPostings(postings_each))


class TestGrowthPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrowthPolicy(occupancy_threshold=0.0)
        with pytest.raises(ValueError):
            GrowthPolicy(occupancy_threshold=1.0)


class TestTrigger:
    def test_fires_above_threshold(self):
        manager = BucketManager(4, 40)
        grower = BucketGrower(GrowthPolicy(occupancy_threshold=0.5))
        fill_manager(manager, 24)  # 24 words × 4 units = 96/160 = 0.6
        assert grower.should_grow(manager)

    def test_quiet_below_threshold(self):
        manager = BucketManager(4, 40)
        grower = BucketGrower(GrowthPolicy(occupancy_threshold=0.5))
        fill_manager(manager, 8)  # 32/160 = 0.2
        assert not grower.should_grow(manager)


class TestGrow:
    def test_doubles_buckets_and_preserves_contents(self):
        manager = BucketManager(4, 40)
        fill_manager(manager, 24)
        words_before = sorted(manager.words())
        units_before = manager.total_units
        grower = BucketGrower()
        event = grower.grow(manager, batch=7)
        assert manager.nbuckets == 8
        assert sorted(manager.words()) == words_before
        assert manager.total_units == units_before
        assert event.old_nbuckets == 4 and event.new_nbuckets == 8
        assert event.batch == 7
        assert grower.events == [event]

    def test_rehash_routes_by_new_modulus(self):
        manager = BucketManager(4, 400)
        insert(manager, 5, CountPostings(1))  # bucket 1 of 4
        insert(manager, 7, CountPostings(1))  # bucket 3 of 4
        BucketGrower().grow(manager)
        assert manager.bucket_of(5) == 5
        assert manager.bucket_of(7) == 7
        assert manager.contains(5) and manager.contains(7)

    def test_growth_halves_occupancy(self):
        manager = BucketManager(4, 40)
        fill_manager(manager, 24)
        occupancy_before = manager.occupancy()
        BucketGrower().grow(manager)
        assert manager.occupancy() == pytest.approx(occupancy_before / 2)

    def test_no_bucket_overflows_after_growth(self):
        manager = BucketManager(2, 60)
        fill_manager(manager, 20)
        BucketGrower().grow(manager)
        for bucket in manager.buckets:
            assert bucket.size <= bucket.capacity

    def test_maybe_grow(self):
        manager = BucketManager(4, 40)
        grower = BucketGrower(GrowthPolicy(occupancy_threshold=0.5))
        assert grower.maybe_grow(manager) is None
        fill_manager(manager, 24)
        assert grower.maybe_grow(manager) is not None


class TestIndexIntegration:
    def make_index(self, grow):
        return DualStructureIndex(
            IndexConfig(
                nbuckets=2,
                bucket_size=64,
                block_postings=16,
                ndisks=2,
                nblocks_override=100_000,
                grow_buckets=grow,
                growth=GrowthPolicy(occupancy_threshold=0.5),
            )
        )

    def load(self, index, batches=8):
        word = 0
        for _ in range(batches):
            pairs = [(1 + (word + i) % 60, 2) for i in range(20)]
            word += 20
            merged = {}
            for w, c in pairs:
                merged[w] = merged.get(w, 0) + c
            add_counts(index, sorted(merged.items()))
            index.flush_batch()

    def test_auto_growth_reduces_migrations(self):
        fixed = self.make_index(grow=False)
        growing = self.make_index(grow=True)
        self.load(fixed)
        self.load(growing)
        assert growing.grower is not None
        assert growing.grower.events, "growth never triggered"
        assert growing.buckets.nbuckets > fixed.buckets.nbuckets
        # Fewer words forced out into long lists.
        assert (
            growing.directory.nwords <= fixed.directory.nwords
        )
        # Postings conserved through growth.
        assert (
            growing.directory.total_postings
            + growing.buckets.total_postings
            == fixed.directory.total_postings + fixed.buckets.total_postings
        )

    def test_growth_enlarges_flush_region(self):
        growing = self.make_index(grow=True)
        self.load(growing)
        # The bucket region that gets flushed grows with the bucket count
        # ("expanded and written in a larger region of disk").
        assert growing.buckets.nbuckets > 2
        assert growing.buckets.flush_blocks(512, 4) > (
            BucketManager(2, 64).flush_blocks(512, 4)
        )


class TestRebuildScheduler:
    def test_serializes_grants_fifo(self):
        from repro.core.rebalance import RebuildScheduler

        sched = RebuildScheduler()
        assert sched.grant([2, 0, 1]) == frozenset({2})
        assert sched.grant([]) == frozenset({0})
        assert sched.grant([2]) == frozenset({1})  # 2 re-queues behind
        assert sched.grant([]) == frozenset({2})
        assert sched.grant([]) == frozenset()
        assert sched.granted == 4
        assert sched.rounds == 5

    def test_requeue_is_idempotent(self):
        from repro.core.rebalance import RebuildScheduler

        sched = RebuildScheduler()
        sched.grant([0, 1])
        # Shard 1 keeps announcing until granted; it must not multiply.
        sched.grant([1])
        assert sched.pending == ()
        assert sched.grant([]) == frozenset()

    def test_deterministic_across_replays(self):
        from repro.core.rebalance import RebuildScheduler

        history = [[1, 3], [], [2], [0], [], []]
        runs = []
        for _ in range(2):
            sched = RebuildScheduler()
            runs.append([sched.grant(list(w)) for w in history])
        assert runs[0] == runs[1]

    def test_as_dict_counters(self):
        from repro.core.rebalance import RebuildScheduler

        sched = RebuildScheduler()
        sched.grant([0, 1, 2])
        d = sched.as_dict()
        assert d["rounds"] == 1
        assert d["granted"] == 1
        assert d["deferred"] == 2
        assert d["pending"] == [1, 2]


class TestShardedStagger:
    def _sharded(self, stagger):
        from repro.core.sharded import ShardedTextIndex

        return ShardedTextIndex(
            IndexConfig(
                nbuckets=2,
                bucket_size=64,
                block_postings=16,
                ndisks=2,
                nblocks_override=100_000,
                grow_buckets=True,
                growth=GrowthPolicy(occupancy_threshold=0.5),
            ),
            shards=3,
            rebuild_stagger=stagger,
        )

    def _load(self, index, cycles=6):
        sizes = []
        doc = 0
        for _ in range(cycles):
            for _ in range(12):
                index.add_document(
                    " ".join(
                        f"w{chr(ord('a') + (doc * 3 + k) % 24)}"
                        for k in range(6)
                    )
                )
                doc += 1
            before = [s.index.buckets.nbuckets for s in index.shards]
            index.flush_batch()
            after = [s.index.buckets.nbuckets for s in index.shards]
            sizes.append(
                sum(1 for b, a in zip(before, after) if a > b)
            )
        return sizes

    def test_at_most_one_growth_per_round(self):
        staggered = self._sharded(stagger=True)
        growths_per_round = self._load(staggered)
        assert max(growths_per_round) <= 1
        assert sum(growths_per_round) >= 1, "growth never triggered"
        assert staggered.rebuild_scheduler.granted == sum(
            growths_per_round
        )

    def test_unscheduled_growth_can_storm(self):
        free = self._sharded(stagger=False)
        growths_per_round = self._load(free)
        # Uniform routing pushes every shard over the threshold in the
        # same round: the storm the scheduler exists to prevent.
        assert max(growths_per_round) >= 2

    def test_staggered_answers_match_unscheduled(self):
        staggered = self._sharded(stagger=True)
        free = self._sharded(stagger=False)
        self._load(staggered)
        self._load(free)
        for query in ("wa AND wb", "wc OR wd", "wa AND we"):
            assert (
                staggered.search_boolean(query).doc_ids
                == free.search_boolean(query).doc_ids
            ), query


class TestGrownCheckpointRoundTrip:
    def test_grown_index_survives_save_load(self):
        """Regression: checkpoint serialization used the *config's*
        bucket count while growth only updated the live manager, so a
        grown index came back with too few buckets (and cow publication
        stayed broken forever after the fingerprint mismatch)."""
        import io

        from repro.textindex import TextDocumentIndex

        index = TextDocumentIndex(
            IndexConfig(
                nbuckets=2,
                bucket_size=64,
                block_postings=16,
                ndisks=2,
                nblocks_override=100_000,
                grow_buckets=True,
                growth=GrowthPolicy(occupancy_threshold=0.5),
            )
        )
        doc = 0
        for _ in range(6):
            for _ in range(12):
                index.add_document(
                    " ".join(
                        f"w{chr(ord('a') + (doc * 3 + k) % 24)}"
                        for k in range(6)
                    )
                )
                doc += 1
            index.flush_batch()
        assert index.index.grower.events, "growth never triggered"
        assert (
            index.index.config.nbuckets == index.index.buckets.nbuckets
        )
        buf = io.BytesIO()
        index.save(buf)
        buf.seek(0)
        restored = TextDocumentIndex.load(buf)
        assert (
            restored.index.buckets.nbuckets == index.index.buckets.nbuckets
        )
        for query in ("wa AND wb", "wc OR wd"):
            assert (
                restored.search_boolean(query).doc_ids
                == index.search_boolean(query).doc_ids
            ), query

    def test_cow_publication_survives_growth(self):
        """After a growth round forces one full-clone publish, cow must
        resume (config re-synced to the grown manager, fingerprints
        equal again) instead of falling back forever."""
        from repro.core.checkpoint import CheckpointError
        from repro.textindex import TextDocumentIndex

        index = TextDocumentIndex(
            IndexConfig(
                nbuckets=2,
                bucket_size=64,
                block_postings=16,
                ndisks=2,
                nblocks_override=100_000,
                grow_buckets=True,
                growth=GrowthPolicy(occupancy_threshold=0.5),
            )
        )
        published = index.clone()
        index.delta.clear()
        doc = 0
        saw_growth_fallback = False
        cow_after_growth = False
        grown = False
        for _ in range(8):
            for _ in range(10):
                index.add_document(
                    " ".join(
                        f"w{chr(ord('a') + (doc * 3 + k) % 24)}"
                        for k in range(6)
                    )
                )
                doc += 1
            events_before = len(index.index.grower.events)
            index.flush_batch()
            grew = len(index.index.grower.events) > events_before
            try:
                published = index.clone_incremental(published, index.delta)
                if grown and not grew:
                    cow_after_growth = True
            except CheckpointError:
                assert grew, "cow fallback without a growth this round"
                saw_growth_fallback = True
                published = index.clone()
            index.delta.clear()
            grown = grown or grew
        assert grown, "growth never triggered"
        assert saw_growth_fallback
        assert cow_after_growth, "cow never resumed after growth"
