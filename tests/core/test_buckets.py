"""Unit tests for buckets and the overflow/eviction algorithm (paper §2)."""

import pytest

from repro.core.buckets import Bucket, BucketManager, modular_hash
from repro.core.postings import CountPostings, DocPostings

from ..counted import insert


class TestBucket:
    def test_size_counts_words_and_postings(self):
        b = Bucket(100)
        b.insert(1, CountPostings(5))
        b.insert(2, CountPostings(3))
        assert b.nwords == 2
        assert b.npostings == 8
        assert b.size == 10  # one unit per word + one per posting

    def test_insert_merges_same_word(self):
        b = Bucket(100)
        b.insert(1, CountPostings(5))
        b.insert(1, CountPostings(3))
        assert b.nwords == 1
        assert len(b.lists[1]) == 8

    def test_insert_copies_payload(self):
        b = Bucket(100)
        payload = CountPostings(5)
        b.insert(1, payload)
        payload.extend(CountPostings(10))
        assert len(b.lists[1]) == 5

    def test_remove_longest_picks_longest(self):
        b = Bucket(100)
        b.insert(1, CountPostings(5))
        b.insert(2, CountPostings(9))
        b.insert(3, CountPostings(2))
        word, payload = b.remove_longest()
        assert word == 2
        assert len(payload) == 9
        assert b.size == 5 + 2 + 2

    def test_remove_longest_ties_break_to_lowest_word(self):
        b = Bucket(100)
        b.insert(7, CountPostings(5))
        b.insert(3, CountPostings(5))
        word, _ = b.remove_longest()
        assert word == 3

    def test_remove_longest_empty_raises(self):
        with pytest.raises(ValueError):
            Bucket(10).remove_longest()

    def test_overflowing_flag(self):
        b = Bucket(10)
        b.insert(1, CountPostings(8))
        assert not b.overflowing  # size 9
        b.insert(2, CountPostings(1))
        assert b.overflowing  # size 11


class TestModularHash:
    def test_is_word_mod_buckets(self):
        h = modular_hash(16)
        assert h(5) == 5
        assert h(21) == 5
        assert h(16) == 0


class TestBucketManager:
    def test_insert_without_overflow_returns_nothing(self):
        mgr = BucketManager(4, 100)
        assert insert(mgr, 1, CountPostings(5)) == []
        assert mgr.contains(1)
        assert len(mgr.get(1)) == 5

    def test_overflow_evicts_longest(self):
        mgr = BucketManager(1, 10)
        insert(mgr, 1, CountPostings(3))  # size 4
        insert(mgr, 2, CountPostings(2))  # size 7
        migrations = insert(mgr, 3, CountPostings(4))  # size 12 > 10
        assert [(w, len(p)) for w, p in migrations] == [(3, 4)]
        assert not mgr.contains(3)
        assert mgr.contains(1) and mgr.contains(2)

    def test_cascade_eviction_until_fits(self):
        mgr = BucketManager(1, 10)
        insert(mgr, 1, CountPostings(4))  # 5 units
        insert(mgr, 2, CountPostings(3))  # 9 units
        migrations = insert(mgr, 3, CountPostings(7))  # 17 units
        # Evicts 3 (8 units) → 9 units ≤ 10: one eviction suffices.
        assert [w for w, _ in migrations] == [3]

    def test_giant_list_passes_straight_through(self):
        mgr = BucketManager(2, 10)
        migrations = insert(mgr, 1, CountPostings(50))
        assert [(w, len(p)) for w, p in migrations] == [(1, 50)]
        assert mgr.total_units == 0

    def test_words_route_by_hash(self):
        mgr = BucketManager(4, 100)
        insert(mgr, 5, CountPostings(1))
        assert mgr.buckets[1].nwords == 1  # 5 mod 4
        assert mgr.bucket_of(5) == 1

    def test_custom_hash_validated(self):
        mgr = BucketManager(4, 100, hash_fn=lambda w: 99)
        with pytest.raises(ValueError):
            insert(mgr, 1, CountPostings(1))

    def test_occupancy_and_capacity(self):
        mgr = BucketManager(4, 100)
        insert(mgr, 1, CountPostings(9))
        assert mgr.capacity_units == 400
        assert mgr.total_units == 10
        assert mgr.occupancy() == pytest.approx(10 / 400)

    def test_words_iterator(self):
        mgr = BucketManager(4, 100)
        for w in (1, 2, 7):
            insert(mgr, w, CountPostings(1))
        assert sorted(mgr.words()) == [1, 2, 7]

    def test_works_with_doc_postings(self):
        mgr = BucketManager(2, 10)
        insert(mgr, 1, DocPostings([1, 2, 3]))
        insert(mgr, 1, DocPostings([9]))
        assert mgr.get(1).doc_ids == [1, 2, 3, 9]

    def test_flush_blocks_from_bytes(self):
        mgr = BucketManager(nbuckets=256, bucket_size=1024)
        # 256 × 1024 units × 4 B = 1 MiB → 256 blocks of 4 KiB.
        assert mgr.flush_blocks(4096, unit_bytes=4) == 256

    def test_flush_blocks_validation(self):
        mgr = BucketManager(2, 10)
        with pytest.raises(ValueError):
            mgr.flush_blocks(0)


class TestAnimation:
    def test_watched_bucket_records_every_change(self):
        mgr = BucketManager(1, 10)
        mgr.watch(0)
        insert(mgr, 1, CountPostings(3))
        insert(mgr, 2, CountPostings(6))  # size 11 > 10 → evict 2
        history = mgr.history(0)
        # insert, insert, eviction = 3 samples
        assert len(history) == 3
        assert history[0].nwords == 1 and history[0].npostings == 3
        assert history[1].size == 11
        assert history[2].size == 4  # word 2 evicted

    def test_eviction_shows_downward_spike(self):
        mgr = BucketManager(1, 10)
        mgr.watch(0)
        insert(mgr, 1, CountPostings(8))
        insert(mgr, 2, CountPostings(7))
        sizes = [s.size for s in mgr.history(0)]
        assert sizes[-1] < sizes[-2]

    def test_unwatched_bucket_has_no_history(self):
        mgr = BucketManager(2, 10)
        insert(mgr, 1, CountPostings(1))
        with pytest.raises(KeyError):
            mgr.history(1)

    def test_steps_are_monotonic(self):
        mgr = BucketManager(1, 100)
        mgr.watch(0)
        for w in range(5):
            insert(mgr, w, CountPostings(1))
        steps = [s.step for s in mgr.history(0)]
        assert steps == sorted(steps)
