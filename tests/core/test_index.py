"""Unit tests for the dual-structure index facade."""

import pytest

from repro.core.index import DualStructureIndex, IndexConfig, WordCategory
from repro.core.policy import Limit, Policy, Style


def make_index(**overrides):
    defaults = dict(
        nbuckets=8,
        bucket_size=64,
        block_postings=16,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
    )
    defaults.update(overrides)
    return DualStructureIndex(IndexConfig(**defaults))


class TestIngest:
    def test_doc_ids_assigned_in_order(self):
        idx = make_index()
        assert idx.add_document([1, 2]) == 0
        assert idx.add_document([2]) == 1
        assert idx.ndocs == 2

    def test_explicit_doc_ids_must_not_regress(self):
        idx = make_index()
        idx.add_document([1], doc_id=5)
        with pytest.raises(ValueError):
            idx.add_document([1], doc_id=3)

    def test_flush_moves_memory_to_buckets(self):
        idx = make_index()
        idx.add_document([1, 2, 3])
        result = idx.flush_batch()
        assert result.nwords == 3
        assert result.new_words == 3
        assert len(idx.memory) == 0
        assert idx.buckets.contains(1)

    def test_second_batch_sees_bucket_words(self):
        idx = make_index()
        idx.add_document([1, 2])
        idx.flush_batch()
        idx.add_document([1, 9])
        result = idx.flush_batch()
        assert result.bucket_words == 1
        assert result.new_words == 1


class TestMigration:
    def fill_until_migration(self, idx, word=1):
        """Feed batches of one hot word until it owns a long list."""
        for batch in range(50):
            for doc in range(20):
                idx.add_document([word, 1000 + batch * 20 + doc])
            idx.flush_batch()
            if word in idx.directory:
                return batch
        raise AssertionError("hot word never migrated")

    def test_hot_word_migrates_to_long_list(self):
        idx = make_index()
        self.fill_until_migration(idx)
        assert idx.classify(1) is WordCategory.LONG
        assert not idx.buckets.contains(1)

    def test_word_never_in_both_structures(self):
        idx = make_index()
        self.fill_until_migration(idx)
        for word in list(idx.directory.words()):
            assert not idx.buckets.contains(word)

    def test_long_word_updates_bypass_buckets(self):
        idx = make_index()
        self.fill_until_migration(idx)
        postings_before = idx.directory.get(1).npostings
        idx.add_document([1])
        result = idx.flush_batch()
        assert result.long_words >= 1
        assert idx.directory.get(1).npostings == postings_before + 1


class TestClassify:
    def test_three_way_classification(self):
        idx = make_index()
        assert idx.classify(1) is WordCategory.NEW
        idx.add_document([1])
        idx.flush_batch()
        assert idx.classify(1) is WordCategory.BUCKET


class TestRetrieval:
    def test_fetch_from_bucket(self):
        idx = make_index()
        idx.add_document([7])
        idx.add_document([7, 8])
        idx.flush_batch()
        postings, reads = idx.fetch(7)
        assert postings.doc_ids == [0, 1]
        assert reads == 1  # one bucket read

    def test_fetch_unknown_word(self):
        idx = make_index()
        postings, reads = idx.fetch(99)
        assert postings.doc_ids == []
        assert reads == 0

    def test_fetch_includes_unflushed_batch(self):
        idx = make_index()
        idx.add_document([7])
        idx.flush_batch()
        idx.add_document([7])  # still in memory
        postings, _ = idx.fetch(7)
        assert postings.doc_ids == [0, 1]

    def test_fetch_long_word_costs_chunk_reads(self):
        idx = make_index(policy=Policy(style=Style.NEW, limit=Limit.ZERO))
        TestMigration().fill_until_migration(idx)
        entry = idx.directory.get(1)
        postings, reads = idx.fetch(1)
        assert reads == entry.nchunks
        assert len(postings.doc_ids) == entry.npostings

    def test_fetch_requires_content_mode(self):
        idx = make_index(store_contents=False)
        idx.add_counts([(1, 5)])
        idx.flush_batch()
        with pytest.raises(RuntimeError):
            idx.fetch(1)

    def test_posting_count_spans_structures(self):
        idx = make_index()
        idx.add_document([7])
        idx.flush_batch()
        idx.add_document([7])
        assert idx.posting_count(7) == 2


class TestStatsAndTrace:
    def test_stats_reflect_state(self):
        idx = make_index()
        idx.add_document([1, 2])
        idx.flush_batch()
        stats = idx.stats()
        assert stats.batches == 1
        assert stats.bucket_words == 2
        assert stats.bucket_postings == 2
        assert 0 < stats.bucket_occupancy < 1

    def test_trace_collects_batches(self):
        idx = make_index()
        idx.add_document([1])
        idx.flush_batch()
        idx.add_document([2])
        idx.flush_batch()
        assert idx.trace.nbatches == 2

    def test_trace_disabled(self):
        idx = make_index(trace_enabled=False)
        idx.add_document([1])
        idx.flush_batch()
        assert idx.trace is None

    def test_conservation_across_structures(self):
        """Every posting ingested is in exactly one place."""
        idx = make_index()
        total = 0
        for batch in range(10):
            for doc in range(10):
                words = [1, 2 + (batch * 10 + doc) % 30]
                idx.add_document(words)
                total += len(set(words))
            idx.flush_batch()
        stats = idx.stats()
        assert stats.long_postings + stats.bucket_postings == total
