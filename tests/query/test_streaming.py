"""Unit tests for streaming (lazy, block-at-a-time) query evaluation."""

import random

import pytest

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.query.boolean import intersect, union
from repro.query.streaming import (
    ListCursor,
    StreamStats,
    streamed_and,
    streamed_or,
)


def make_index(policy=None, block_postings=8):
    return DualStructureIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=48,
            block_postings=block_postings,
            ndisks=2,
            nblocks_override=200_000,
            policy=policy or Policy(style=Style.NEW, limit=Limit.Z),
        )
    )


def populate(index, rng_seed=0, batches=8, docs=12, vocab=25):
    rng = random.Random(rng_seed)
    doc = 0
    for _ in range(batches):
        for _ in range(docs):
            words = {1} | {
                rng.randint(2, vocab) for _ in range(rng.randint(2, 6))
            }
            index.add_document(sorted(words), doc_id=doc)
            doc += 1
        index.flush_batch()
    return index


class TestCursor:
    def test_walks_whole_list_in_order(self):
        index = populate(make_index())
        stats = StreamStats()
        cursor = ListCursor(index, 1, stats)
        seen = []
        while not cursor.exhausted:
            seen.append(cursor.current)
            cursor.next()
        expected, _ = index.fetch(1)
        assert seen == expected.doc_ids
        assert stats.postings_decoded == len(seen)

    def test_next_geq_lands_on_first_match(self):
        index = populate(make_index())
        cursor = ListCursor(index, 1, StreamStats())
        cursor.next_geq(37)
        assert cursor.current >= 37

    def test_unknown_word_starts_exhausted(self):
        index = populate(make_index())
        stats = StreamStats()
        cursor = ListCursor(index, 9999, stats)
        assert cursor.exhausted
        assert stats.read_ops == 0

    def test_bucket_word_costs_one_read(self):
        index = make_index()
        index.add_document([7], doc_id=0)
        index.flush_batch()
        stats = StreamStats()
        cursor = ListCursor(index, 7, stats)
        assert cursor.current == 0
        assert stats.read_ops == 1
        assert stats.blocks_read == 0  # bucket is memory-resident


class TestCorrectness:
    @pytest.mark.parametrize(
        "policy",
        [
            Policy(style=Style.NEW, limit=Limit.ZERO),
            Policy(style=Style.NEW, limit=Limit.Z),
            Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
            Policy(style=Style.WHOLE, limit=Limit.ZERO),
        ],
        ids=lambda p: p.name,
    )
    def test_streamed_matches_materialized(self, policy):
        index = populate(make_index(policy), rng_seed=3)
        for words in ([1, 2], [2, 3, 5], [1, 9999], [4], [7, 8, 9]):
            lists = [index.fetch(w)[0].doc_ids for w in words]
            want_and = lists[0]
            want_or = lists[0]
            for other in lists[1:]:
                want_and = intersect(want_and, other)
                want_or = union(want_or, other)
            got_and, _ = streamed_and(index, words)
            got_or, _ = streamed_or(index, words)
            assert got_and == want_and, words
            assert got_or == want_or, words

    def test_empty_inputs(self):
        index = populate(make_index())
        assert streamed_and(index, [])[0] == []
        assert streamed_or(index, [])[0] == []


class TestLaziness:
    def test_rare_and_frequent_skips_most_blocks(self):
        """'hot AND early-rare' must stop reading the hot list once the
        rare list is exhausted."""
        index = make_index()
        doc = 0
        for batch in range(10):
            for _ in range(12):
                words = [1]  # hot word in every doc
                if doc == 3:
                    words.append(2)  # the rare word, early in the corpus
                index.add_document(sorted(words), doc_id=doc)
                doc += 1
            index.flush_batch()
        answer, stats = streamed_and(index, [1, 2])
        assert answer == [3]
        total_blocks = sum(
            -(-c.npostings // index.config.block_postings)
            for c in index.directory.get(1).chunks
        )
        assert stats.blocks_read < 0.4 * total_blocks

    def test_union_reads_everything(self):
        index = populate(make_index(), rng_seed=5)
        _, and_stats = streamed_and(index, [1, 2])
        _, or_stats = streamed_or(index, [1, 2])
        assert or_stats.postings_decoded >= and_stats.postings_decoded

    def test_untouched_chunks_not_charged(self):
        """Chunk read ops are charged on first touch, so an early exit
        charges fewer ops than the directory's chunk count."""
        index = make_index(Policy(style=Style.NEW, limit=Limit.ZERO))
        doc = 0
        for batch in range(12):
            for _ in range(10):
                words = [1] + ([2] if doc == 0 else [])
                index.add_document(sorted(set(words)), doc_id=doc)
                doc += 1
            index.flush_batch()
        entry = index.directory.get(1)
        assert entry.nchunks > 3
        _, stats = streamed_and(index, [1, 2])
        assert stats.read_ops < entry.nchunks + 1
