"""Tests for the facade's streamed search."""

import pytest

from repro.core.index import IndexConfig
from repro.textindex import TextDocumentIndex


@pytest.fixture
def index():
    idx = TextDocumentIndex(
        IndexConfig(
            nbuckets=8,
            bucket_size=64,
            block_postings=8,
            ndisks=2,
            nblocks_override=100_000,
        )
    )
    idx.add_document("red fox runs")
    idx.add_document("red hen sits")
    idx.add_document("blue fox swims")
    idx.flush_batch()
    return idx


class TestSearchStreamed:
    def test_and(self, index):
        assert index.search_streamed("red AND fox").doc_ids == [0]

    def test_or(self, index):
        assert index.search_streamed("red OR blue").doc_ids == [0, 1, 2]

    def test_single_word(self, index):
        assert index.search_streamed("fox").doc_ids == [0, 2]

    def test_matches_materialized_evaluator(self, index):
        for q in ("red AND fox", "red OR blue", "fox AND swims"):
            assert (
                index.search_streamed(q).doc_ids
                == index.search_boolean(q).doc_ids
            ), q

    def test_keywords_case_insensitive(self, index):
        assert index.search_streamed("red and fox").doc_ids == [0]

    def test_unknown_conjunct_short_circuits(self, index):
        answer = index.search_streamed("red AND zebra")
        assert answer.doc_ids == []
        assert answer.read_ops == 0

    def test_unknown_disjunct_ignored(self, index):
        assert index.search_streamed("red OR zebra").doc_ids == [0, 1]

    def test_sees_unflushed_batch(self, index):
        index.add_document("red panda naps")
        assert index.search_streamed("red").doc_ids == [0, 1, 3]
        assert index.search_streamed("red AND panda").doc_ids == [3]

    def test_deletion_filter_applies(self, index):
        index.delete_document(0)
        assert index.search_streamed("red AND fox").doc_ids == []

    def test_mixed_operators_rejected(self, index):
        with pytest.raises(ValueError):
            index.search_streamed("a AND b OR c")
        with pytest.raises(ValueError):
            index.search_streamed("a NOT b")
        with pytest.raises(ValueError):
            index.search_streamed("a AND")

    def test_reports_read_ops(self, index):
        answer = index.search_streamed("red AND fox")
        assert answer.read_ops >= 2  # at least one read per operand
