"""Direct unit tests for the TextDocumentIndex facade."""

import pytest

from repro.core.index import IndexConfig
from repro.core.policy import Policy
from repro.textindex import QueryAnswer, TextDocumentIndex


def make_index(**overrides):
    defaults = dict(
        nbuckets=16,
        bucket_size=128,
        block_postings=16,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
    )
    defaults.update(overrides)
    return TextDocumentIndex(IndexConfig(**defaults))


class TestConstruction:
    def test_content_mode_forced_on(self):
        index = TextDocumentIndex(IndexConfig(store_contents=False))
        assert index.index.config.store_contents

    def test_default_config(self):
        index = TextDocumentIndex()
        assert index.ndocs == 0
        assert index.index.config.policy == Policy.recommended_new()


class TestIngestion:
    def test_doc_ids_sequential(self):
        index = make_index()
        assert index.add_document("alpha") == 0
        assert index.add_document("beta") == 1

    def test_vocabulary_grows_with_text(self):
        index = make_index()
        index.add_document("alpha beta alpha")
        assert len(index.vocabulary) == 2

    def test_case_folding(self):
        index = make_index()
        index.add_document("Alpha ALPHA alpha")
        index.flush_batch()
        assert index.document_frequency("alpha") == 1
        assert len(index.vocabulary) == 1

    def test_flush_returns_batch_result(self):
        index = make_index()
        index.add_document("one two")
        result = index.flush_batch()
        assert result.nwords == 2
        assert result.npostings == 2


class TestQueries:
    @pytest.fixture
    def index(self):
        idx = make_index()
        idx.add_document("red fox")
        idx.add_document("red hen")
        idx.add_document("blue fox")
        idx.flush_batch()
        return idx

    def test_boolean_answer_type(self, index):
        answer = index.search_boolean("red")
        assert isinstance(answer, QueryAnswer)
        assert answer.doc_ids == [0, 1]
        assert answer.read_ops >= 1

    def test_unknown_word_queries(self, index):
        assert index.search_boolean("zebra").doc_ids == []
        assert index.search_vector({"zebra": 1.0}) == []

    def test_query_casing_normalized(self, index):
        assert index.search_boolean("RED").doc_ids == [0, 1]

    def test_vector_orders_by_idf(self, index):
        # "hen" (df=1) outweighs "red" (df=2) for doc 1.
        hits = index.search_vector({"red": 1.0, "hen": 1.0}, top_k=3)
        assert hits[0].doc_id == 1

    def test_more_like_excludes_nothing_but_ranks(self, index):
        hits = index.more_like("red fox red", top_k=3)
        assert hits[0].doc_id == 0

    def test_more_like_weighs_term_frequency(self, index):
        # "fox" and "red" share a df of 2, so only fox's in-document
        # frequency of 2 puts "blue fox" (doc 2) above "red hen" (doc 1).
        hits = index.more_like("fox red fox", top_k=3)
        assert [h.doc_id for h in hits] == [0, 2, 1]
        assert hits[1].score == 2 * hits[2].score

    def test_read_ops_accumulate_per_query(self, index):
        one = index.search_boolean("red").read_ops
        two = index.search_boolean("red AND fox").read_ops
        assert two > one

    def test_document_frequency(self, index):
        assert index.document_frequency("red") == 2
        assert index.document_frequency("zebra") == 0

    def test_stats_passthrough(self, index):
        assert index.stats().batches == 1


class TestMultiBatchConsistency:
    def test_queries_span_batches(self):
        index = make_index()
        index.add_document("cat one")
        index.flush_batch()
        index.add_document("cat two")
        index.flush_batch()
        index.add_document("cat three")  # unflushed
        assert index.search_boolean("cat").doc_ids == [0, 1, 2]

    def test_empty_batch_flush_is_fine(self):
        index = make_index()
        result = index.flush_batch()
        assert result.nwords == 0
        assert index.search_boolean("anything").doc_ids == []
