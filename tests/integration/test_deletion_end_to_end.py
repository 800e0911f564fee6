"""End-to-end deletion through the text index: filter semantics, sweep
reclamation, and correctness against a reference model with deletes."""

import random

import pytest

from repro.core.index import IndexConfig
from repro.textindex import TextDocumentIndex


@pytest.fixture
def index():
    idx = TextDocumentIndex(
        IndexConfig(
            nbuckets=16,
            bucket_size=128,
            block_postings=16,
            ndisks=2,
            nblocks_override=100_000,
        )
    )
    idx.add_document("the cat sat")  # 0
    idx.add_document("the dog ran")  # 1
    idx.add_document("cat and dog")  # 2
    idx.flush_batch()
    return idx


class TestFilterSemantics:
    def test_deleted_doc_vanishes_from_boolean_answers(self, index):
        index.delete_document(2)
        assert index.search_boolean("cat").doc_ids == [0]
        assert index.search_boolean("cat AND dog").doc_ids == []

    def test_deleted_doc_vanishes_from_not_queries(self, index):
        index.delete_document(0)
        assert index.search_boolean("NOT dog").doc_ids == []

    def test_deleted_doc_vanishes_from_vector_answers(self, index):
        index.delete_document(2)
        hits = index.search_vector({"cat": 1.0, "dog": 1.0}, top_k=5)
        assert 2 not in [h.doc_id for h in hits]

    def test_document_frequency_reflects_deletes(self, index):
        assert index.document_frequency("cat") == 2
        index.delete_document(0)
        assert index.document_frequency("cat") == 1

    def test_sweep_then_filter_dropped(self, index):
        index.delete_document(2)
        stats = index.sweep_deletions()
        assert stats.complete
        assert index.deletions.ndeleted == 0
        assert index.search_boolean("cat").doc_ids == [0]

    def test_incremental_sweep_steps(self, index):
        index.delete_document(1)
        first = index.sweep_deletions(max_lists=1)
        assert first.lists_swept == 1
        while index.deletions.sweeping:
            index.sweep_deletions(max_lists=1)
        assert index.search_boolean("dog").doc_ids == [2]


class TestReferenceModelWithDeletes:
    def test_random_adds_and_deletes_match_reference(self):
        rng = random.Random(11)
        index = TextDocumentIndex(
            IndexConfig(
                nbuckets=4,
                bucket_size=48,
                block_postings=8,
                ndisks=2,
                nblocks_override=200_000,
            )
        )
        # Pure-alphabetic words: the paper's lexer splits letter and
        # digit runs, so "w0" would index as two tokens.
        vocabulary = [f"w{chr(97 + i)}" for i in range(20)]
        reference: dict[str, set[int]] = {w: set() for w in vocabulary}
        live: set[int] = set()
        doc_id = 0
        for _ in range(6):
            for _ in range(10):
                words = rng.sample(vocabulary, rng.randint(2, 6))
                # The hot word "wa" appears in every document.
                words.append("wa")
                index.add_document(" ".join(words))
                for w in set(words):
                    reference[w].add(doc_id)
                live.add(doc_id)
                doc_id += 1
            index.flush_batch()
            # Delete a few random live docs; sometimes sweep.
            for victim in rng.sample(sorted(live), k=min(3, len(live))):
                index.delete_document(victim)
                live.discard(victim)
                for docs in reference.values():
                    docs.discard(victim)
            if rng.random() < 0.5:
                index.sweep_deletions()
        for w in vocabulary:
            got = index.search_boolean(w).doc_ids
            assert got == sorted(reference[w]), f"word {w} diverged"
