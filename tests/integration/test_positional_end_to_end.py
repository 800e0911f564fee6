"""End-to-end positional retrieval: phrase / proximity / region queries
through the text index, across policies, with a reference model."""

import pytest

from repro.core.index import IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.core.positional import Region
from repro.textindex import TextDocumentIndex

ARTICLES = [
    """Subject: the hungry cat
From: alice

the cat chased the small mouse
the dog slept""",
    """Subject: dog news
From: bob

the big dog chased the cat
a mouse watched from afar""",
    """Subject: mouse takes title
From: carol

mice everywhere
the cat sat far away from everything else here and the
final word was dog""",
]


def make_index(policy=None):
    config = IndexConfig(
        nbuckets=16,
        bucket_size=128,
        block_postings=16,
        ndisks=2,
        nblocks_override=100_000,
        positional=True,
        **({"policy": policy} if policy else {}),
    )
    index = TextDocumentIndex(config)
    for text in ARTICLES:
        index.add_document(text)
    index.flush_batch()
    return index


@pytest.fixture
def index():
    return make_index()


class TestPhrase:
    def test_exact_phrase(self, index):
        assert index.search_phrase("cat chased").doc_ids == [0]
        assert index.search_phrase("dog chased").doc_ids == [1]

    def test_phrase_crossing_lines(self, index):
        # Positions run across lines; "mouse the dog" does not occur but
        # "small mouse" does.
        assert index.search_phrase("small mouse").doc_ids == [0]

    def test_words_present_but_not_adjacent(self, index):
        assert index.search_phrase("cat mouse").doc_ids == []

    def test_title_words_participate(self, index):
        assert index.search_phrase("hungry cat").doc_ids == [0]

    def test_repeated_words_stay_in_the_phrase(self, index):
        index.add_document("new york is big")
        index.add_document("i love new york new york")
        index.flush_batch()
        answer = index.search_phrase("new york new york")
        assert answer.doc_ids == [4]
        # Each distinct word is fetched once.
        assert answer.read_ops == index.search_phrase("new york").read_ops


class TestProximity:
    def test_within_k(self, index):
        # doc 1: "the cat / a mouse" — positions 8 and 10, 2 apart;
        # doc 0's closest cat–mouse pair is 4 apart.
        assert index.search_near("cat", "mouse", 2).doc_ids == [1]
        assert index.search_near("cat", "mouse", 4).doc_ids == [0, 1]

    def test_wider_window_catches_more(self, index):
        docs = index.search_near("cat", "mouse", 12).doc_ids
        assert 0 in docs and 1 in docs

    def test_far_apart_words_excluded(self, index):
        # doc 2: cat and dog are ~14 words apart.
        assert 2 not in index.search_near("cat", "dog", 5).doc_ids


class TestRegion:
    def test_title_region(self, index):
        assert index.search_region("cat", Region.TITLE).doc_ids == [0]
        assert index.search_region("mouse", Region.TITLE).doc_ids == [2]

    def test_author_region(self, index):
        assert index.search_region("alice", Region.AUTHOR).doc_ids == [0]
        assert index.search_region("bob", Region.AUTHOR).doc_ids == [1]

    def test_body_region(self, index):
        assert index.search_region("dog", Region.BODY).doc_ids == [0, 1, 2]

    def test_word_in_title_and_body(self, index):
        # "cat" is in doc 0's title and body; region flags are or-ed.
        title_docs = index.search_region("cat", Region.TITLE).doc_ids
        body_docs = index.search_region("cat", Region.BODY).doc_ids
        assert 0 in title_docs and 0 in body_docs


class TestAcrossPoliciesAndBatches:
    @pytest.mark.parametrize(
        "policy",
        [
            Policy(style=Style.NEW, limit=Limit.ZERO),
            Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
            Policy(style=Style.WHOLE, limit=Limit.ZERO),
        ],
        ids=lambda p: p.name,
    )
    def test_positions_survive_every_layout(self, policy):
        index = make_index(policy)
        # Force migrations by hammering one hot phrase across batches.
        for batch in range(6):
            for _ in range(10):
                index.add_document("filler words\nthe cat chased the mouse")
            index.flush_batch()
        hits = index.search_phrase("cat chased").doc_ids
        assert hits[0] == 0
        assert len(hits) == 1 + 60  # original + all fillers

    def test_boolean_and_vector_still_work_positionally(self, index):
        assert index.search_boolean("cat AND dog").doc_ids == [0, 1, 2]
        top = index.search_vector({"mouse": 1.0}, top_k=3)
        assert {h.doc_id for h in top} == {0, 1, 2}

    def test_deletion_filters_positional_queries(self, index):
        index.delete_document(0)
        assert index.search_phrase("cat chased").doc_ids == []
        index.sweep_deletions()
        assert index.search_phrase("dog chased").doc_ids == [1]

    def test_nonpositional_index_rejects_positional_queries(self):
        plain = TextDocumentIndex(
            IndexConfig(
                nbuckets=4,
                bucket_size=64,
                block_postings=16,
                ndisks=2,
                nblocks_override=50_000,
            )
        )
        plain.add_document("hello world")
        with pytest.raises(RuntimeError):
            plain.search_phrase("hello world")

    def test_checkpoint_preserves_positions(self, index):
        from .. import checkpoints

        restored_core = checkpoints.clone(index.index)
        restored = TextDocumentIndex.__new__(TextDocumentIndex)
        restored.index = restored_core
        restored.vocabulary = index.vocabulary
        restored.tokenizer_config = index.tokenizer_config
        restored.region_rules = index.region_rules
        from repro.core.deletion import DeletionManager

        restored.deletions = DeletionManager(restored_core)
        restored._last_read_ops = 0
        assert restored.search_phrase("cat chased").doc_ids == [0]
        assert restored.search_region("mouse", Region.TITLE).doc_ids == [2]
