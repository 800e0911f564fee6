"""Unit tests for word ⇄ id mapping."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.text.vocabulary import Vocabulary, VocabularyView, alphabetical_ids


class TestVocabulary:
    def test_ids_assigned_in_arrival_order(self):
        v = Vocabulary()
        assert v.id_of("cat") == 0
        assert v.id_of("dog") == 1
        assert v.id_of("cat") == 0
        assert len(v) == 2

    def test_lookup_does_not_assign(self):
        v = Vocabulary()
        assert v.lookup("cat") is None
        assert len(v) == 0

    def test_inverse_lookup(self):
        v = Vocabulary()
        v.id_of("cat")
        assert v.word_of(0) == "cat"
        with pytest.raises(IndexError):
            v.word_of(5)

    def test_contains_and_iteration(self):
        v = Vocabulary()
        v.ids_of(["a", "b", "a"])
        assert "a" in v and "c" not in v
        assert list(v.words()) == ["a", "b"]


class TestIdsOf:
    """``ids_of`` assigns exactly the ids an ``id_of`` loop assigns, and
    reads its argument once: a record's restore hands it a generator."""

    @settings(max_examples=80, deadline=None)
    @given(
        known=st.lists(st.sampled_from("abcdefgh"), max_size=6),
        docs=st.lists(
            st.lists(st.sampled_from("abcdefghijkl"), max_size=10), max_size=5
        ),
    )
    @example(known=["a"], docs=[["x", "a", "x", "y", "y", "a"]])
    def test_matches_an_id_of_loop(self, known, docs):
        bulk, loop = Vocabulary(), Vocabulary()
        for vocabulary in (bulk, loop):
            for word in known:
                vocabulary.id_of(word)
        for n, words in enumerate(docs):
            # A list with repeated unseen words, then a one-shot generator.
            argument = words if n % 2 else (word for word in words)
            assert bulk.ids_of(argument) == [loop.id_of(w) for w in words]
            assert list(bulk.words()) == list(loop.words())
        assert len(bulk) == len(loop)

    def test_words_since_is_the_tail_in_id_order(self):
        v = Vocabulary()
        v.ids_of(["a", "b", "c"])
        view = VocabularyView(v)
        v.ids_of(["d"])
        assert v.words_since(1) == ["b", "c", "d"]
        assert view.words_since(1) == ["b", "c"]
        assert v.words_since(4) == view.words_since(3) == []


class TestAlphabeticalIds:
    def test_sorted_numbering_from_one(self):
        ids = alphabetical_ids(["cat", "ant", "dog", "ant"])
        assert ids == {"ant": 1, "cat": 2, "dog": 3}

    def test_zero_reserved_for_marker(self):
        assert 0 not in alphabetical_ids(["x"]).values()
