"""Unit tests for word ⇄ id mapping."""

import pytest

from repro.text.vocabulary import Vocabulary, alphabetical_ids


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


class TestAlphabeticalIds:
    def test_sorted_numbering_from_one(self):
        ids = alphabetical_ids(["cat", "ant", "dog", "ant"])
        assert ids == {"ant": 1, "cat": 2, "dog": 3}

    def test_zero_reserved_for_marker(self):
        assert 0 not in alphabetical_ids(["x"]).values()
