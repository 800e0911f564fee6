"""Unit tests for the boolean query model."""

import pytest

from repro.query.boolean import (
    QueryParseError,
    difference,
    evaluate,
    intersect,
    parse,
    union,
)

LISTS = {
    "cat": [1, 3, 5, 7],
    "dog": [2, 3, 5, 8],
    "mouse": [4, 5],
}


def fetch(word):
    return LISTS.get(word, [])


def run(query, ndocs=10):
    return evaluate(query, fetch, ndocs)


class TestMerges:
    def test_intersect(self):
        assert intersect([1, 3, 5, 7], [2, 3, 5, 8]) == [3, 5]

    def test_intersect_disjoint(self):
        assert intersect([1, 2], [3, 4]) == []

    def test_union(self):
        assert union([1, 3], [2, 3, 9]) == [1, 2, 3, 9]

    def test_union_with_empty(self):
        assert union([], [1]) == [1]

    def test_difference(self):
        assert difference([1, 2, 3, 4], [2, 4, 9]) == [1, 3]

    def test_difference_empty_subtrahend(self):
        assert difference([1, 2], []) == [1, 2]


class TestEvaluation:
    def test_single_word(self):
        assert run("cat") == [1, 3, 5, 7]

    def test_and(self):
        assert run("cat AND dog") == [3, 5]

    def test_or(self):
        assert run("cat OR mouse") == [1, 3, 4, 5, 7]

    def test_paper_example(self):
        # "(cat and dog) or mouse" from the paper's introduction.
        assert run("(cat AND dog) OR mouse") == [3, 4, 5]

    def test_not_uses_universe(self):
        assert run("NOT cat", ndocs=8) == [0, 2, 4, 6]

    def test_and_not_becomes_difference(self):
        assert run("cat AND NOT dog") == [1, 7]

    def test_not_on_left_of_and(self):
        assert run("NOT dog AND cat") == [1, 7]

    def test_precedence_not_over_and_over_or(self):
        # cat OR dog AND mouse == cat OR (dog AND mouse)
        assert run("cat OR dog AND mouse") == [1, 3, 5, 7]

    def test_keywords_case_insensitive(self):
        assert run("cat and dog") == [3, 5]
        assert run("CAT Or MOUSE") == run("cat OR mouse")

    def test_unknown_word_is_empty(self):
        assert run("zebra") == []
        assert run("cat AND zebra") == []

    def test_nested_parens(self):
        assert run("((cat))") == [1, 3, 5, 7]


class TestParser:
    def test_empty_query(self):
        with pytest.raises(QueryParseError):
            parse("")

    def test_unbalanced_parens(self):
        with pytest.raises(QueryParseError):
            parse("(cat AND dog")
        with pytest.raises(QueryParseError):
            parse("cat)")

    def test_dangling_operator(self):
        with pytest.raises(QueryParseError):
            parse("cat AND")
        with pytest.raises(QueryParseError):
            parse("OR cat")

    def test_bad_characters(self):
        with pytest.raises(QueryParseError):
            parse("cat && dog")

    def test_adjacent_words_rejected(self):
        with pytest.raises(QueryParseError):
            parse("cat dog")
