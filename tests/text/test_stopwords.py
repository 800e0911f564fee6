"""Unit tests for stop-word filtering (paper §1's full-text remark)."""

from repro.core.index import IndexConfig
from repro.text.tokenizer import (
    DEFAULT_STOP_WORDS,
    TokenizerConfig,
    tokenize_document,
    tokenize_line,
)
from repro.textindex import TextDocumentIndex


class TestStopWords:
    def test_off_by_default(self):
        assert list(tokenize_line("the cat")) == ["the", "cat"]

    def test_full_text_config_drops_stop_words(self):
        cfg = TokenizerConfig.full_text()
        assert list(tokenize_line("the cat and the dog", cfg)) == [
            "cat", "dog",
        ]

    def test_matching_is_case_insensitive(self):
        cfg = TokenizerConfig.full_text()
        assert list(tokenize_line("The AND tHe", cfg)) == []

    def test_custom_stop_list(self):
        cfg = TokenizerConfig(stop_words=frozenset({"cat"}))
        assert list(tokenize_line("the cat sat", cfg)) == ["the", "sat"]

    def test_stopping_respects_no_lowercase_mode(self):
        cfg = TokenizerConfig(lowercase=False, stop_words=frozenset({"the"}))
        # "The" is preserved in case but still matched against the list.
        assert list(tokenize_line("The Cat", cfg)) == ["Cat"]

    def test_default_list_is_plausible(self):
        assert {"the", "and", "of"} <= DEFAULT_STOP_WORDS
        assert "cat" not in DEFAULT_STOP_WORDS

    def test_document_level(self):
        cfg = TokenizerConfig.full_text()
        assert tokenize_document("the cat is on the mat", cfg) == [
            "cat", "mat",
        ]


class TestIndexIntegration:
    def test_stopped_words_never_indexed(self):
        index = TextDocumentIndex(
            IndexConfig(
                nbuckets=8,
                bucket_size=64,
                block_postings=16,
                ndisks=2,
                nblocks_override=50_000,
            ),
            tokenizer_config=TokenizerConfig.full_text(),
        )
        index.add_document("the cat and the dog")
        index.flush_batch()
        assert index.document_frequency("the") == 0
        assert index.document_frequency("cat") == 1
        # Queries for stop words simply find nothing.
        assert index.search_boolean("the").doc_ids == []
        assert index.search_boolean("cat AND dog").doc_ids == [0]
