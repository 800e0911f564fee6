"""InvertIndex process: document batches → batch updates (paper §4.2).

"The invert index process accepts a sequence of document batches as input,
processes them, and generates a batch update for each batch.  A batch
update contains a list of words that appear in the documents of the batch
and the number of times each word occurs in the batch."

This stage exercises the full text substrate: tokenization with header
skipping, per-document deduplication, lowercasing, vocabulary numbering.
Word ids handed to the rest of the pipeline are vocabulary ids shifted by
one, because the batch-update trace format reserves id 0 as the
end-of-batch marker (Figure 5).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..text.batchupdate import BatchUpdate, build_batch_update
from ..text.documents import DocumentBatch
from ..text.tokenizer import tokenize_document
from ..text.vocabulary import Vocabulary


class InvertIndexProcess:
    """Turns text document batches into integer batch updates."""

    def __init__(self) -> None:
        self.vocabulary = Vocabulary()

    def word_id(self, word: str) -> int:
        """Pipeline word id for a token (vocabulary id + 1; 0 is reserved)."""
        return self.vocabulary.id_of(word) + 1

    def invert_batch(self, batch: DocumentBatch) -> BatchUpdate:
        """Produce the batch update for one day of documents."""
        doc_word_sets: list[list[int]] = []
        for doc in batch:
            words = tokenize_document(doc.text)
            doc_word_sets.append([self.word_id(w) for w in words])
        return build_batch_update(batch.day, doc_word_sets)

    def run(self, batches: Iterable[DocumentBatch]) -> Iterator[BatchUpdate]:
        """Invert a sequence of document batches lazily, in order."""
        for batch in batches:
            yield self.invert_batch(batch)
