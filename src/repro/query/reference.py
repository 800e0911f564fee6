"""Brute-force reference model: the gold standard every evaluator must match.

The paper argues correctness structurally — sorted lists, append-only
updates, merge-based evaluation (§3) — but the repo verifies it
differentially: a :class:`BruteForceIndex` stores documents as plain word
sets and answers every query by scanning them, so any divergence between
the real evaluators (:mod:`repro.query.boolean`,
:mod:`repro.query.streaming`, :mod:`repro.query.vector`) and this model is
a bug in the index or its query machinery, never in the oracle.

Three consumers share it:

* the hypothesis differential test (``tests/query``) drives random
  corpora and queries through index and model side by side;
* the serving layer's stress driver keeps one beside the service it
  checks and freezes a copy per published snapshot id, so reader threads
  can detect stale or torn reads;
* the serving-vs-offline equivalence test rebuilds the model from the
  load generator's document stream.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from . import boolean as boolean_query
from . import vector as vector_query
from .vector import ScoredDocument


class BruteForceIndex:
    """A naive inverted index over word *strings*: dict of sorted lists.

    Mirrors the user-visible contract of
    :class:`repro.textindex.TextDocumentIndex` — same query surface, same
    deletion semantics (deleted documents disappear from answers
    immediately) — with none of the machinery under test.
    """

    def __init__(self) -> None:
        self._lists: dict[str, list[int]] = {}
        self._deleted: set[int] = set()
        self.ndocs = 0

    # -- ingest ----------------------------------------------------------

    def add_document(self, doc_id: int, words: Iterable[str]) -> None:
        """Record one document; ids must arrive in increasing order."""
        for word in sorted(set(words)):
            postings = self._lists.setdefault(word, [])
            if postings and postings[-1] >= doc_id:
                raise ValueError("doc ids must be increasing")
            postings.append(doc_id)
        self.ndocs = max(self.ndocs, doc_id + 1)

    def delete_document(self, doc_id: int) -> None:
        self._deleted.add(doc_id)

    # -- retrieval -------------------------------------------------------

    def fetch(self, word: str) -> list[int]:
        """A word's live posting list (deleted docs filtered)."""
        postings = self._lists.get(word, [])
        if not self._deleted:
            return list(postings)
        return [d for d in postings if d not in self._deleted]

    def search_boolean(self, query: str) -> list[int]:
        """Evaluate a boolean query exactly like the facade does."""
        docs = boolean_query.evaluate(query, self.fetch, self.ndocs)
        return [d for d in docs if d not in self._deleted]

    def search_streamed(self, query: str) -> list[int]:
        """Flat AND/OR queries: streaming and materialized semantics agree
        on answers, so the model needs only one evaluator."""
        return self.search_boolean(query)

    def search_vector(
        self, weights: Mapping[str, float], top_k: int = 10
    ) -> list[ScoredDocument]:
        return vector_query.rank(weights, self.fetch, self.ndocs, top_k=top_k)

    # -- snapshotting ----------------------------------------------------

    def freeze(self) -> "BruteForceIndex":
        """An independent copy pinned to the current contents — what the
        stress driver files under a published snapshot's id."""
        frozen = BruteForceIndex()
        frozen._lists = {w: list(p) for w, p in self._lists.items()}
        frozen._deleted = set(self._deleted)
        frozen.ndocs = self.ndocs
        return frozen


def materialized_blocks(index, words: Sequence[str]) -> int:
    """Disk blocks the *materialized* evaluator would decode for ``words``.

    The upper bound the streamed evaluator's ``blocks_read`` must respect:
    fetching a word's whole long list touches every data block of every
    chunk (bucket short lists live in bucket pages, charged as read ops,
    not data blocks).  ``index`` is a :class:`~repro.textindex.TextDocumentIndex`.
    """
    from ..storage.block import blocks_for_postings

    block_postings = index.index.config.block_postings
    total = 0
    for word in words:
        word_id = index.vocabulary.lookup(word)
        if word_id is None:
            continue
        entry = index.index.directory.get(word_id)
        if entry is None:
            continue
        total += sum(
            blocks_for_postings(chunk.npostings, block_postings)
            for chunk in entry.chunks
        )
    return total
