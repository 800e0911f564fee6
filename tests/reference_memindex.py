"""The in-memory batch's ``add_document`` as it stood before it checked one
doc-id watermark per document: the oracle.

Verbatim from 6dbd043 (``InMemoryIndex.add_document``, ``snapshot``,
``restore`` and ``clear`` in ``core/memindex.py``, and
``DocPostings.append_doc`` from ``core/postings.py``), with ``self`` made
a parameter: a ``set`` of the words seen, one ``append_doc`` call and its
ordering check per posting.  ``tests/core/test_memindex.py`` holds
``InMemoryIndex`` to these.  Not collected (no ``test_`` prefix); edit
nothing here but imports and the parameters standing in for the index.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.postings import DocPostings


class PerPostingBatch:
    """The fields the old loop read and wrote."""

    def __init__(self) -> None:
        self._lists: dict = {}
        self._ndocs = 0
        self._npostings = 0
        self._sorted_words = None


def add_document(self: PerPostingBatch, doc_id: int, words: Iterable[int]) -> None:
    lists = self._lists
    seen: set[int] = set()
    npostings = 0
    for word in words:
        if word in seen:
            continue
        seen.add(word)
        payload = lists.get(word)
        if payload is None:
            lists[word] = DocPostings((doc_id,))
            self._sorted_words = None
        elif type(payload) is DocPostings:
            # Hot path: append into the existing list instead of
            # allocating a throwaway single-element payload per posting.
            append_doc(payload, doc_id)
        else:
            payload.extend(DocPostings([doc_id]))
        npostings += 1
    self._npostings += npostings
    self._ndocs += 1


def append_doc(self: DocPostings, doc_id: int) -> None:
    """Append one posting without building a temporary payload.

    Fast path for the per-posting indexing hot loop; equivalent to
    ``extend(DocPostings([doc_id]))`` including the ordering check.
    """
    ids = self.doc_ids
    if ids:
        if doc_id <= ids[-1]:
            raise ValueError(
                "appended postings must have larger doc ids "
                f"({doc_id} after {ids[-1]})"
            )
    elif doc_id < 0:
        raise ValueError("doc ids must be >= 0")
    ids.append(doc_id)


def snapshot(self: PerPostingBatch) -> tuple:
    return list(self._lists.items()), self._ndocs, self._npostings


def restore(self: PerPostingBatch, snapshot: tuple) -> None:
    lists, ndocs, npostings = snapshot
    self._lists = dict(lists)
    self._ndocs = ndocs
    self._npostings = npostings
    self._sorted_words = None


def clear(self: PerPostingBatch) -> None:
    self._lists = {}
    self._ndocs = 0
    self._npostings = 0
    self._sorted_words = None
