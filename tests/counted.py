"""Feeding helpers for tests that size lists by count.

The index ingests documents only.  ``add_counts`` turns a batch of
``(word, count)`` pairs (the paper's size-only batch update, §4.2) into
documents: ``word`` goes into each of the batch's first ``count``
documents, so every list grows by exactly its count.  ``insert`` is a
one-word ``BucketManager.merge`` that returns the migrations it caused.
Not collected (no ``test_`` prefix).
"""

from __future__ import annotations


def add_counts(index, pairs) -> None:
    totals: dict[int, int] = {}
    for word, count in pairs:
        totals[word] = totals.get(word, 0) + count
    for rank in range(max(totals.values(), default=0)):
        index.add_document([w for w, c in totals.items() if c > rank])


def insert(manager, word: int, payload) -> list:
    migrations: list = []
    manager.merge(
        ((word, payload),),
        lambda word: False,
        lambda mword, mpayload: migrations.append((mword, mpayload)),
        None,
    )
    return migrations
