#!/usr/bin/env python
"""Quickstart: index text documents incrementally and query them.

Demonstrates the library's top-level API:

* :class:`repro.TextDocumentIndex` — tokenizer + vocabulary + the
  dual-structure index of the paper, storing real postings on a simulated
  1994-era disk array;
* incremental batch updates (the paper's core contribution: no index
  rebuilds — new documents merge in place);
* boolean and vector-space queries, with the I/O cost of each query
  reported in read operations, exactly as the paper's evaluation counts
  them.

Run:  python examples/quickstart.py
"""

from repro import IndexConfig, Policy
from repro.textindex import TextDocumentIndex

ARTICLES_DAY_1 = [
    """Date: Mon Nov 15 1993
Subject: pets

The cat sat on the mat while the dog watched the door.
Later the cat and the dog shared the rug without a fight.""",
    """Date: Mon Nov 15 1993
Subject: rodents

A mouse ran across the kitchen floor.  The cat gave chase,
but the mouse escaped behind the stove.""",
    """Date: Mon Nov 15 1993
Subject: databases

Inverted lists map each word to the documents containing it.
Updating them in place avoids rebuilding the index.""",
]

ARTICLES_DAY_2 = [
    """Date: Tue Nov 16 1993
Subject: more pets

The dog barked at the mail carrier.  The cat ignored everything.""",
    """Date: Tue Nov 16 1993
Subject: systems

Incremental updates keep the index fresh as documents arrive,
batching postings in memory and merging them to disk.""",
]


def main() -> None:
    # The recommended update-leaning policy from the paper's Section 5.4:
    # new style, in-place updates, proportional reserved space (k = 2).
    index = TextDocumentIndex(
        IndexConfig(policy=Policy.recommended_new())
    )

    print("== Day 1: index three articles, flush one batch update ==")
    for text in ARTICLES_DAY_1:
        doc_id = index.add_document(text)
        print(f"  indexed document {doc_id}")
    result = index.flush_batch()
    print(
        f"  batch 0: {result.nwords} distinct words, "
        f"{result.npostings} postings, {result.io_ops} long-list I/O ops"
    )

    print("\n== Day 2: two more articles (incremental, no rebuild) ==")
    for text in ARTICLES_DAY_2:
        index.add_document(text)
    result = index.flush_batch()
    print(
        f"  batch 1: {result.new_words} new words, "
        f"{result.bucket_words} bucket words, {result.long_words} long words"
    )

    print("\n== Boolean queries (paper §1's example form) ==")
    for query in ["cat AND dog", "(cat AND dog) OR mouse", "index AND NOT cat"]:
        answer = index.search_boolean(query)
        print(
            f"  {query!r:32s} -> docs {answer.doc_ids} "
            f"({answer.read_ops} read ops)"
        )

    print("\n== Vector query (weighted words, idf-scored) ==")
    for hit in index.search_vector({"cat": 1.0, "mouse": 2.0}, top_k=3):
        print(f"  doc {hit.doc_id}: score {hit.score:.3f}")

    print("\n== More-like-this (vector query derived from a document) ==")
    for hit in index.more_like("the dog chased the mouse", top_k=3):
        print(f"  doc {hit.doc_id}: score {hit.score:.3f}")

    stats = index.stats()
    print(
        f"\nIndex state: {stats.batches} batches, "
        f"{stats.bucket_words} words in buckets, "
        f"{stats.long_words} words with long lists, "
        f"{stats.bucket_postings} postings held in buckets"
    )


if __name__ == "__main__":
    main()
