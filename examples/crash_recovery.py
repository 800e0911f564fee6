#!/usr/bin/env python
"""Crash recovery: checkpoint an index mid-stream and resume after a crash.

The paper requires that "the incremental update of the index can be
restarted if it is aborted" (§1) and flushes buckets and the directory at
every batch boundary so the previous state survives on disk.  This example
makes the property concrete:

1. index three daily batches and checkpoint;
2. index a fourth batch but "crash" before it flushes;
3. restore from the checkpoint — the first three batches answer queries
   exactly as before, the unflushed work is cleanly absent;
4. re-ingest the lost day and continue.

Run:  python examples/crash_recovery.py
"""

import io

from repro import IndexConfig, Policy
from repro.textindex import TextDocumentIndex


def make_index() -> TextDocumentIndex:
    return TextDocumentIndex(
        IndexConfig(
            nbuckets=64,
            bucket_size=256,
            block_postings=32,
            policy=Policy.recommended_new(),
        )
    )


DAYS = [
    ["the cat sat", "a dog barked", "cat and dog together"],
    ["the mouse arrived", "cat chased mouse"],
    ["quiet day for the dog"],
    ["breaking news about the cat"],  # will be lost in the crash
]


def main() -> None:
    index = make_index()
    for day, docs in enumerate(DAYS[:3]):
        for doc in docs:
            index.add_document(doc)
        index.flush_batch()
        print(f"day {day}: flushed {len(docs)} documents")

    snapshot = io.BytesIO()
    index.save(snapshot)  # one self-contained snapshot: index + vocabulary
    print(f"checkpoint taken ({len(snapshot.getvalue())} bytes)")

    # Day 3 arrives... and the machine dies before the batch flushes.
    for doc in DAYS[3]:
        index.add_document(doc)
    print("day 3: ingested but CRASH before flush_batch()")
    answer_before = index.search_boolean("cat").doc_ids
    del index

    # Recovery: one call restores index, vocabulary, and deletion filter.
    snapshot.seek(0)
    restored = TextDocumentIndex.load(snapshot)

    answer_after = restored.search_boolean("cat").doc_ids
    print(f"after restore, 'cat' -> docs {answer_after}")
    assert answer_after == [0, 2, 4], "restored index diverged!"
    assert answer_before != answer_after, (
        "the unflushed day should be absent after recovery"
    )
    print("unflushed day 3 is cleanly absent (no partial state)")

    # Replay the lost day and continue as if nothing happened.
    for doc in DAYS[3]:
        restored.add_document(doc)
    restored.flush_batch()
    print(
        "day 3 re-ingested; 'cat' ->",
        restored.search_boolean("cat").doc_ids,
    )
    print("recovery complete: restart-from-last-flush works as the paper "
          "requires")


if __name__ == "__main__":
    main()
