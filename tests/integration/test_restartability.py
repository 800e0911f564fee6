"""Restartability: resuming from a checkpoint mid-run converges to the
same logical index as an uninterrupted run (the paper's §1 claim that an
aborted incremental update can restart from the last flush).
"""

import io
import random

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style

from .. import checkpoints


def make_index():
    return DualStructureIndex(
        IndexConfig(
            nbuckets=8,
            bucket_size=64,
            block_postings=16,
            ndisks=2,
            nblocks_override=100_000,
            policy=Policy(style=Style.NEW, limit=Limit.Z),
        )
    )


def batch_documents(rng, first_doc, ndocs=10):
    docs = []
    for i in range(ndocs):
        words = [min(int(rng.paretovariate(0.8)), 30) for _ in range(6)]
        docs.append((first_doc + i, words))
    return docs


def test_resume_from_checkpoint_matches_straight_run():
    batches = [batch_documents(random.Random(b), b * 10) for b in range(8)]

    # Uninterrupted run.
    straight = make_index()
    for batch in batches:
        for doc_id, words in batch:
            straight.add_document(words, doc_id=doc_id)
        straight.flush_batch()

    # Interrupted run: checkpoint after batch 4, "crash", restore, replay.
    interrupted = make_index()
    for batch in batches[:4]:
        for doc_id, words in batch:
            interrupted.add_document(words, doc_id=doc_id)
        interrupted.flush_batch()
    buf = io.BytesIO()
    checkpoints.save(interrupted, buf)
    del interrupted  # the crash
    buf.seek(0)
    resumed = checkpoints.load(buf)
    for batch in batches[4:]:
        for doc_id, words in batch:
            resumed.add_document(words, doc_id=doc_id)
        resumed.flush_batch()

    # Logical contents must be identical word by word.
    words = set(straight.directory.words()) | set(straight.buckets.words())
    assert words == set(resumed.directory.words()) | set(
        resumed.buckets.words()
    )
    for word in words:
        assert (
            resumed.fetch(word)[0].doc_ids == straight.fetch(word)[0].doc_ids
        ), f"word {word} diverged after restart"


def test_unflushed_batch_is_lost_on_crash_not_corrupted():
    """Work since the last flush disappears cleanly: the restored index
    serves the pre-crash flush state."""
    idx = make_index()
    idx.add_document([1, 2], doc_id=0)
    idx.flush_batch()
    buf = io.BytesIO()
    checkpoints.save(idx, buf)
    idx.add_document([1, 3], doc_id=1)  # never flushed, never checkpointed

    buf.seek(0)
    restored = checkpoints.load(buf)
    assert restored.fetch(1)[0].doc_ids == [0]
    assert restored.fetch(3)[0].doc_ids == []
