"""Cross-mode consistency, batch by batch: the paper's size-only pipeline
must mirror the index users query.

The evaluation pipeline never builds an index.  Its bucket stage merges
each batch update's ``CountPostings`` into a bare
:class:`~repro.core.buckets.BucketManager`
(:class:`~repro.pipeline.compute_buckets.ComputeBucketsProcess`), and its
disk stage replays the long-list updates through a
:class:`~repro.core.longlists.LongListManager` on a disk array that stores
no contents (:class:`~repro.pipeline.compute_disks.ComputeDisksProcess`).
The paper's figures are computed from those stages, so after every batch
they must agree with a :class:`DualStructureIndex` fed the same documents:
the same word categories and migrations, the same directory list sizes,
and the same I/O, op for op.  ``tests/integration/test_mode_cross_validation.py``
compares the end states on the synthetic corpus; this compares every
batch of a hot toy workload.  A divergence would mean the reported update
costs do not describe the index users actually query.
"""

import random

import pytest

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.invariants import check_index
from repro.core.policy import Limit, Policy, Style
from repro.pipeline.compute_buckets import (
    ComputeBucketsProcess,
    LongListTrace,
)
from repro.pipeline.compute_disks import ComputeDisksProcess, DiskStageConfig

POLICIES = [
    ("new", Policy(style=Style.NEW, limit=Limit.Z)),
    ("whole", Policy(style=Style.WHOLE, limit=Limit.Z)),
    ("fill", Policy(style=Style.FILL, limit=Limit.Z)),
]


def seeded_batches(nbatches=8, seed=271):
    """Batches of documents over words 1..16 (the pipeline reserves 0)."""
    rng = random.Random(seed)
    return [
        [
            [rng.randrange(1, 17) for _ in range(rng.randrange(4, 28))]
            for _ in range(12)
        ]
        for _ in range(nbatches)
    ]


def counts_for(batch):
    """The size-only image of a document batch: one posting per distinct
    word per document, exactly what ``InMemoryIndex.add_document`` keeps."""
    totals: dict[int, int] = {}
    for doc in batch:
        for word in set(doc):
            totals[word] = totals.get(word, 0) + 1
    return sorted(totals.items())


def last_batch(trace):
    """The last batch's ops of an I/O trace."""
    *_, last = trace.batches()
    return last


@pytest.mark.parametrize("pname,policy", POLICIES, ids=[p[0] for p in POLICIES])
def test_pipeline_and_index_agree_per_batch(pname, policy):
    index = DualStructureIndex(
        IndexConfig(policy=policy, nbuckets=4, bucket_size=24)
    )
    buckets = ComputeBucketsProcess(4, 24)
    # The same bucket region, so that long lists land on the same blocks.
    region = index.buckets.flush_blocks(index.array.profile.block_size)
    disks = ComputeDisksProcess(
        DiskStageConfig(policy=policy, bucket_flush_blocks=region)
    )

    for batch_no, batch in enumerate(seeded_batches()):
        for doc in batch:
            index.add_document(doc)
        result = index.flush_batch()
        events, categories = buckets.process_update(counts_for(batch))
        trace = LongListTrace()
        trace.batches.append(events)
        disks.run(trace)

        assert (result.new_words, result.bucket_words, result.long_words) == (
            categories.new, categories.bucket, categories.long
        ), f"{pname}: batch {batch_no} word categories diverge"
        # One long-list update per long word and per eviction.
        assert len(events) == result.long_words + result.migrations
        # Same long-list shape, word by word.
        assert {
            e.word: (e.npostings, e.nchunks)
            for e in index.directory.entries()
        } == {
            e.word: (e.npostings, e.nchunks)
            for e in disks.manager.directory.entries()
        }, f"{pname}: batch {batch_no} directories diverge"
        # Same short lists, by size.
        assert {
            w: len(index.buckets.get(w)) for w in index.buckets.words()
        } == {
            w: len(buckets.manager.get(w)) for w in buckets.manager.words()
        }, f"{pname}: batch {batch_no} buckets diverge"
        # The same I/O (long lists and the bucket flush), operation for
        # operation, and the same long-list totals.
        assert last_batch(index.trace) == last_batch(disks.trace), (
            f"{pname}: batch {batch_no} I/O ops diverge"
        )
        assert vars(index.longlists.counters) == vars(disks.manager.counters), (
            f"{pname}: batch {batch_no} long-list counters diverge"
        )
        check_index(index).raise_if_failed()
