"""Torn checkpoints: a truncated image must fail loudly, never load.

A crash during checkpointing leaves a prefix of the image on disk.  The
DSIX format's framed readers (``_r_u32`` .. ``_r_chunk``) must reject any
short read with :class:`CheckpointError` — a checkpoint that silently
loads from a prefix would resurrect a corrupt index, which is worse than
the crash it was meant to survive.  Truncation is swept at every 1/8
boundary of the image (plus the empty and off-by-one-byte cases) so tears
land inside every section of the format, not just at its tail.  The
text-index wrapper every host loads (a ``DSTX`` base and its ``DSTR``
records) is swept at every byte of a base and every fourth of a record.
"""

import io
import random

import pytest

from repro.core.checkpoint import CheckpointError
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.textindex import TextDocumentIndex

from .. import checkpoints


def checkpointed_index_bytes():
    index = DualStructureIndex(
        IndexConfig(
            policy=Policy(style=Style.NEW, limit=Limit.Z),
            nbuckets=4,
            bucket_size=16,
        )
    )
    rng = random.Random(42)
    for _ in range(4):
        for _ in range(10):
            index.add_document(
                [rng.randrange(12) for _ in range(rng.randrange(5, 25))]
            )
        index.flush_batch()
    buf = io.BytesIO()
    checkpoints.save(index, buf)
    return index, buf.getvalue()


INDEX, IMAGE = checkpointed_index_bytes()


def test_full_image_round_trips():
    restored = checkpoints.load(io.BytesIO(IMAGE))
    assert restored.stats() == INDEX.stats()


@pytest.mark.parametrize("eighths", range(8))
def test_truncation_at_every_eighth_boundary(eighths):
    cut = len(IMAGE) * eighths // 8
    with pytest.raises(CheckpointError):
        checkpoints.load(io.BytesIO(IMAGE[:cut]))


def test_truncation_one_byte_short():
    with pytest.raises(CheckpointError):
        checkpoints.load(io.BytesIO(IMAGE[:-1]))


@pytest.mark.parametrize("cut", [1, 2, 3, 5, 7, 11])
def test_truncation_inside_header(cut):
    with pytest.raises(CheckpointError):
        checkpoints.load(io.BytesIO(IMAGE[:cut]))


# The text-index format every host loads (``TextDocumentIndex.save`` and
# its redo records) tears the same way: cut a base at every byte and a
# record at every fourth.


def text_base_and_record():
    index = TextDocumentIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=16,
            block_postings=4,
            ndisks=2,
            nblocks_override=4_096,
        )
    )
    rng = random.Random(7)
    words = [f"w{chr(97 + i)}" for i in range(12)]
    for doc in range(30):
        index.add_document(" ".join(rng.sample(words, rng.randrange(2, 9))))
        if doc % 10 == 9:
            index.flush_batch()
    index.delete_document(4)
    base = io.BytesIO()
    index.save(base)
    mark = index.mark
    index.delta.clear()
    for _ in range(10):
        index.add_document(" ".join(rng.sample(words, 4)) + " wnew")
    index.flush_batch()
    index.delete_document(11)
    record = io.BytesIO()
    index.save_record(record, index.delta, mark, {})
    return base.getvalue(), record.getvalue()


TEXT_BASE, TEXT_RECORD = text_base_and_record()


def test_text_base_and_record_restore():
    restored = TextDocumentIndex.restore(TEXT_BASE, [TEXT_RECORD])
    assert restored.ndocs == 40
    assert restored.deletions.deleted == {4, 11}


def test_text_base_torn_at_every_byte():
    for cut in range(len(TEXT_BASE)):
        with pytest.raises(CheckpointError):
            TextDocumentIndex.load(io.BytesIO(TEXT_BASE[:cut]))


def test_text_record_torn_at_every_fourth_byte():
    for cut in range(0, len(TEXT_RECORD), 4):
        with pytest.raises(CheckpointError):
            TextDocumentIndex.restore(TEXT_BASE, [TEXT_RECORD[:cut]])
