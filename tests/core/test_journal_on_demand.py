"""A volume builds its delta journal only when a full copy of it is first
taken: a bare index that never publishes or checkpoints keeps none.

The journal feeds incremental publication and redo records; both start
from a full copy (a clone, a base), so nothing before that copy is
needed.  Until then ``delta`` is ``None``, which every consumer reads as
"no coverage": a publish takes a full clone.
"""

import io

import pytest

from repro.core.checkpoint import CheckpointError
from repro.core.index import IndexConfig
from repro.core.shard import publish_copy
from repro.service import QueryService
from repro.textindex import TextDocumentIndex

WORDS = "cat dog mouse fox owl bee ant elk".split()


def config(**overrides):
    return IndexConfig(
        nbuckets=8,
        bucket_size=24,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
        **overrides,
    )


def saved(index) -> bytes:
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


def ingest(index, start: int, ndocs: int) -> None:
    for n in range(start, start + ndocs):
        index.add_document(" ".join(WORDS[(n + k * k) % 8] for k in range(n % 5 + 2)))
        if n % 6 == 5:
            index.flush_batch()
    index.flush_batch()


@pytest.mark.parametrize("crash_safe", (False, True))
def test_a_bare_index_keeps_no_journal(crash_safe):
    index = TextDocumentIndex(config(crash_safe=crash_safe))
    ingest(index, 0, 30)
    index.delete_document(3)
    index.delete_document(17)
    index.sweep_deletions()
    index.flush_batch()
    assert index.delta is None
    assert index.index.buckets.journal is (index.index._undo if crash_safe else None)
    if crash_safe:
        assert index.index._undo.forward is None


@pytest.mark.parametrize("crash_safe", (False, True))
def test_the_first_copies_save_to_the_full_clone_bytes(crash_safe):
    """The first publish of a bare index is a full clone, which starts
    the journal; the next one shares structure and saves to its full
    clone's bytes."""
    index = TextDocumentIndex(config(crash_safe=crash_safe))
    ingest(index, 0, 20)
    index.delete_document(2)
    first, cause = publish_copy(index, None, index.delta, 0, None)
    assert cause == "no predecessor"
    assert saved(first) == saved(index.clone())
    assert index.delta is not None and not index.delta.requires_full
    ingest(index, 20, 14)
    index.delete_document(25)
    index.sweep_deletions()
    cow = index.clone_incremental(first, index.delta)
    assert saved(cow) == saved(index.clone())


def test_a_clone_starts_the_journal_it_covers_from():
    index = TextDocumentIndex(config())
    ingest(index, 0, 12)
    prev = index.clone()
    assert index.delta is not None
    ingest(index, 12, 9)
    index.delete_document(4)
    cow = index.clone_incremental(prev, index.delta)
    assert saved(cow) == saved(index.clone())


def test_a_save_starts_the_journal_a_redo_record_needs():
    index = TextDocumentIndex(config())
    ingest(index, 0, 12)
    base, mark = saved(index), index.mark
    assert index.delta is not None and not index.delta.requires_full
    ingest(index, 12, 9)
    index.delete_document(4)
    record = io.BytesIO()
    index.save_record(record, index.delta, mark, {})
    restored = TextDocumentIndex.restore(base, [record.getvalue()])
    assert saved(restored) == saved(index)


def test_no_journal_extends_nothing():
    """A predecessor the writer never copied itself has no journal
    covering the writer since: the publish falls back."""
    index = TextDocumentIndex(config())
    other = TextDocumentIndex(config())
    ingest(index, 0, 12)
    ingest(other, 0, 12)
    prev = other.clone()
    index.delete_document(5)
    assert index.delta is None
    with pytest.raises(CheckpointError):
        index.clone_incremental(prev, index.delta)
    copy, cause = publish_copy(index, prev, index.delta, 0, None)
    assert cause == "incremental clone requires a delta journal"
    assert saved(copy) == saved(index.clone())


def test_copies_start_without_a_journal():
    index = TextDocumentIndex(config())
    ingest(index, 0, 12)
    first = index.clone()
    ingest(index, 12, 9)
    cow = index.clone_incremental(first, index.delta)
    assert first.delta is None
    assert cow.delta is None and cow.index.buckets.owned == set()


def test_a_service_journals_from_its_first_publish():
    service = QueryService(config(), shards=1, publish_mode="cow")
    writer = service.writer_index.index
    assert writer.delta is not None and not writer.delta.requires_full
    for n in range(8):
        service.add_document(WORDS[n % 8] + " " + WORDS[(n + 3) % 8])
    service.writer_index.flush_batch()
    assert writer.delta.dirty_buckets and writer.delta.batches == 1


def test_both_halves_of_a_split_journal():
    """A split copies its victim: the publish after it falls back for
    every shard (the layout changed), and the one after that shares."""
    service = QueryService(config(), shards=2, publish_mode="cow")
    writer = service.writer_index
    for n in range(24):
        service.add_document(" ".join(WORDS[(n + k) % 8] for k in range(3)))
    service.flush_and_publish()
    writer.split_shard(0)
    assert all(shard.delta is not None for shard in writer.shards)
    for n in range(2):
        service.add_document(WORDS[n] + " " + WORDS[n + 4])
        service.flush_and_publish()
    stats = service.stats
    assert (stats.cow_publishes, stats.full_clone_publishes) == (2, 1)
