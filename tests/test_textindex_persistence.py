"""Tests for single-file TextDocumentIndex snapshots."""

import io
import os
import struct

import pytest

from repro.core.checkpoint import CheckpointError
from repro.core.index import IndexConfig
from repro.core.positional import Region
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.textindex import TextDocumentIndex


def make_index(positional=False):
    index = TextDocumentIndex(
        IndexConfig(
            nbuckets=16,
            bucket_size=128,
            block_postings=16,
            ndisks=2,
            nblocks_override=100_000,
            positional=positional,
        )
    )
    index.add_document("Subject: cats\n\nthe cat sat with the dog")
    index.add_document("a mouse ran past the dog")
    index.flush_batch()
    return index


def roundtrip(index):
    buf = io.BytesIO()
    index.save(buf)
    buf.seek(0)
    return TextDocumentIndex.load(buf)


class TestSnapshot:
    def test_queries_survive(self):
        restored = roundtrip(make_index())
        assert restored.search_boolean("cat AND dog").doc_ids == [0]
        assert restored.search_boolean("mouse OR cat").doc_ids == [0, 1]

    def test_vocabulary_survives(self):
        original = make_index()
        restored = roundtrip(original)
        assert list(restored.vocabulary.words()) == list(
            original.vocabulary.words()
        )

    def test_positional_queries_survive(self):
        restored = roundtrip(make_index(positional=True))
        assert restored.search_phrase("cat sat").doc_ids == [0]
        assert restored.search_region("cats", Region.TITLE).doc_ids == [0]

    def test_deletion_filter_survives(self):
        index = make_index()
        index.delete_document(0)
        restored = roundtrip(index)
        assert restored.deletions.deleted == {0}
        assert restored.search_boolean("cat").doc_ids == []

    def test_ingestion_continues_after_load(self):
        restored = roundtrip(make_index())
        restored.add_document("another cat appears")
        restored.flush_batch()
        assert restored.search_boolean("cat").doc_ids == [0, 2]

    def test_file_path_roundtrip(self, tmp_path):
        index = make_index()
        path = tmp_path / "snapshot.dstx"
        index.save(path)
        restored = TextDocumentIndex.load(path)
        assert restored.ndocs == index.ndocs

    def test_crash_before_replace_keeps_the_old_snapshot(self, tmp_path):
        """A save over an existing snapshot that dies after writing the
        new bytes and before replacing the old file leaves the old
        snapshot whole: it loads, and saves back to the bytes first
        written.  No temp file is left beside it."""
        path = tmp_path / "snapshot.dstx"
        make_index().save(path)
        old = path.read_bytes()
        grown = make_index()
        grown.add_document("a third document about birds")
        grown.flush_batch()
        with faults.injected(FaultPlan(crash_at="atomic.before-replace")):
            with pytest.raises(InjectedCrash):
                grown.save(path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["snapshot.dstx"]
        assert save(TextDocumentIndex.load(path)) == old
        grown.save(path)
        assert TextDocumentIndex.load(path).ndocs == 3

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="not a text-index snapshot"):
            TextDocumentIndex.load(io.BytesIO(b"XXXX"))

    def test_save_requires_flushed_batch(self):
        index = make_index()
        index.add_document("unflushed")
        with pytest.raises(CheckpointError):
            index.save(io.BytesIO())


def three_batches():
    index = TextDocumentIndex(
        IndexConfig(
            nbuckets=4, bucket_size=16, block_postings=4
        )
    )
    for batch in range(3):
        for i in range(25):
            index.add_document(f"alpha beta w{i % 7} x{(batch * 25 + i) % 11}")
        index.flush_batch()
    return index


def sweep(index):
    """Delete every third of the first 60 documents and sweep: the sweep
    retires long-list chunks to the RELEASE list, which only the next
    flush frees."""
    for doc_id in range(0, 60, 3):
        index.delete_document(doc_id)
    index.sweep_deletions()
    assert index.index.longlists.release


def save(index):
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


def release_of(index):
    return [
        (c.disk, c.start, c.nblocks) for c in index.index.longlists.release
    ]


class TestSweepBoundary:
    def test_a_copy_taken_after_a_sweep_frees_what_the_writer_frees(self):
        index = three_batches()
        sweep(index)
        copy = index.clone()
        assert release_of(copy) == release_of(index)
        copy.check().raise_if_failed()
        for volume in (index, copy):
            volume.add_document("alpha gamma")
            volume.flush_batch()
        assert not copy.index.longlists.release
        assert (
            copy.stats().disk_allocated_blocks
            == index.stats().disk_allocated_blocks
        )
        assert save(copy) == save(index)

    def test_a_cow_clone_after_a_sweep_carries_the_release_list(self):
        index = three_batches()
        prev = index.clone()
        index.delta.clear()
        sweep(index)
        cow = index.clone_incremental(prev, index.delta)
        assert release_of(cow) == release_of(index)
        cow.check().raise_if_failed()
        full = index.clone()
        for query in ("alpha", "beta AND w3", "NOT x4"):
            assert (
                cow.search_boolean(query).doc_ids
                == full.search_boolean(query).doc_ids
            )


class TestCorruptRecords:
    """A redo record that does not end where its own lengths say is
    refused, never half-applied."""

    @staticmethod
    def base_and_record():
        index = make_index()
        base, mark = save(index), index.mark
        index.add_document("the owl and the newt")
        index.flush_batch()
        buf = io.BytesIO()
        index.save_record(buf, index.delta, mark, {})
        raw = buf.getvalue()
        (core_len,) = struct.unpack_from("<Q", raw, 20)
        return base, raw, core_len

    def refused(self, base, record, what):
        with pytest.raises(CheckpointError, match=rf"\({what}\)"):
            TextDocumentIndex.restore(base, [record])

    def test_the_record_itself_restores(self):
        base, raw, _ = self.base_and_record()
        TextDocumentIndex.restore(base, [raw])

    def test_trailing_core_bytes(self):
        base, raw, core_len = self.base_and_record()
        core_end = 28 + core_len
        bad = (
            raw[:20] + struct.pack("<Q", core_len + 1)
            + raw[28:core_end] + b"\0" + raw[core_end:]
        )
        self.refused(base, bad, "core")

    def test_word_lengths_that_miss_the_text(self):
        base, raw, core_len = self.base_and_record()
        words = 28 + core_len
        nwords, _ = struct.unpack_from("<QQ", raw, words)
        assert nwords > 0
        (first,) = struct.unpack_from("<I", raw, words + 16)
        bad = (
            raw[:words + 16] + struct.pack("<I", first + 1)
            + raw[words + 20:]
        )
        self.refused(base, bad, "words")

    def test_a_trailing_tail(self):
        base, raw, _ = self.base_and_record()
        self.refused(base, raw + b"\0", "tail")
