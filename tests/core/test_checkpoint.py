"""Unit tests for checkpoint/restore."""

import io

import pytest

from repro.core import checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style


def make_index(**overrides):
    defaults = dict(
        nbuckets=8,
        bucket_size=64,
        block_postings=16,
        ndisks=2,
        nblocks_override=50_000,
        store_contents=True,
    )
    defaults.update(overrides)
    return DualStructureIndex(IndexConfig(**defaults))


def populate(idx, batches=6, docs=15):
    for batch in range(batches):
        for doc in range(docs):
            idx.add_document([1, 2, 3 + (batch * docs + doc) % 25])
        idx.flush_batch()
    return idx


class TestRoundtrip:
    def test_directory_and_buckets_survive(self):
        idx = populate(make_index())
        restored = checkpoint.clone(idx)
        assert sorted(restored.directory.words()) == sorted(
            idx.directory.words()
        )
        assert restored.buckets.total_units == idx.buckets.total_units
        assert restored.stats() == idx.stats()

    def test_queries_work_after_restore(self):
        idx = populate(make_index())
        expected = {w: idx.fetch(w)[0].doc_ids for w in (1, 2, 3, 10)}
        restored = checkpoint.clone(idx)
        for word, docs in expected.items():
            assert restored.fetch(word)[0].doc_ids == docs

    def test_updates_continue_after_restore(self):
        idx = populate(make_index())
        restored = checkpoint.clone(idx)
        before = restored.posting_count(1)
        restored.add_document([1])
        restored.flush_batch()
        assert restored.posting_count(1) == before + 1

    def test_counters_survive(self):
        idx = populate(make_index())
        restored = checkpoint.clone(idx)
        assert (
            restored.longlists.counters.in_place_updates
            == idx.longlists.counters.in_place_updates
        )
        assert restored.longlists.counters.appends == (
            idx.longlists.counters.appends
        )

    def test_free_space_maps_survive(self):
        idx = populate(make_index())
        restored = checkpoint.clone(idx)
        assert [d.free_blocks for d in restored.array.disks] == [
            d.free_blocks for d in idx.array.disks
        ]

    def test_policy_survives(self):
        idx = populate(
            make_index(policy=Policy(style=Style.WHOLE, limit=Limit.ZERO))
        )
        restored = checkpoint.clone(idx)
        assert restored.config.policy == idx.config.policy

    def test_size_only_mode_roundtrips(self):
        idx = make_index(store_contents=False)
        for _ in range(4):
            idx.add_counts([(1, 40), (2, 3)])
            idx.flush_batch()
        restored = checkpoint.clone(idx)
        assert restored.stats() == idx.stats()


class TestFileIO:
    def test_save_load_path(self, tmp_path):
        idx = populate(make_index())
        path = tmp_path / "index.ckpt"
        with open(path, "wb") as fp:
            checkpoint.save(idx, fp)
        with open(path, "rb") as fp:
            restored = checkpoint.load(fp)
        assert restored.stats() == idx.stats()


class TestErrors:
    def test_dirty_memory_rejected(self):
        idx = make_index()
        idx.add_document([1])
        with pytest.raises(CheckpointError, match="empty in-memory batch"):
            checkpoint.save(idx, io.BytesIO())

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError, match="not a dual-structure"):
            checkpoint.load(io.BytesIO(b"NOPE" + b"\x01"))

    def test_truncated_rejected(self):
        idx = populate(make_index(), batches=2)
        buf = io.BytesIO()
        checkpoint.save(idx, buf)
        truncated = io.BytesIO(buf.getvalue()[: len(buf.getvalue()) // 2])
        with pytest.raises(CheckpointError):
            checkpoint.load(truncated)

    def test_buddy_allocator_rejected(self):
        idx = make_index(allocator="buddy", nblocks_override=65_536)
        idx.add_document([1])
        idx.flush_batch()
        with pytest.raises(CheckpointError, match="buddy"):
            checkpoint.save(idx, io.BytesIO())
