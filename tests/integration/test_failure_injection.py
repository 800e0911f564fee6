"""Failure injection: disk exhaustion must not corrupt recoverable state.

The paper assumes reliable hardware but requires that an aborted
incremental update can be restarted from the last flush (§1).  These tests
drive an index into a genuine out-of-space failure mid-batch and verify
that (a) the failure surfaces as DiskFullError rather than silent
corruption, and (b) a checkpoint taken at the previous batch boundary
still restores a fully functional index — the recovery path a deployment
would take.
"""

import io

import pytest

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.storage.disk import DiskFullError

from .. import checkpoints


def tiny_disk_index(nblocks=96):
    """An index on nearly-full disks (tiny override capacity)."""
    return DualStructureIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=64,
            block_postings=8,
            ndisks=2,
            nblocks_override=nblocks,
            policy=Policy(style=Style.NEW, limit=Limit.ZERO),
        )
    )


def fill_until_failure(index, snapshot_every=1):
    """Feed batches until the disks overflow; returns the last good
    checkpoint and how many batches committed."""
    last_checkpoint = io.BytesIO()
    checkpoints.save(index, last_checkpoint)
    committed = 0
    doc = 0
    for batch in range(1000):
        for _ in range(4):
            index.add_document([1, 2 + doc % 6], doc_id=doc)
            doc += 1
        try:
            index.flush_batch()
        except DiskFullError:
            return last_checkpoint, committed
        committed += 1
        if committed % snapshot_every == 0:
            last_checkpoint = io.BytesIO()
            checkpoints.save(index, last_checkpoint)
    raise AssertionError("disks never filled up")


class TestDiskExhaustion:
    def test_failure_is_loud(self):
        index = tiny_disk_index()
        with pytest.raises(AssertionError):
            # guard: ensure the helper itself works on a roomy disk
            fill_until_failure(tiny_disk_index(nblocks=100_000))
        # and actually fails loudly on the tiny one
        ckpt, committed = fill_until_failure(index)
        assert committed >= 1

    def test_recovery_from_last_checkpoint(self):
        index = tiny_disk_index()
        ckpt, committed = fill_until_failure(index)
        ckpt.seek(0)
        restored = checkpoints.load(ckpt)
        # The restored index serves all committed batches.
        assert restored.stats().batches == committed
        docs, _ = restored.fetch(1)
        assert len(docs.doc_ids) == committed * 4
        # Internal invariants hold after restore.
        for disk in restored.array.disks:
            disk.freelist.check_invariants()
        for word in restored.directory.words():
            assert not restored.buckets.contains(word)

    def test_restored_index_accepts_more_work_after_cleanup(self):
        """After recovery an operator can continue on bigger disks by
        checkpointing state and reloading (capacity is config-bound);
        here we just verify the restored index still flushes batches."""
        index = tiny_disk_index(nblocks=256)
        ckpt, committed = fill_until_failure(index)
        ckpt.seek(0)
        restored = checkpoints.load(ckpt)
        next_doc = restored.ndocs
        restored.add_document([1], doc_id=next_doc)
        restored.flush_batch()  # at least one more batch fits post-restore
        assert restored.stats().batches == committed + 1


class TestAllocatorConsistencyAfterFailure:
    def test_free_list_consistent_after_failed_flush(self):
        """A flush that dies mid-stripe rolls its allocations back."""
        from repro.core.directory import Directory
        from repro.core.flush import FlushManager
        from repro.storage.diskarray import DiskArray, DiskArrayConfig
        from repro.storage.profiles import SEAGATE_SCSI_1994

        array = DiskArray(
            DiskArrayConfig(
                ndisks=2,
                profile=SEAGATE_SCSI_1994,
                nblocks_override=64,
            )
        )
        flusher = FlushManager(array, block_postings=8)
        flusher.flush(16, Directory())
        allocated = array.allocated_blocks
        with pytest.raises(DiskFullError):
            flusher.flush(100_000, Directory())
        assert array.allocated_blocks == allocated
        for disk in array.disks:
            disk.freelist.check_invariants()
