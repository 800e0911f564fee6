"""Unit tests for batch-boundary shadow flushes."""

import pytest

from repro.core.directory import Directory
from repro.core.flush import FlushManager
from repro.storage.block import Chunk
from repro.storage.diskarray import DiskArray, DiskArrayConfig
from repro.storage.disk import DiskFullError
from repro.storage.iotrace import IOTrace, OpKind, Target
from repro.storage.profiles import SEAGATE_SCSI_1994


def make_flusher(ndisks=4, nblocks=10_000):
    array = DiskArray(
        DiskArrayConfig(
            ndisks=ndisks,
            profile=SEAGATE_SCSI_1994,
            nblocks_override=nblocks,
        )
    )
    trace = IOTrace()
    return FlushManager(array, block_postings=64, trace=trace), array, trace


class TestFlush:
    def test_buckets_striped_across_all_disks(self):
        flusher, array, trace = make_flusher(ndisks=4)
        flusher.flush(256, Directory())
        bucket_ops = [
            op for op in trace.ops() if op.target is Target.BUCKET
        ]
        assert len(bucket_ops) == 4
        assert {op.disk for op in bucket_ops} == {0, 1, 2, 3}
        assert all(op.nblocks == 64 for op in bucket_ops)
        assert all(op.kind is OpKind.WRITE for op in bucket_ops)

    def test_directory_written_once(self):
        flusher, _, trace = make_flusher()
        flusher.flush(256, Directory())
        dir_ops = [op for op in trace.ops() if op.target is Target.DIRECTORY]
        assert len(dir_ops) == 1

    def test_directory_size_tracks_chunks(self):
        flusher, _, trace = make_flusher()
        directory = Directory()
        entry = directory.entry(1)
        for i in range(600):  # 600 chunks × 16 B → 3 blocks
            entry.chunks.append(Chunk(disk=0, start=i, nblocks=1, npostings=1))
        flusher.flush(64, directory)
        (dir_op,) = [op for op in trace.ops() if op.target is Target.DIRECTORY]
        assert dir_op.nblocks == 3

    def test_shadow_semantics_allocate_before_free(self):
        flusher, array, _ = make_flusher()
        flusher.flush(256, Directory())
        first_regions = [
            (c.disk, c.start) for c in flusher._bucket_regions
        ]
        resident_after_first = array.allocated_blocks
        flusher.flush(256, Directory())
        second_regions = [
            (c.disk, c.start) for c in flusher._bucket_regions
        ]
        # New regions differ from the old (old freed only after write).
        assert first_regions != second_regions
        # Steady state: same residency, not doubled.
        assert array.allocated_blocks == resident_after_first

    def test_counters(self):
        flusher, _, _ = make_flusher()
        flusher.flush(256, Directory())
        flusher.flush(256, Directory())
        assert flusher.counters.flushes == 2
        assert flusher.counters.bucket_writes == 8
        assert flusher.counters.directory_writes == 2

    def test_failed_stripe_rolls_back(self):
        flusher, array, _ = make_flusher(ndisks=2, nblocks=100)
        with pytest.raises(DiskFullError):
            flusher.flush(100_000, Directory())
        assert array.allocated_blocks == 0

    def test_failed_stripe_frees_the_stripes_it_took(self):
        """Disk 0 takes its stripe, disk 1 and the fallback cannot: the
        flush raises and gives disk 0's stripe back."""
        flusher, array, _ = make_flusher(ndisks=2, nblocks=100)
        array.allocate_on(0, 30)
        array.allocate_on(1, 60)
        with pytest.raises(DiskFullError):
            flusher.flush(100, Directory())
        assert array.allocated_blocks == 90
