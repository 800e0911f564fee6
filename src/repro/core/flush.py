"""Batch-boundary flushes of the buckets and the directory.

Paper Section 3: "Periodically, the buckets and the directory are written to
disk.  At this time, the disk blocks for the previous buckets and directory
are returned to free space for the disks."  And Section 4.3: "At the end of
each batch update, all buckets are flushed to disk."

We implement this as **shadow flushes**: each flush allocates fresh regions,
writes them, and only then frees the previous regions.  An aborted
incremental update therefore leaves the prior flush intact on disk — the
restartability property the paper claims for its data structures (§1).

Layout: the bucket region is striped evenly across all disks (Figure 6's
trace opens with one large bucket write per disk); the directory goes to a
single round-robin-chosen disk.  Bucket writes are huge and contiguous, so
after coalescing they run at the data rate — the paper's observation that
bucket flushes are bandwidth-bound while long-list updates are seek-bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..storage import faults
from ..storage.block import Chunk
from ..storage.diskarray import DiskArray
from ..storage.disk import DiskFullError
from ..storage.iotrace import IOTrace, OpKind, Target, TraceOp
from .directory import Directory

CP_BEGIN = faults.register_crash_point(
    "flush.begin", "entry of FlushManager.flush, nothing allocated yet"
)
CP_AFTER_BUCKET_WRITES = faults.register_crash_point(
    "flush.after-bucket-writes",
    "new bucket regions allocated and written; directory not yet",
)
CP_AFTER_DIRECTORY_WRITE = faults.register_crash_point(
    "flush.after-directory-write",
    "new regions fully written; previous regions not yet freed",
)
CP_MID_FREE = faults.register_crash_point(
    "flush.mid-free",
    "previous bucket regions freed; previous directory region not yet",
)


@dataclass
class FlushCounters:
    """Cumulative flush activity."""

    flushes: int = 0
    bucket_writes: int = 0
    bucket_blocks: int = 0
    directory_writes: int = 0
    directory_blocks: int = 0


class FlushManager:
    """Shadow-writes the bucket region and directory at batch boundaries."""

    #: Delta-journal hook (attached by ``DualStructureIndex`` in content
    #: mode).  Region blocks carry no stored contents, but noting their
    #: turnover keeps the journal a self-contained record of every block
    #: whose allocation state changed between publishes.
    journal = None

    def __init__(
        self,
        array: DiskArray,
        block_postings: int,
        trace: IOTrace | None = None,
        directory_entry_bytes: int = 16,
    ) -> None:
        self.array = array
        self.block_postings = block_postings
        self.trace = trace
        self.directory_entry_bytes = directory_entry_bytes
        self.counters = FlushCounters()
        self._bucket_regions: list[Chunk] = []
        self._directory_region: Chunk | None = None

    def _record(self, target: Target, chunk: Chunk) -> None:
        if self.trace is not None:
            self.trace.append(
                TraceOp(
                    kind=OpKind.WRITE,
                    target=target,
                    disk=chunk.disk,
                    start=chunk.start,
                    nblocks=chunk.nblocks,
                )
            )

    def _allocate_striped(self, total_blocks: int) -> list[Chunk]:
        """Allocate ``total_blocks`` split evenly across the disks."""
        ndisks = self.array.ndisks
        per_disk = -(-total_blocks // ndisks)
        chunks: list[Chunk] = []
        for disk_id in range(ndisks):
            chunk = self.array.allocate_on(disk_id, per_disk)
            if chunk is None:
                # Fall back to any disk with room rather than failing the
                # whole flush; the stripe is a layout preference, not a
                # correctness requirement.
                try:
                    chunk = self.array.allocate_chunk(per_disk)
                except DiskFullError:
                    for c in chunks:
                        self.array.free_chunk(c)
                    raise
            chunks.append(chunk)
        return chunks

    def flush(self, bucket_blocks: int, directory: Directory) -> None:
        """Write the bucket region (``bucket_blocks`` blocks, striped) and
        the directory to fresh regions; free the old ones."""
        faults.crash_point(CP_BEGIN)
        new_bucket_regions = self._allocate_striped(bucket_blocks)
        for chunk in new_bucket_regions:
            if self.journal is not None:
                self.journal.note_blocks(
                    chunk.disk, chunk.start, chunk.nblocks
                )
            self._record(Target.BUCKET, chunk)
            self.counters.bucket_writes += 1
            self.counters.bucket_blocks += chunk.nblocks
        faults.crash_point(CP_AFTER_BUCKET_WRITES)

        dir_blocks = directory.flush_blocks(
            self.array.profile.block_size, self.directory_entry_bytes
        )
        new_directory_region = self.array.allocate_chunk(dir_blocks)
        if self.journal is not None:
            self.journal.note_blocks(
                new_directory_region.disk,
                new_directory_region.start,
                new_directory_region.nblocks,
            )
        self._record(Target.DIRECTORY, new_directory_region)
        self.counters.directory_writes += 1
        self.counters.directory_blocks += dir_blocks

        # Shadow rule: free the previous regions only after the new ones
        # are written.
        faults.crash_point(CP_AFTER_DIRECTORY_WRITE)
        for chunk in self._bucket_regions:
            self.array.free_chunk(chunk)
        faults.crash_point(CP_MID_FREE)
        if self._directory_region is not None:
            self.array.free_chunk(self._directory_region)
        self._bucket_regions = new_bucket_regions
        self._directory_region = new_directory_region
        self.counters.flushes += 1
