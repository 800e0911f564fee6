"""Multi-disk manager with the paper's round-robin assignment policy.

Paper Section 3, second issue: when a new word or a new chunk is allocated,
the disk chosen is ``i + 1 mod n`` where ``i`` was the last disk chosen.
(The paper explicitly declines to study most-empty / fewest-chunks
strategies; we implement round-robin as the default and keep the selection
pluggable for completeness.)

If the round-robin disk cannot satisfy a request, we probe the remaining
disks in order before declaring the array full.  The paper does not specify
overflow behaviour — its experiments either fit or were reported as
infeasible (the ``fill 0`` policy) — so probing is the conservative choice
that lets us reproduce both outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .block import Chunk
from .disk import DiskFullError, SimulatedDisk
from .profiles import DiskProfile


@dataclass(frozen=True)
class DiskArrayConfig:
    """Configuration of the simulated disk array.

    ``nblocks_override`` replaces the profile capacity; the counting stages
    of the pipeline use a large virtual capacity (the paper's ComputeDisks
    generated traces even for policies that later failed to fit real disks).
    """

    ndisks: int = 4
    profile: DiskProfile | None = None
    allocator: str = "first-fit"
    store_contents: bool = False
    nblocks_override: int | None = None

    def __post_init__(self) -> None:
        if self.ndisks <= 0:
            raise ValueError("ndisks must be > 0")
        if self.nblocks_override is not None and self.nblocks_override <= 0:
            raise ValueError("nblocks_override must be > 0")


class DiskArray:
    """A bank of :class:`SimulatedDisk` with round-robin chunk placement."""

    def __init__(self, config: DiskArrayConfig) -> None:
        from .profiles import SEAGATE_SCSI_1994

        profile = config.profile or SEAGATE_SCSI_1994
        if config.nblocks_override is not None:
            profile = profile.with_capacity(config.nblocks_override)
        self.config = config
        self.profile = profile
        self.disks = [
            SimulatedDisk(
                profile,
                allocator=config.allocator,
                store_contents=config.store_contents,
            )
            for _ in range(config.ndisks)
        ]
        self._next_disk = 0

    @property
    def ndisks(self) -> int:
        return len(self.disks)

    def next_disk(self) -> int:
        """Advance the round-robin pointer and return the chosen disk."""
        disk = self._next_disk
        self._next_disk = (self._next_disk + 1) % self.ndisks
        return disk

    def allocate_chunk(self, nblocks: int) -> Chunk:
        """Allocate ``nblocks`` contiguous blocks on the round-robin disk.

        Falls back to probing the other disks in order; raises
        :class:`DiskFullError` when no disk has a large enough free run.
        The returned chunk has ``npostings == 0``; the caller fills it.
        """
        first = self.next_disk()
        for offset in range(self.ndisks):
            disk_id = (first + offset) % self.ndisks
            start = self.disks[disk_id].allocate(nblocks)
            if start is not None:
                return Chunk(disk=disk_id, start=start, nblocks=nblocks)
        raise DiskFullError(
            f"no disk can supply {nblocks} contiguous blocks "
            f"(free: {[d.free_blocks for d in self.disks]})"
        )

    def allocate_on(self, disk_id: int, nblocks: int) -> Chunk | None:
        """Allocate on a specific disk (bucket/directory flushes stripe
        explicitly); returns None when it does not fit there."""
        start = self.disks[disk_id].allocate(nblocks)
        if start is None:
            return None
        return Chunk(disk=disk_id, start=start, nblocks=nblocks)

    def free_chunk(self, chunk: Chunk) -> None:
        """Return a chunk's blocks to free space."""
        self.disks[chunk.disk].free(chunk.start, chunk.nblocks)

    # -- statistics --------------------------------------------------------

    @property
    def total_blocks(self) -> int:
        return sum(d.profile.nblocks for d in self.disks)

    @property
    def allocated_blocks(self) -> int:
        return sum(d.allocated_blocks for d in self.disks)

    def utilization(self) -> float:
        """Fraction of array capacity currently allocated."""
        return self.allocated_blocks / self.total_blocks

    def per_disk_allocated(self) -> list[int]:
        return [d.allocated_blocks for d in self.disks]
