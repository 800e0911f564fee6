"""A single simulated disk: space accounting, timing, optional contents.

The paper's "exercise disks" process issues read/write system calls to raw
disk partitions and measures elapsed time.  :class:`SimulatedDisk` stands in
for one raw partition:

* **Space** is managed by a free list (first-fit by default, per the paper).
* **Time** is modelled per request as ``seek + rotational latency +
  transfer``, with the crucial refinement that a request starting exactly
  where the head stopped streams sequentially: no seek, no rotational
  latency.  This is what makes append-only policies (``new`` style with
  ``Limit = 0``) dramatically faster in wall time than in operation counts —
  the paper's central Figure 13 observation.
* **Contents** are optionally stored per block, so the retrieval-facing
  index can read real postings back; the evaluation pipeline runs with
  contents disabled, exactly as the paper's pipeline tracked only sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .freelist import make_freelist
from .profiles import DiskProfile


class DiskFullError(Exception):
    """Raised when an allocation cannot be satisfied on any disk."""


@dataclass
class DiskCounters:
    """Cumulative activity counters for one disk."""

    reads: int = 0
    writes: int = 0
    blocks_read: int = 0
    blocks_written: int = 0
    busy_s: float = 0.0
    seeks: int = 0
    sequential_hits: int = 0


class SimulatedDisk:
    """One disk: allocator + head-position timing model + optional payloads.

    Parameters
    ----------
    profile:
        Performance/capacity parameters.
    allocator:
        Free-list strategy name (``first-fit``, ``best-fit``, ``buddy``).
    store_contents:
        When True, ``write``/``read`` carry per-block payload bytes so the
        content-mode index can retrieve postings.
    """

    #: Delta-journal hooks, attached by ``DualStructureIndex`` in content
    #: mode; ``frozen`` is set by ``invariants.freeze_index`` on published
    #: snapshots so any write through shared state raises immediately.
    journal = None
    journal_disk = 0
    frozen = False

    def __init__(
        self,
        profile: DiskProfile,
        allocator: str = "first-fit",
        store_contents: bool = False,
    ) -> None:
        self.profile = profile
        self.freelist = make_freelist(allocator, profile.nblocks)
        self.store_contents = store_contents
        self.head = 0
        self.counters = DiskCounters()
        self._blocks: dict[int, bytes] = {}

    def _frozen_violation(self, action: str):
        from ..core.delta import FrozenStateError

        return FrozenStateError(
            f"attempt to {action} on a frozen (published) disk "
            f"{self.profile.name}"
        )

    # -- space -----------------------------------------------------------

    def allocate(self, nblocks: int) -> int | None:
        """Allocate a contiguous chunk; return start block or None."""
        if self.frozen:
            raise self._frozen_violation("allocate blocks")
        return self.freelist.allocate(nblocks)

    def free(self, start: int, nblocks: int) -> None:
        """Return a chunk to free space and drop any stored contents."""
        if self.frozen:
            raise self._frozen_violation("free blocks")
        self.freelist.free(start, nblocks)
        if self.store_contents:
            if self.journal is not None:
                self.journal.note_blocks(self.journal_disk, start, nblocks)
            for b in range(start, start + nblocks):
                self._blocks.pop(b, None)

    @property
    def free_blocks(self) -> int:
        return self.freelist.free_blocks

    @property
    def allocated_blocks(self) -> int:
        return self.freelist.allocated_blocks

    # -- timing ----------------------------------------------------------

    def service(self, start: int, nblocks: int, is_write: bool) -> float:
        """Service one coalesced request; return elapsed seconds.

        A request that begins at the current head position continues a
        sequential stream: it pays transfer time only.  Any other request
        pays a distance-dependent seek plus average rotational latency.
        The head is left one past the last block transferred.
        """
        if start < 0 or start + nblocks > self.profile.nblocks:
            raise DiskFullError(
                f"request [{start}, {start + nblocks}) outside disk "
                f"{self.profile.name} of {self.profile.nblocks} blocks"
            )
        distance = abs(start - self.head)
        if distance == 0:
            elapsed = 0.0
            self.counters.sequential_hits += 1
        else:
            elapsed = (
                self.profile.seek_s(distance) + self.profile.rotational_latency_s
            )
            self.counters.seeks += 1
        elapsed += self.profile.transfer_s(nblocks, is_write)
        self.head = start + nblocks
        self.counters.busy_s += elapsed
        if is_write:
            self.counters.writes += 1
            self.counters.blocks_written += nblocks
        else:
            self.counters.reads += 1
            self.counters.blocks_read += nblocks
        return elapsed

    # -- contents --------------------------------------------------------

    def write_blocks(self, start: int, payloads: list[bytes]) -> None:
        """Store per-block payload bytes starting at ``start``.

        Only meaningful with ``store_contents``; each payload must fit in a
        block.
        """
        if not self.store_contents:
            return
        if self.frozen:
            raise self._frozen_violation("write blocks")
        if self.journal is not None:
            self.journal.note_blocks(self.journal_disk, start, len(payloads))
        for i, payload in enumerate(payloads):
            if len(payload) > self.profile.block_size:
                raise ValueError(
                    f"payload of {len(payload)} bytes exceeds block size "
                    f"{self.profile.block_size}"
                )
            self._blocks[start + i] = payload

    def read_blocks(self, start: int, nblocks: int) -> list[bytes]:
        """Read back per-block payloads (empty bytes for unwritten blocks)."""
        if not self.store_contents:
            raise RuntimeError("disk does not store contents")
        return [self._blocks.get(b, b"") for b in range(start, start + nblocks)]
