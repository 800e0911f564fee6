"""Free-space management for a single simulated disk.

The paper (Section 3, fourth issue) allocates chunks with a **first-fit**
scan of the free list from the beginning of the disk, and explicitly names
best-fit and buddy systems as alternatives it does not evaluate ("to keep
the space of possible solutions manageable"); the related-work section notes
that Cutting and Pedersen used a buddy system.  We implement first-fit as
the default and provide best-fit and a binary buddy allocator for the
ablation benchmark (``bench_ext_allocator``).

All allocators expose the same interface:

``allocate(nblocks) -> start | None``
    Return the start block of a free run of at least ``nblocks`` blocks and
    mark exactly ``nblocks`` of it allocated, or ``None`` when no run fits.

``free(start, nblocks)``
    Return a previously allocated run to free space.

``free_blocks`` / ``largest_free_run``
    Inspection helpers used by utilization metrics and tests.
"""

from __future__ import annotations

import bisect
from typing import Iterator


class FreeListError(Exception):
    """Raised on inconsistent free/allocate requests (double free, overlap)."""


class FirstFitFreeList:
    """First-fit free list over ``nblocks`` blocks.

    Free space is a sorted list of disjoint, non-adjacent ``(start, length)``
    intervals.  ``allocate`` scans from the beginning of the disk — the exact
    strategy the paper uses — and carves the request from the *front* of the
    first interval that fits.  ``free`` merges the returned run with its
    neighbours so the interval invariants always hold.
    """

    strategy = "first-fit"

    def __init__(self, nblocks: int) -> None:
        if nblocks <= 0:
            raise ValueError(f"nblocks must be > 0, got {nblocks}")
        self.nblocks = nblocks
        # Parallel arrays sorted by start; kept disjoint and non-adjacent.
        self._starts: list[int] = [0]
        self._lengths: list[int] = [nblocks]

    # -- allocation ------------------------------------------------------

    def _pick_interval(self, nblocks: int) -> int | None:
        """Index of the interval to allocate from, or None."""
        for i, length in enumerate(self._lengths):
            if length >= nblocks:
                return i
        return None

    def allocate(self, nblocks: int) -> int | None:
        """Allocate ``nblocks`` contiguous blocks; return start or None."""
        if nblocks <= 0:
            raise ValueError(f"nblocks must be > 0, got {nblocks}")
        i = self._pick_interval(nblocks)
        if i is None:
            return None
        start = self._starts[i]
        if self._lengths[i] == nblocks:
            del self._starts[i]
            del self._lengths[i]
        else:
            self._starts[i] += nblocks
            self._lengths[i] -= nblocks
        return start

    def free(self, start: int, nblocks: int) -> None:
        """Return ``[start, start+nblocks)`` to free space, merging runs."""
        if nblocks <= 0:
            raise ValueError(f"nblocks must be > 0, got {nblocks}")
        if start < 0 or start + nblocks > self.nblocks:
            raise FreeListError(
                f"free of [{start}, {start + nblocks}) outside disk of "
                f"{self.nblocks} blocks"
            )
        i = bisect.bisect_left(self._starts, start)
        # Overlap checks against neighbours on either side.
        if i < len(self._starts) and start + nblocks > self._starts[i]:
            raise FreeListError(
                f"double free: [{start}, {start + nblocks}) overlaps free run "
                f"at {self._starts[i]}"
            )
        if i > 0 and self._starts[i - 1] + self._lengths[i - 1] > start:
            raise FreeListError(
                f"double free: [{start}, {start + nblocks}) overlaps free run "
                f"at {self._starts[i - 1]}"
            )
        merge_prev = i > 0 and self._starts[i - 1] + self._lengths[i - 1] == start
        merge_next = i < len(self._starts) and start + nblocks == self._starts[i]
        if merge_prev and merge_next:
            self._lengths[i - 1] += nblocks + self._lengths[i]
            del self._starts[i]
            del self._lengths[i]
        elif merge_prev:
            self._lengths[i - 1] += nblocks
        elif merge_next:
            self._starts[i] = start
            self._lengths[i] += nblocks
        else:
            self._starts.insert(i, start)
            self._lengths.insert(i, nblocks)

    # -- inspection ------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Total free blocks on the disk."""
        return sum(self._lengths)

    @property
    def allocated_blocks(self) -> int:
        """Total allocated blocks on the disk."""
        return self.nblocks - self.free_blocks

    @property
    def largest_free_run(self) -> int:
        """Length of the largest contiguous free run (0 when full)."""
        return max(self._lengths, default=0)

    def intervals(self) -> Iterator[tuple[int, int]]:
        """Yield ``(start, length)`` free intervals in address order."""
        yield from zip(self._starts, self._lengths)

    def check_invariants(self) -> None:
        """Assert the interval invariants; used by property tests."""
        prev_end = -1
        for start, length in self.intervals():
            if length <= 0:
                raise AssertionError("empty interval on free list")
            if start <= prev_end:
                raise AssertionError("intervals overlap or touch")
            if start + length > self.nblocks:
                raise AssertionError("interval extends past end of disk")
            prev_end = start + length


class BestFitFreeList(FirstFitFreeList):
    """Best-fit variant: allocate from the smallest run that fits.

    Ties break toward the lowest address, matching the deterministic
    behaviour tests expect.
    """

    strategy = "best-fit"

    def _pick_interval(self, nblocks: int) -> int | None:
        best = None
        best_len = None
        for i, length in enumerate(self._lengths):
            if length >= nblocks and (best_len is None or length < best_len):
                best, best_len = i, length
        return best


class BuddyFreeList:
    """Binary buddy allocator (the Cutting–Pedersen related-work scheme).

    Requests are rounded up to the next power of two and satisfied by
    recursively splitting larger free blocks; frees coalesce with the
    buddy block when it is also free.  Space utilization is worse than the
    fit allocators (internal rounding waste) but allocate/free are O(log n)
    and fragmentation is bounded — the trade-off the paper's related-work
    section flags as worth studying.
    """

    strategy = "buddy"

    def __init__(self, nblocks: int) -> None:
        if nblocks <= 0:
            raise ValueError(f"nblocks must be > 0, got {nblocks}")
        self.nblocks = nblocks
        # Capacity is the largest power of two <= nblocks; the remainder is
        # permanently unavailable (documented buddy-system cost).
        self._order_max = nblocks.bit_length() - 1
        if (1 << self._order_max) > nblocks:
            self._order_max -= 1
        self.capacity = 1 << self._order_max
        # free lists per order: order k holds blocks of 2**k blocks
        self._free: list[set[int]] = [set() for _ in range(self._order_max + 1)]
        self._free[self._order_max].add(0)
        self._allocated: dict[int, int] = {}  # start -> order

    @staticmethod
    def _order_for(nblocks: int) -> int:
        return max(0, (nblocks - 1).bit_length())

    def allocate(self, nblocks: int) -> int | None:
        if nblocks <= 0:
            raise ValueError(f"nblocks must be > 0, got {nblocks}")
        order = self._order_for(nblocks)
        if order > self._order_max:
            return None
        # Find the smallest order >= request with a free block.
        k = order
        while k <= self._order_max and not self._free[k]:
            k += 1
        if k > self._order_max:
            return None
        start = min(self._free[k])
        self._free[k].remove(start)
        # Split down to the requested order.
        while k > order:
            k -= 1
            buddy = start + (1 << k)
            self._free[k].add(buddy)
        self._allocated[start] = order
        return start

    def free(self, start: int, nblocks: int) -> None:
        order = self._allocated.pop(start, None)
        if order is None:
            raise FreeListError(f"free of unallocated block at {start}")
        expected = self._order_for(nblocks)
        if expected != order:
            raise FreeListError(
                f"free size mismatch at {start}: allocated order {order}, "
                f"freed order {expected}"
            )
        # Coalesce with buddies while possible.
        while order < self._order_max:
            buddy = start ^ (1 << order)
            if buddy not in self._free[order]:
                break
            self._free[order].remove(buddy)
            start = min(start, buddy)
            order += 1
        self._free[order].add(start)

    @property
    def free_blocks(self) -> int:
        return sum(len(s) << k for k, s in enumerate(self._free))

    @property
    def allocated_blocks(self) -> int:
        return self.capacity - self.free_blocks

    @property
    def largest_free_run(self) -> int:
        for k in range(self._order_max, -1, -1):
            if self._free[k]:
                return 1 << k
        return 0

    def check_invariants(self) -> None:
        seen: set[int] = set()
        for k, starts in enumerate(self._free):
            for start in starts:
                for b in range(start, start + (1 << k)):
                    if b in seen:
                        raise AssertionError("overlapping buddy free blocks")
                    seen.add(b)


ALLOCATORS = {
    "first-fit": FirstFitFreeList,
    "best-fit": BestFitFreeList,
    "buddy": BuddyFreeList,
}


def make_freelist(strategy: str, nblocks: int):
    """Construct a free list by strategy name (``first-fit`` default)."""
    try:
        cls = ALLOCATORS[strategy]
    except KeyError:
        raise ValueError(
            f"unknown allocator {strategy!r}; choose from {sorted(ALLOCATORS)}"
        ) from None
    return cls(nblocks)
