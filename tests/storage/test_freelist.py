"""Unit tests for the free-space allocators."""

import pytest

from repro.storage.freelist import (
    BestFitFreeList,
    BuddyFreeList,
    FirstFitFreeList,
    FreeListError,
    make_freelist,
)


class TestFirstFit:
    def test_fresh_disk_is_fully_free(self):
        fl = FirstFitFreeList(100)
        assert fl.free_blocks == 100
        assert fl.allocated_blocks == 0
        assert fl.largest_free_run == 100

    def test_allocates_from_front(self):
        fl = FirstFitFreeList(100)
        assert fl.allocate(10) == 0
        assert fl.allocate(10) == 10
        assert fl.free_blocks == 80

    def test_first_fit_skips_small_holes(self):
        fl = FirstFitFreeList(100)
        a = fl.allocate(10)  # [0,10)
        b = fl.allocate(10)  # [10,20)
        fl.allocate(10)  # [20,30)
        fl.free(a, 10)
        fl.free(b, 10)  # merged hole [0,20)
        # A request of 30 does not fit the hole; goes after 30.
        assert fl.allocate(30) == 30
        # A request of 20 fits the hole exactly.
        assert fl.allocate(20) == 0

    def test_exhaustion_returns_none(self):
        fl = FirstFitFreeList(10)
        assert fl.allocate(10) == 0
        assert fl.allocate(1) is None

    def test_free_merges_neighbours(self):
        fl = FirstFitFreeList(30)
        a = fl.allocate(10)
        b = fl.allocate(10)
        c = fl.allocate(10)
        fl.free(a, 10)
        fl.free(c, 10)
        fl.free(b, 10)
        assert fl.largest_free_run == 30
        assert len(list(fl.intervals())) == 1

    def test_double_free_detected(self):
        fl = FirstFitFreeList(30)
        a = fl.allocate(10)
        fl.free(a, 10)
        with pytest.raises(FreeListError):
            fl.free(a, 10)

    def test_partial_overlap_free_detected(self):
        fl = FirstFitFreeList(30)
        fl.allocate(10)
        fl.free(0, 5)
        with pytest.raises(FreeListError):
            fl.free(4, 4)

    def test_free_outside_disk_detected(self):
        fl = FirstFitFreeList(30)
        with pytest.raises(FreeListError):
            fl.free(25, 10)

    def test_invalid_requests(self):
        fl = FirstFitFreeList(10)
        with pytest.raises(ValueError):
            fl.allocate(0)
        with pytest.raises(ValueError):
            fl.free(0, 0)
        with pytest.raises(ValueError):
            FirstFitFreeList(0)


class TestBestFit:
    def test_prefers_smallest_fitting_hole(self):
        fl = BestFitFreeList(100)
        blocks = [fl.allocate(10) for _ in range(5)]  # [0..50)
        fl.free(blocks[1], 10)  # hole of 10 at 10
        fl.free(blocks[3], 10)  # hole of 10 at 30
        # remaining free: holes at 10, 30 plus tail [50,100).
        assert fl.allocate(5) == 10  # smallest hole wins over tail
        assert fl.allocate(10) == 30  # exact fit

    def test_falls_back_to_larger_hole(self):
        fl = BestFitFreeList(40)
        a = fl.allocate(10)
        fl.allocate(10)
        fl.free(a, 10)
        assert fl.allocate(15) == 20  # tail [20,40) is the only fit


class TestBuddy:
    def test_rounds_to_power_of_two(self):
        fl = BuddyFreeList(64)
        start = fl.allocate(3)  # rounds to 4
        assert start == 0
        assert fl.allocated_blocks == 4

    def test_buddy_coalescing(self):
        fl = BuddyFreeList(16)
        a = fl.allocate(4)
        b = fl.allocate(4)
        fl.free(a, 4)
        fl.free(b, 4)
        assert fl.largest_free_run == 16

    def test_capacity_truncated_to_power_of_two(self):
        fl = BuddyFreeList(100)
        assert fl.capacity == 64

    def test_oversized_request_returns_none(self):
        fl = BuddyFreeList(16)
        assert fl.allocate(32) is None

    def test_free_of_unallocated_detected(self):
        fl = BuddyFreeList(16)
        with pytest.raises(FreeListError):
            fl.free(0, 4)

    def test_free_size_mismatch_detected(self):
        fl = BuddyFreeList(16)
        a = fl.allocate(4)
        with pytest.raises(FreeListError):
            fl.free(a, 8)

    def test_split_and_exhaust(self):
        fl = BuddyFreeList(8)
        starts = {fl.allocate(2) for _ in range(4)}
        assert starts == {0, 2, 4, 6}
        assert fl.allocate(1) is None


class TestFactory:
    def test_known_strategies(self):
        assert isinstance(make_freelist("first-fit", 10), FirstFitFreeList)
        assert isinstance(make_freelist("best-fit", 10), BestFitFreeList)
        assert isinstance(make_freelist("buddy", 16), BuddyFreeList)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown allocator"):
            make_freelist("next-fit", 10)
