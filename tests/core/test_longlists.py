"""Unit tests for the Figure-2 long-list update algorithm.

These tests pin the exact operation accounting the paper's evaluation is
built on: what UPDATE, READ, WRITE and WRITE_RESERVED cost, when in-place
updates fire, and how each style lays chunks out.
"""

import pytest

from repro.core.longlists import LongListManager
from repro.core.policy import Alloc, Limit, Policy, Style
from repro.core.postings import CountPostings, DocPostings
from repro.storage.diskarray import DiskArray, DiskArrayConfig
from repro.storage.iotrace import IOTrace, OpKind, Target
from repro.storage.profiles import SEAGATE_SCSI_1994

BP = 64  # postings per block


def make_manager(policy, ndisks=2, nblocks=100_000, store_contents=False):
    array = DiskArray(
        DiskArrayConfig(
            ndisks=ndisks,
            profile=SEAGATE_SCSI_1994,
            nblocks_override=nblocks,
            store_contents=store_contents,
        )
    )
    trace = IOTrace()
    return LongListManager(policy, array, BP, trace=trace)


class TestNewStyle:
    def test_first_append_creates_one_chunk(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        mgr.append(1, CountPostings(10))
        entry = mgr.directory.get(1)
        assert entry.nchunks == 1
        assert entry.npostings == 10
        assert mgr.counters.writes == 1
        assert mgr.counters.reads == 0

    def test_limit_zero_always_new_chunk(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        for _ in range(5):
            mgr.append(1, CountPostings(10))
        entry = mgr.directory.get(1)
        assert entry.nchunks == 5
        assert mgr.counters.in_place_updates == 0
        assert mgr.counters.io_ops == 5  # one write each, never a read

    def test_limit_z_fills_block_slack(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.Z))
        mgr.append(1, CountPostings(10))  # chunk of 1 block, slack 54
        mgr.append(1, CountPostings(20))  # fits slack → in-place
        entry = mgr.directory.get(1)
        assert entry.nchunks == 1
        assert entry.npostings == 30
        assert mgr.counters.in_place_updates == 1
        # in-place = 1 read (tail block) + 1 write
        assert mgr.counters.reads == 1
        assert mgr.counters.writes == 2

    def test_limit_z_overflow_opens_new_chunk(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.Z))
        mgr.append(1, CountPostings(60))  # slack 4
        mgr.append(1, CountPostings(10))  # does not fit → new chunk
        entry = mgr.directory.get(1)
        assert entry.nchunks == 2
        assert mgr.counters.in_place_updates == 0

    def test_in_memory_list_never_split_for_in_place(self):
        # Slack 4; an update of 5 postings must NOT put 4 in the slack
        # and 1 elsewhere (paper §3 consequence of lines 1-2).
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.Z))
        mgr.append(1, CountPostings(60))
        mgr.append(1, CountPostings(5))
        entry = mgr.directory.get(1)
        assert [c.npostings for c in entry.chunks] == [60, 5]

    def test_proportional_reserve_enables_more_in_place(self):
        plain = make_manager(Policy(style=Style.NEW, limit=Limit.Z))
        reserved = make_manager(
            Policy(
                style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=2.0
            )
        )
        for mgr in (plain, reserved):
            for _ in range(4):
                mgr.append(1, CountPostings(60))
        assert (
            reserved.counters.in_place_updates
            > plain.counters.in_place_updates
        )

    def test_reserved_blocks_allocated_but_not_written(self):
        mgr = make_manager(
            Policy(
                style=Style.NEW, limit=Limit.Z, alloc=Alloc.CONSTANT, k=200
            )
        )
        mgr.append(1, CountPostings(10))
        entry = mgr.directory.get(1)
        # 210 postings target → 4 blocks allocated; 1 block written.
        assert entry.chunks[0].nblocks == 4
        (op,) = list(mgr.trace.ops())
        assert op.nblocks == 1


class TestFillStyle:
    def test_small_update_one_extent(self):
        mgr = make_manager(Policy(style=Style.FILL, limit=Limit.ZERO,
                                  extent_blocks=4))
        mgr.append(1, CountPostings(10))
        entry = mgr.directory.get(1)
        assert entry.nchunks == 1
        assert entry.chunks[0].nblocks == 4  # full extent allocated

    def test_large_update_multiple_extents(self):
        mgr = make_manager(Policy(style=Style.FILL, limit=Limit.ZERO,
                                  extent_blocks=4))
        mgr.append(1, CountPostings(600))  # extent holds 256 postings
        entry = mgr.directory.get(1)
        assert entry.nchunks == 3
        assert [c.npostings for c in entry.chunks] == [256, 256, 88]
        assert mgr.counters.writes == 3  # one WRITE per extent

    def test_extents_rotate_across_disks(self):
        mgr = make_manager(Policy(style=Style.FILL, limit=Limit.ZERO,
                                  extent_blocks=4), ndisks=2)
        mgr.append(1, CountPostings(600))
        disks = [c.disk for c in mgr.directory.get(1).chunks]
        assert disks == [0, 1, 0]

    def test_limit_z_fills_last_extent_slack(self):
        mgr = make_manager(Policy(style=Style.FILL, limit=Limit.Z,
                                  extent_blocks=4))
        mgr.append(1, CountPostings(100))  # slack 156 in extent
        mgr.append(1, CountPostings(100))  # in place
        entry = mgr.directory.get(1)
        assert entry.nchunks == 1
        assert mgr.counters.in_place_updates == 1

    def test_limit_z_wasted_slack_when_update_too_big(self):
        mgr = make_manager(Policy(style=Style.FILL, limit=Limit.Z,
                                  extent_blocks=4))
        mgr.append(1, CountPostings(100))  # slack 156
        mgr.append(1, CountPostings(200))  # too big → fresh extent, slack lost
        entry = mgr.directory.get(1)
        assert entry.nchunks == 2
        assert entry.chunks[0].npostings == 100  # old slack never refilled


class TestWholeStyle:
    def test_list_is_always_one_chunk(self):
        mgr = make_manager(Policy(style=Style.WHOLE, limit=Limit.ZERO))
        for _ in range(5):
            mgr.append(1, CountPostings(100))
        entry = mgr.directory.get(1)
        assert entry.nchunks == 1
        assert entry.npostings == 500

    def test_each_append_costs_read_plus_write(self):
        mgr = make_manager(Policy(style=Style.WHOLE, limit=Limit.ZERO))
        mgr.append(1, CountPostings(100))  # create: write only
        mgr.append(1, CountPostings(100))  # move: read + write
        mgr.append(1, CountPostings(100))
        assert mgr.counters.writes == 3
        assert mgr.counters.reads == 2

    def test_old_chunk_retires_to_release_list(self):
        mgr = make_manager(Policy(style=Style.WHOLE, limit=Limit.ZERO))
        mgr.append(1, CountPostings(100))
        first = mgr.directory.get(1).chunks[0]
        mgr.append(1, CountPostings(100))
        assert first in mgr.release
        allocated_before = mgr.array.allocated_blocks
        mgr.end_batch()
        assert mgr.release == []
        assert mgr.array.allocated_blocks < allocated_before

    def test_limit_z_updates_in_place_with_same_op_count(self):
        # Paper: whole costs one read + one write per append whether or
        # not the update is in place — in-place reads 1 block, not the list.
        mgr = make_manager(
            Policy(
                style=Style.WHOLE,
                limit=Limit.Z,
                alloc=Alloc.PROPORTIONAL,
                k=2.0,
            )
        )
        mgr.append(1, CountPostings(100))
        mgr.append(1, CountPostings(50))  # fits in proportional reserve
        assert mgr.counters.in_place_updates == 1
        assert mgr.directory.get(1).nchunks == 1
        assert mgr.counters.reads == 1 and mgr.counters.writes == 2

    def test_whole_move_blocks_grow_with_list(self):
        mgr = make_manager(Policy(style=Style.WHOLE, limit=Limit.ZERO))
        for _ in range(4):
            mgr.append(1, CountPostings(200))
        reads = [
            op.nblocks
            for op in mgr.trace.ops()
            if op.kind is OpKind.READ
        ]
        assert reads == sorted(reads)
        assert reads[-1] > reads[0]


class TestAccounting:
    def test_appends_to_existing_counts_possible_in_place(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        mgr.append(1, CountPostings(10))
        mgr.append(1, CountPostings(10))
        mgr.append(2, CountPostings(10))
        assert mgr.counters.appends == 3
        assert mgr.counters.appends_to_existing == 1
        assert mgr.counters.lists_created == 2
        assert mgr.counters.in_place_fraction == 0.0

    def test_zero_posting_append_rejected(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        with pytest.raises(ValueError):
            mgr.append(1, CountPostings(0))

    def test_trace_records_word_and_postings(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        mgr.append(42, CountPostings(10))
        (op,) = list(mgr.trace.ops())
        assert op.target is Target.LONG_LIST
        assert op.word == 42
        assert op.npostings == 10

    def test_postings_conserved_on_disk(self):
        for policy in (
            Policy(style=Style.NEW, limit=Limit.Z),
            Policy(style=Style.FILL, limit=Limit.Z),
            Policy(style=Style.WHOLE, limit=Limit.ZERO),
        ):
            mgr = make_manager(policy)
            total = 0
            for i, n in enumerate((10, 300, 7, 64, 128, 1)):
                mgr.append(1 + i % 2, CountPostings(n))
                total += n
            assert mgr.directory.total_postings == total


class TestContentMode:
    def content_manager(self, policy):
        return make_manager(policy, store_contents=True)

    @pytest.mark.parametrize(
        "policy",
        [
            Policy(style=Style.NEW, limit=Limit.ZERO),
            Policy(style=Style.NEW, limit=Limit.Z),
            Policy(
                style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL,
                k=2.0,
            ),
            Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
            Policy(style=Style.WHOLE, limit=Limit.ZERO),
            Policy(
                style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL,
                k=1.2,
            ),
        ],
        ids=lambda p: p.name,
    )
    def test_postings_roundtrip_through_disk(self, policy):
        mgr = self.content_manager(policy)
        expected: list[int] = []
        doc = 0
        for batch_size in (10, 70, 5, 130, 64):
            ids = list(range(doc, doc + batch_size))
            doc += batch_size
            mgr.append(1, DocPostings(ids))
            expected.extend(ids)
        assert mgr.read_postings(1).doc_ids == expected

    def test_read_costs_one_op_per_chunk(self):
        mgr = self.content_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        mgr.append(1, DocPostings([1]))
        mgr.append(1, DocPostings([2]))
        reads_before = mgr.counters.reads
        mgr.read_postings(1)
        assert mgr.counters.reads - reads_before == 2

    def test_a_query_read_records_nothing(self):
        mgr = self.content_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        mgr.trace = IOTrace()
        mgr.append(1, DocPostings([1]))
        mgr.append(1, DocPostings([2]))
        counters, nops = dict(vars(mgr.counters)), mgr.trace.nops
        assert mgr.query_postings(1).doc_ids == [1, 2]
        assert vars(mgr.counters) == counters
        assert mgr.trace.nops == nops

    def test_unknown_word_reads_empty(self):
        mgr = self.content_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        assert mgr.read_postings(9).doc_ids == []

    def test_content_mode_requires_doc_postings(self):
        mgr = self.content_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        with pytest.raises(TypeError):
            mgr.append(1, CountPostings(5))

    def test_read_postings_requires_content_mode(self):
        mgr = make_manager(Policy(style=Style.NEW, limit=Limit.ZERO))
        with pytest.raises(RuntimeError):
            mgr.read_postings(1)
