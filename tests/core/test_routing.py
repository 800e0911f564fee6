"""RoutingTable properties: the epoch-0 ≡ ``shard_of`` contract, the
routing-preserving refinement, and the split move.

The load-bearing claim is the degenerate-epoch equivalence: every layer
that replaced a raw ``shard_of`` call with ``table.route`` must behave
frame-for-frame identically until the first structural move, which is
only true if the epoch-0 table *is* the static router.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.routing import RoutingTable
from repro.core.shard import shard_of

doc_ids = st.integers(min_value=0, max_value=2**40)


class TestEpochZeroEquivalence:
    @given(
        doc_id=doc_ids,
        nshards=st.integers(min_value=1, max_value=16),
        seed=st.sampled_from([0, 1, 7, 97, 12345]),
    )
    def test_route_matches_shard_of(self, doc_id, nshards, seed):
        table = RoutingTable.initial(nshards, seed)
        assert table.epoch == 0
        assert table.route(doc_id) == shard_of(doc_id, nshards, seed)

    def test_identity_layout(self):
        table = RoutingTable.initial(4, 3)
        assert table.owners == (0, 1, 2, 3)
        assert table.nslots == 4
        assert table.shard_ids == (0, 1, 2, 3)
        assert table.nshards == 4
        assert all(table.doc_share(s) == 0.25 for s in range(4))

    def test_single_shard_degenerate(self):
        table = RoutingTable.initial(1)
        assert table.route(12345) == 0 == shard_of(12345, 1)


class TestRefinement:
    @given(
        doc_id=doc_ids,
        nshards=st.integers(min_value=1, max_value=8),
        seed=st.sampled_from([0, 5]),
        rounds=st.integers(min_value=1, max_value=3),
    )
    def test_refine_preserves_every_route(self, doc_id, nshards, seed, rounds):
        table = RoutingTable.initial(nshards, seed)
        refined = table
        for _ in range(rounds):
            refined = refined.refine()
        assert refined.route(doc_id) == table.route(doc_id)
        assert refined.nslots == table.nslots * 2**rounds
        assert refined.epoch == rounds

    def test_refine_keeps_shares(self):
        table = RoutingTable.initial(3, 1).refine()
        for s in range(3):
            assert table.doc_share(s) == pytest.approx(1 / 3)


class TestSplit:
    def test_split_moves_only_victim_documents(self):
        table = RoutingTable.initial(4, 0)
        after = table.split(2, 4)
        assert after.epoch == 1
        for doc_id in range(2000):
            before_owner = table.route(doc_id)
            after_owner = after.route(doc_id)
            if before_owner != 2:
                assert after_owner == before_owner
            else:
                assert after_owner in (2, 4)

    def test_split_single_slot_refines_first(self):
        table = RoutingTable.initial(2, 0)
        after = table.split(0, 2)
        assert after.nslots == 4  # refined from 2
        assert after.epoch == 1  # one bump, not two
        assert set(after.shard_ids) == {0, 1, 2}
        # Both halves of the old shard-0 slice are non-empty.
        assert after.slots_of(0) and after.slots_of(2)

    def test_split_halves_the_share(self):
        table = RoutingTable.initial(2, 0)
        after = table.split(0, 2)
        assert after.doc_share(0) == pytest.approx(0.25)
        assert after.doc_share(2) == pytest.approx(0.25)
        assert after.doc_share(1) == pytest.approx(0.5)

    def test_split_rejects_existing_owner(self):
        table = RoutingTable.initial(3, 0)
        with pytest.raises(ValueError, match="already owns"):
            table.split(0, 1)

    def test_split_rejects_empty_victim(self):
        table = RoutingTable.initial(2, 0)
        with pytest.raises(ValueError, match="owns no slots"):
            table.split(7, 9)


class TestIdentity:
    def test_equality_and_hash_cover_epoch_and_layout(self):
        a = RoutingTable.initial(2, 0)
        assert a == RoutingTable.initial(2, 0)
        assert a != a.refine()
        assert a != RoutingTable.initial(2, 1)
        assert hash(a) == hash(RoutingTable.initial(2, 0))

    def test_owners_must_cover_slots(self):
        with pytest.raises(ValueError):
            RoutingTable(0, 0, 3, (0, 1))
