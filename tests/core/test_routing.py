"""RoutingTable properties: the epoch-0 ≡ ``shard_of`` contract and the
split move (whose first refinement is route-preserving); and the
Placement ledger against a brute-force model.

The load-bearing claim is the degenerate-epoch equivalence: every layer
that replaced a raw ``shard_of`` call with ``table.route`` must behave
frame-for-frame identically until the first structural move, which is
only true if the epoch-0 table *is* the static router.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.routing import Placement, RoutingTable
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

    def test_single_shard_degenerate(self):
        table = RoutingTable.initial(1)
        assert table.route(12345) == 0 == shard_of(12345, 1)


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
        assert after.nslots == 4
        assert len(after.slots_of(0)) == len(after.slots_of(2)) == 1
        assert len(after.slots_of(1)) == 2

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
        assert a != a.split(0, 2)
        assert a != RoutingTable(1, 0, 2, (0, 1))
        assert a != RoutingTable.initial(2, 1)
        assert hash(a) == hash(RoutingTable.initial(2, 0))

    def test_a_table_is_unequal_to_its_own_fields(self):
        a = RoutingTable.initial(2, 0)
        assert a != (a.epoch, a.seed, a.nslots, a.owners)
        assert a != a.layout()

    def test_owners_must_cover_slots(self):
        with pytest.raises(ValueError):
            RoutingTable(0, 0, 3, (0, 1))


# One ledger step: an add (automatic, or explicit at next id + k, so a
# negative k runs backwards), an add whose shard refuses it, a delete of
# next id + k (k < 0 reaches back over live ids, deleted ids and holes;
# k >= 0 is out of range), or a split of the n-th shard in the table.
ledger_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.none() | st.integers(-2, 3)),
        st.tuples(st.just("refused"), st.integers(0, 3)),
        st.tuples(st.just("delete"), st.integers(-12, 1)),
        st.tuples(st.just("split"), st.integers(0, 7)),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=ledger_ops, nshards=st.integers(1, 3), seed=st.sampled_from([0, 7]))
def test_placement_matches_brute_force_model(ops, nshards, seed):
    placement = Placement(nshards, seed)
    next_id, added, deleted = 0, set(), set()
    shards = list(range(nshards))
    for op, k in ops:
        live = added - deleted
        table = placement.routing
        if op in ("add", "refused"):
            want = next_id if k is None else next_id + k
            if want < next_id:
                with pytest.raises(ValueError, match="below next id"):
                    placement.claim(want)
                continue
            claimed = placement.claim(None if k is None else want)
            assert claimed == (want, table.route(want))
            if op == "add":
                placement.admit(want)
                added.add(want)
                next_id = want + 1
        elif op == "delete":
            doc_id = next_id + k
            if not 0 <= doc_id < next_id:
                with pytest.raises(ValueError, match="outside"):
                    placement.owner(doc_id)
            elif doc_id not in added:
                with pytest.raises(ValueError, match="was never added"):
                    placement.owner(doc_id)
            else:
                assert placement.owner(doc_id) == table.route(doc_id)
                placement.deleted.add(doc_id)
                deleted.add(doc_id)
        else:
            victim = table.shard_ids[k % table.nshards]
            new_id = len(shards)
            new_table, movers, stayers = placement.split(victim, new_id)
            assert placement.routing is table  # installed by the caller
            assert set(movers) | set(stayers) == {
                d for d in live if table.route(d) == victim
            }
            assert not set(movers) & set(stayers)
            assert all(new_table.route(d) == new_id for d in movers)
            assert all(new_table.route(d) == victim for d in stayers)
            placement.routing = new_table
            shards.append(new_id)
        assert placement.next_id == next_id
        assert placement.counts(shards) == {
            s: sum(placement.routing.route(d) == s for d in added - deleted)
            for s in shards
        }
