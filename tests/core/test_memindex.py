"""Unit tests for the in-memory batching index."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.invariants import check_index
from repro.core.memindex import InMemoryIndex
from repro.core.postings import DocPostings
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash

from .. import reference_memindex as ref


class TestDocuments:
    def test_add_document_dedupes_words(self):
        idx = InMemoryIndex()
        idx.add_document(0, [1, 2, 1, 3, 2])
        assert len(idx) == 3
        assert idx.npostings == 3
        assert idx.get(1).doc_ids == [0]

    def test_postings_accumulate_across_documents(self):
        idx = InMemoryIndex()
        idx.add_document(0, [1, 2])
        idx.add_document(1, [2, 3])
        assert idx.get(2).doc_ids == [0, 1]
        assert idx.ndocs == 2
        assert idx.npostings == 4

    def test_size_units_counts_words_plus_postings(self):
        idx = InMemoryIndex()
        idx.add_document(0, [1, 2])
        idx.add_document(1, [2])
        assert idx.size_units == 2 + 3

    def test_items_sorted_by_word(self):
        idx = InMemoryIndex()
        idx.add_document(0, [9, 1, 5])
        assert [w for w, _ in idx.items()] == [1, 5, 9]

    def test_clear(self):
        idx = InMemoryIndex()
        idx.add_document(0, [1])
        idx.clear()
        assert len(idx) == 0
        assert idx.ndocs == 0
        assert idx.npostings == 0


class TestOrderedIterationCache:
    def test_items_stay_sorted_as_words_arrive(self):
        idx = InMemoryIndex()
        idx.add_document(0, [9, 1, 5])
        assert [w for w, _ in idx.items()] == [1, 5, 9]
        # New words invalidate the cached order; appends to existing
        # lists must not.
        idx.add_document(1, [3, 9])
        assert [w for w, _ in idx.items()] == [1, 3, 5, 9]
        idx.add_document(2, [5, 1])
        assert [w for w, _ in idx.items()] == [1, 3, 5, 9]
        assert idx.get(5).doc_ids == [0, 2]

    def test_append_only_batch_reuses_the_cached_order(self):
        idx = InMemoryIndex()
        idx.add_document(0, [2, 1])
        list(idx.items())
        cached = idx._sorted_words
        assert cached == [1, 2]
        idx.add_document(1, [1, 2])  # no new words
        assert idx._sorted_words is cached
        idx.add_document(2, [7])  # new word: stale
        assert idx._sorted_words is None
        assert [w for w, _ in idx.items()] == [1, 2, 7]

    def test_clear_resets_the_cache(self):
        idx = InMemoryIndex()
        idx.add_document(0, [3, 1])
        list(idx.items())
        idx.clear()
        idx.add_document(0, [2])
        assert [w for w, _ in idx.items()] == [2]


class TestSnapshotRestore:
    def test_restore_round_trips_contents(self):
        idx = InMemoryIndex()
        idx.add_document(0, [1, 2])
        idx.add_document(1, [2, 3])
        snap = idx.snapshot()
        idx.add_document(2, [4])
        idx.restore(snap)
        assert idx.ndocs == 2
        assert idx.npostings == 4
        assert idx.get(4) is None
        assert [w for w, _ in idx.items()] == [1, 2, 3]

    def test_flush_keeps_the_batch_by_reference(self):
        """The flush keeps the batch it may replay without copying a
        payload, and a crash plus replay answers like a clean flush."""
        for point in ("index.before-shadow-flush", "index.before-recovery-point"):
            self._crash_and_replay(point)

    @staticmethod
    def _crash_and_replay(point):
        config = IndexConfig(
            nbuckets=4,
            bucket_size=16,
            block_postings=4,
            ndisks=2,
            nblocks_override=10_000,
            crash_safe=True,
        )
        clean, crashed = DualStructureIndex(config), DualStructureIndex(config)
        for index in (clean, crashed):
            for doc in ([1, 2, 3], [2, 3, 9], [3, 4, 5]):
                index.add_document(doc)
            index.flush_batch()
            for doc in ([1, 3, 6], [2, 3, 7], [3, 5, 8]):
                index.add_document(doc)
        clean.flush_batch()
        batch = dict(crashed.memory.items())
        with faults.injected(FaultPlan(crash_at=point, crash_at_hit=1)):
            with pytest.raises(InjectedCrash):
                crashed.flush_batch()
        kept, ndocs, npostings, last_doc = crashed._aborted_batch
        assert (ndocs, npostings, last_doc) == (3, 9, 5)
        assert all(payload is batch[word] for word, payload in kept)
        crashed.recover(replay=True)
        assert check_index(crashed).ok
        for word in range(1, 10):
            assert crashed.fetch(word) == clean.fetch(word), word

    def test_restore_moves_payloads_without_recopying(self):
        idx = InMemoryIndex()
        idx.add_document(0, [1])
        snap = idx.snapshot()
        idx.clear()
        idx.restore(snap)
        # Move semantics: the restored payload IS the snapshot's object
        # (the docstring's consumed-once contract).
        assert idx.get(1) is snap[0][0][1]


class TestContains:
    def test_contains(self):
        idx = InMemoryIndex()
        idx.add_document(0, [4])
        assert 4 in idx
        assert 5 not in idx


# -- the batch against the per-posting loop it replaced ------------------------

#: ``("add", gap, words)`` adds a document ``gap - 1`` ids past the next
#: one (so ``gap <= 0`` repeats or goes back, and is refused);
#: ``("flush",)`` retires the batch; ``("replay",)`` is a crashed flush
#: recovered by replaying its batch (snapshot, clear, restore);
#: ``("drop",)`` is one recovered without replay, after which the batch's
#: ids come again, below the dropped batch's highest.
batch_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.integers(-2, 3),
            st.lists(st.integers(0, 12), max_size=8),
        ),
        st.sampled_from([("flush",), ("replay",), ("drop",)]),
    ),
    max_size=25,
)


def batch_state(batch):
    lists = batch._lists
    return (
        list(lists),
        {word: payload.doc_ids for word, payload in lists.items()},
        batch._ndocs,
        batch._npostings,
    )


@settings(max_examples=150, deadline=None)
@given(batch_ops)
@example([("add", 1, [1, 2]), ("add", 1, [2, 3]), ("drop",),
          ("add", 1, [3, 1]), ("add", 1, [2])])
@example([("add", 1, [1, 2]), ("add", 1, [3, 3, 1]), ("replay",),
          ("add", 1, [1, 4]), ("add", 0, [5])])
@example([("add", 1, [7]), ("add", 0, [8]), ("add", -2, [])])
def test_the_batch_matches_the_per_posting_loop(ops):
    """Accepted documents build exactly the old loop's batch; a doc id
    at or below the batch's highest is refused and changes nothing,
    even where the old loop (whose check was per posting) took it."""
    batch, oracle = InMemoryIndex(), ref.PerPostingBatch()
    next_id, batch_start, highest = 0, 0, -1
    for op in ops:
        if op[0] == "add":
            _, gap, words = op
            doc_id = next_id + gap - 1
            if doc_id <= highest:
                before = batch_state(batch)
                with pytest.raises(ValueError, match="must increase"):
                    batch.add_document(doc_id, iter(words))
                assert batch_state(batch) == before
                continue
            batch.add_document(doc_id, iter(words))
            ref.add_document(oracle, doc_id, words)
            next_id, highest = doc_id + 1, doc_id
        elif op[0] == "flush":
            batch.clear()
            ref.clear(oracle)
            batch_start, highest = next_id, -1
        elif op[0] == "replay":
            kept, kept_oracle = batch.snapshot(), ref.snapshot(oracle)
            batch.clear()
            ref.clear(oracle)
            batch.restore(kept)
            ref.restore(oracle, kept_oracle)
        else:
            batch.clear()
            ref.clear(oracle)
            next_id, highest = batch_start, -1
        assert batch_state(batch) == batch_state(oracle)
        assert [word for word, _ in batch.items()] == sorted(oracle._lists)
        for payload in batch._lists.values():
            assert type(payload) is DocPostings
            DocPostings(payload.doc_ids)  # strictly increasing, >= 0


def test_a_dropped_batch_takes_its_ids_again():
    """A flush recovered without replay rolls the id counter back; the
    ids it dropped, below the dropped batch's highest, are taken again."""
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=16,
            block_postings=4,
            ndisks=2,
            nblocks_override=10_000,
            crash_safe=True,
        )
    )
    index.add_document([1, 2])
    index.flush_batch()
    index.add_document([2, 3])
    index.add_document([3, 4])
    with faults.injected(
        FaultPlan(crash_at="index.before-shadow-flush", crash_at_hit=1)
    ):
        with pytest.raises(InjectedCrash):
            index.flush_batch()
    index.recover(replay=False)
    assert index.add_document([4, 5]) == 1
    assert index.add_document([2, 5]) == 2
    index.flush_batch()
    assert check_index(index).ok
    assert index.fetch(2)[0].doc_ids == [0, 2]
    assert index.fetch(5)[0].doc_ids == [1, 2]
