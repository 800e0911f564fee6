"""Unit tests for the immediate-access memory tier (DESIGN.md §14)."""

import threading

import pytest

from repro.core.memtier import ActiveSegment, MemTier


class _Base:
    """A stand-in disk snapshot: the tier only reads ``ndocs``."""

    def __init__(self, ndocs: int) -> None:
        self.ndocs = ndocs


class TestActiveSegment:
    def test_watermark_slices_out_unpublished_tail(self):
        active = ActiveSegment()
        active.add(0, ["wa", "wb"])
        active.add(1, ["wa"])
        active.add(5, ["wa", "wc"])
        assert active.postings_upto("wa", 1) == [0, 1]
        assert active.postings_upto("wa", 4) == [0, 1]
        assert active.postings_upto("wa", 5) == [0, 1, 5]
        assert active.postings_upto("wc", 1) == []
        assert active.postings_upto("missing", 99) == []


class TestMemTier:
    def test_add_is_immediately_visible(self):
        tier = MemTier()
        tier.add_document(0, ["Alpha", "beta", "alpha"])
        view = tier.view()
        assert view.postings("alpha") == [0]  # lowercased, deduped
        assert view.postings("beta") == [0]
        assert view.ndocs == 1
        assert view.buffered_docs == 1

    def test_doc_ids_must_ascend_past_the_watermark(self):
        tier = MemTier(base=_Base(ndocs=5))
        with pytest.raises(ValueError):
            tier.add_document(4, ["wa"])  # already covered by the base
        tier.add_document(5, ["wa"])
        with pytest.raises(ValueError):
            tier.add_document(5, ["wb"])

    def test_tombstones_ride_the_view_unfiltered(self):
        tier = MemTier()
        tier.add_document(0, ["wa"])
        tier.delete_document(0)
        view = tier.view()
        # The merge layer filters; the tier just records.
        assert view.postings("wa") == [0]
        assert view.tombstones == frozenset({0})

    def test_old_views_survive_later_mutations(self):
        tier = MemTier()
        tier.add_document(0, ["wa"])
        old = tier.view()
        tier.add_document(1, ["wa"])
        tier.add_document(2, ["wa"])
        tier.delete_document(0)
        assert old.postings("wa") == [0]
        assert old.tombstones == frozenset()
        assert tier.view().postings("wa") == [0, 1, 2]

    def test_rebase_drops_covered_and_keeps_the_rest(self):
        tier = MemTier()
        for doc_id in range(4):
            tier.add_document(doc_id, ["wa"])
        tier.delete_document(1)
        tier.delete_document(3)
        # The publish covered ids [0, 3); id 3 and its tombstone survive.
        tier.rebase(_Base(ndocs=3))
        view = tier.view()
        assert view.postings("wa") == [3]
        assert view.tombstones == frozenset({3})
        assert view.base_ndocs == 3
        assert view.ndocs == 4
        assert tier.stats()["rebases"] == 1
        # A full publish drains everything.
        tier.rebase(_Base(ndocs=4))
        view = tier.view()
        assert view.postings("wa") == []
        assert view.tombstones == frozenset()
        assert view.is_empty()

    def test_rebase_preserves_old_view_contents(self):
        tier = MemTier()
        tier.add_document(0, ["wa"])
        tier.add_document(1, ["wb"])
        old = tier.view()
        tier.rebase(_Base(ndocs=2))
        # The old view still answers from the retired structures.
        assert old.postings("wa") == [0]
        assert old.postings("wb") == [1]

    def test_view_ndocs_tracks_the_merged_universe(self):
        tier = MemTier(base=_Base(ndocs=10))
        assert tier.view().ndocs == 10
        assert tier.view().is_empty()
        tier.add_document(12, ["wa"])  # sparse ids (sharded ingest)
        view = tier.view()
        assert view.ndocs == 13
        assert view.buffered_docs == 3

    def test_concurrent_readers_never_see_torn_state(self):
        """Readers hammer view() while the writer ingests; every
        captured answer must be a prefix of the ingest stream."""
        tier = MemTier()
        ndocs = 300
        errors: list[str] = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                view = tier.view()
                docs = view.postings("wa")
                if docs != list(range(len(docs))):
                    errors.append(f"non-prefix answer {docs!r}")
                    return

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        for thread in readers:
            thread.start()
        for doc_id in range(ndocs):
            tier.add_document(doc_id, ["wa", f"w{chr(97 + doc_id % 7)}"])
        stop.set()
        for thread in readers:
            thread.join()
        assert not errors, errors[:3]
        assert tier.view().postings("wa") == list(range(ndocs))
