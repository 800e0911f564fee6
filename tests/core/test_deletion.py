"""Unit tests for filter-and-sweep document deletion (paper §3)."""

import pytest

from repro.core.deletion import DeletionManager
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Alloc, Limit, Policy, Style


def make_index(policy=None, **overrides):
    defaults = dict(
        nbuckets=4,
        bucket_size=48,
        block_postings=8,
        ndisks=2,
        nblocks_override=200_000,
    )
    if policy is not None:
        defaults["policy"] = policy
    defaults.update(overrides)
    return DualStructureIndex(IndexConfig(**defaults))


def populate(index, batches=6, docs_per_batch=10):
    doc = 0
    for _ in range(batches):
        for _ in range(docs_per_batch):
            # Word 1 is hot (every doc); words 2..6 rotate.
            index.add_document([1, 2 + doc % 5], doc_id=doc)
            doc += 1
        index.flush_batch()
    return index


class TestFilter:
    def test_delete_hides_document_immediately(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        mgr.delete(3)
        docs, _ = index.fetch(1)
        assert 3 in docs.doc_ids  # raw index unchanged
        assert 3 not in mgr.filter(docs.doc_ids)

    def test_filter_preserves_order(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        mgr.delete(5)
        mgr.delete(2)
        filtered = mgr.filter([1, 2, 3, 5, 8])
        assert filtered == [1, 3, 8]

    def test_empty_filter_is_cheap_identity(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        assert mgr.filter([1, 2]) == [1, 2]

    def test_delete_validates_doc_id(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        with pytest.raises(ValueError):
            mgr.delete(-1)
        with pytest.raises(ValueError):
            mgr.delete(index.ndocs)


class TestSweep:
    @pytest.mark.parametrize(
        "policy",
        [
            Policy(style=Style.NEW, limit=Limit.Z),
            Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
            Policy(
                style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL,
                k=1.2,
            ),
        ],
        ids=lambda p: p.name,
    )
    def test_sweep_physically_removes_postings(self, policy):
        index = populate(make_index(policy))
        mgr = DeletionManager(index)
        for doc in (0, 7, 13, 42):
            mgr.delete(doc)
        before = index.directory.total_postings + index.buckets.total_postings
        stats = mgr.sweep_all()
        after = index.directory.total_postings + index.buckets.total_postings
        assert stats.complete
        assert stats.postings_removed > 0
        assert before - after == stats.postings_removed
        # The swept documents are gone from the raw lists.
        docs, _ = index.fetch(1)
        for doc in (0, 7, 13, 42):
            assert doc not in docs.doc_ids

    def test_filter_set_discarded_after_sweep(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        mgr.delete(1)
        mgr.sweep_all()
        assert mgr.ndeleted == 0

    def test_deletes_during_sweep_survive_it(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        mgr.delete(1)
        mgr.begin_sweep()
        mgr.delete(2)  # arrives mid-sweep
        while mgr.sweeping:
            mgr.sweep_step()
        assert mgr.deleted == {2}
        # Document 2 is still filtered from answers.
        docs, _ = index.fetch(1)
        assert 2 in docs.doc_ids
        assert 2 not in mgr.filter(docs.doc_ids)

    def test_incremental_steps_bound_work(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        mgr.delete(0)
        queued = mgr.begin_sweep()
        stats = mgr.sweep_step(max_lists=2)
        assert stats.lists_swept == 2
        assert stats.lists_remaining == queued - 2
        assert mgr.sweeping

    def test_sweep_can_empty_a_list_entirely(self):
        index = make_index()
        index.add_document([9], doc_id=0)
        index.flush_batch()
        mgr = DeletionManager(index)
        mgr.delete(0)
        mgr.sweep_all()
        docs, _ = index.fetch(9)
        assert docs.doc_ids == []
        assert not index.buckets.contains(9)

    def test_sweep_requires_begin(self):
        mgr = DeletionManager(populate(make_index()))
        with pytest.raises(RuntimeError):
            mgr.sweep_step()

    def test_double_begin_rejected(self):
        mgr = DeletionManager(populate(make_index()))
        mgr.delete(0)
        mgr.begin_sweep()
        with pytest.raises(RuntimeError):
            mgr.begin_sweep()

    def test_updates_continue_after_sweep(self):
        index = populate(make_index())
        mgr = DeletionManager(index)
        mgr.delete(0)
        mgr.sweep_all()
        next_doc = index.ndocs
        index.add_document([1], doc_id=next_doc)
        index.flush_batch()
        docs, _ = index.fetch(1)
        assert docs.doc_ids[-1] == next_doc

    def test_space_reclaimed_after_flush(self):
        policy = Policy(style=Style.WHOLE, limit=Limit.ZERO)
        index = populate(make_index(policy), batches=8, docs_per_batch=12)
        mgr = DeletionManager(index)
        # Delete most documents; sweeping should shrink long-list blocks.
        for doc in range(0, index.ndocs, 2):
            mgr.delete(doc)
        blocks_before = index.directory.total_blocks
        mgr.sweep_all()
        index.flush_batch()  # frees the RELEASE list
        assert index.directory.total_blocks <= blocks_before


class TestLongListRewrite:
    def test_rewrite_unknown_word_raises(self):
        index = populate(make_index())
        from repro.core.postings import DocPostings

        with pytest.raises(KeyError):
            index.longlists.rewrite(99_999, DocPostings([1]))

    def test_rewrite_empty_removes_entry(self):
        index = populate(make_index())
        from repro.core.postings import DocPostings

        word = next(iter(index.directory.words()))
        index.longlists.rewrite(word, DocPostings())
        assert word not in index.directory
