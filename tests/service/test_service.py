"""QueryService behavior: publication, caching, recovery, equivalence."""

import pytest

from repro.core.index import IndexConfig
from repro.query.reference import BruteForceIndex
from repro.service import IndexSnapshot, QueryService, ServiceError
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.textindex import TextDocumentIndex

DOCS = [
    "red fox runs fast",
    "red hen sits still",
    "blue fox swims far",
    "green hen runs far",
    "red fox and blue hen",
]

QUERIES = [
    "red AND fox",
    "red OR blue",
    "(red OR green) AND hen",
    "fox AND NOT hen",
]


def small_config(**overrides):
    defaults = dict(
        nbuckets=8,
        bucket_size=64,
        block_postings=8,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
    )
    defaults.update(overrides)
    return IndexConfig(**defaults)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


class TestPublication:
    def test_initial_snapshot_is_empty(self):
        service = QueryService(small_config())
        snapshot = service.snapshot()
        assert snapshot.snapshot_id == 0
        assert snapshot.ndocs == 0
        assert service.search_boolean("anything").doc_ids == []

    def test_documents_invisible_until_publish(self):
        service = QueryService(small_config())
        service.add_document("red fox")
        assert service.search_boolean("red").doc_ids == []
        service.flush_and_publish()
        assert service.search_boolean("red").doc_ids == [0]

    def test_snapshot_ids_monotonic(self):
        service = QueryService(small_config())
        ids = []
        for text in DOCS:
            service.add_document(text)
            _, snapshot = service.flush_and_publish()
            ids.append(snapshot.snapshot_id)
        assert ids == [1, 2, 3, 4, 5]
        assert service.snapshot().snapshot_id == 5
        assert service.stats.publishes == 5

    def test_deletion_visible_after_publish(self):
        service = QueryService(small_config())
        for text in DOCS:
            service.add_document(text)
        service.flush_and_publish()
        held = service.snapshot()
        service.delete_document(0)
        # Not yet published: the served answer still includes doc 0.
        assert 0 in service.search_boolean("red").doc_ids
        service.flush_and_publish()
        assert 0 not in service.search_boolean("red").doc_ids
        # The previously held snapshot is unaffected (readers finish on it).
        assert 0 in held.search_boolean("red").doc_ids

    def test_reference_tracks_served_answers(self):
        """A driver-side model frozen at a boundary equals what the
        snapshot published there serves — also once the writer and the
        live model have moved past it."""
        service = QueryService(small_config())
        reference = BruteForceIndex()
        for text in DOCS:
            reference.add_document(service.add_document(text), text.split())
        service.delete_document(1)
        reference.delete_document(1)
        service.flush_and_publish()
        snapshot, frozen = service.snapshot(), reference.freeze()
        late = "red fox arrives late"
        reference.add_document(service.add_document(late), late.split())
        for q in QUERIES:
            assert (
                service.search_boolean(q, snapshot).doc_ids
                == frozen.search_boolean(q)
            ), q
        assert frozen.search_boolean("red AND fox") != (
            reference.search_boolean("red AND fox")
        )


class TestCaching:
    def test_repeat_query_hits_cache(self):
        service = QueryService(small_config())
        for text in DOCS:
            service.add_document(text)
        service.flush_and_publish()
        first = service.search_boolean("red AND fox")
        second = service.search_boolean("red AND fox")
        assert second.doc_ids == first.doc_ids
        assert second.read_ops == first.read_ops  # hit reports original cost
        stats = service.cache.stats()
        assert stats.hits == 1

    def test_publish_invalidates_cache(self):
        service = QueryService(small_config())
        service.add_document("red fox")
        service.flush_and_publish()
        service.search_boolean("red")
        assert service.cache.stats().misses == 1
        service.add_document("red hen")
        service.flush_and_publish()
        # Same query text, new snapshot: must re-evaluate, not reuse.
        answer = service.search_boolean("red")
        assert answer.doc_ids == [0, 1]
        stats = service.cache.stats()
        assert stats.invalidations >= 2  # one per publish
        assert stats.misses == 2

    def test_all_three_kinds_cached(self):
        service = QueryService(small_config())
        for text in DOCS:
            service.add_document(text)
        service.flush_and_publish()
        b1 = service.search_boolean("red AND fox")
        s1 = service.search_streamed("red OR blue")
        v1 = service.search_vector({"red": 1.0, "fox": 2.0}, top_k=3)
        b2 = service.search_boolean("red AND fox")
        s2 = service.search_streamed("red OR blue")
        v2 = service.search_vector({"fox": 2.0, "red": 1.0}, top_k=3)
        assert b2.doc_ids == b1.doc_ids
        assert s2.doc_ids == s1.doc_ids
        # Weight-dict ordering must not defeat the vector cache key.
        assert [(d.doc_id, d.score) for d in v2] == [
            (d.doc_id, d.score) for d in v1
        ]
        assert service.cache.stats().hits == 3


class TestFaultRecovery:
    def test_flush_crash_recovers_and_publishes(self):
        service = QueryService(
            small_config(crash_safe=True), check_invariants=True
        )
        for text in DOCS:
            service.add_document(text)
        faults.install(
            FaultPlan(crash_at="index.before-shadow-flush", crash_at_hit=1)
        )
        try:
            result, snapshot = service.flush_and_publish()
        finally:
            faults.uninstall()
        assert service.stats.flush_recoveries >= 1
        assert snapshot.snapshot_id == 1
        assert result.npostings > 0
        for q in QUERIES:
            offline = TextDocumentIndex(small_config())
            for text in DOCS:
                offline.add_document(text)
            offline.flush_batch()
            assert (
                service.search_boolean(q).doc_ids
                == offline.search_boolean(q).doc_ids
            ), q

    def test_publish_clone_crash_is_retried(self):
        # With crash_safe=False the flush path never saves a recovery
        # point, so the first checkpoint.mid-save arrival is the publish
        # clone itself — the retry path, not the recovery path.
        service = QueryService(small_config())
        service.add_document("red fox")
        faults.install(
            FaultPlan(crash_at="checkpoint.mid-save", crash_at_hit=1)
        )
        try:
            _, snapshot = service.flush_and_publish()
        finally:
            faults.uninstall()
        assert service.stats.publish_retries >= 1
        assert service.stats.flush_recoveries == 0
        assert snapshot.search_boolean("red").doc_ids == [0]

    def test_retry_budget_exhaustion_raises_service_error(
        self, no_flush_retries
    ):
        service = QueryService(small_config(crash_safe=True))
        service.add_document("red fox")
        faults.install(
            FaultPlan(crash_at="index.flush-begin", crash_at_hit=1)
        )
        try:
            with pytest.raises(ServiceError):
                service.flush_and_publish()
        finally:
            faults.uninstall()

    def test_crash_without_crash_safe_propagates(self):
        service = QueryService(small_config())
        service.add_document("red fox")
        faults.install(
            FaultPlan(crash_at="index.flush-begin", crash_at_hit=1)
        )
        try:
            with pytest.raises(InjectedCrash):
                service.flush_and_publish()
        finally:
            faults.uninstall()

    def test_readers_never_see_crashed_flush(self, no_flush_retries):
        service = QueryService(small_config(crash_safe=True))
        service.add_document("red fox")
        service.flush_and_publish()
        before = service.snapshot()
        service.add_document("blue hen")
        faults.install(
            FaultPlan(crash_at="index.before-release", crash_at_hit=1)
        )
        try:
            with pytest.raises(ServiceError):
                service.flush_and_publish()
        finally:
            faults.uninstall()
        # The failed flush must not have published anything.
        assert service.snapshot() is before
        assert service.search_boolean("blue").doc_ids == []


class TestServedPathConsistency:
    def test_served_read_ops_match_snapshot_and_facade(self):
        """Satellite: the served path reports the same Figure-10 read-op
        unit as both facade search methods."""
        service = QueryService(small_config())
        for text in DOCS:
            service.add_document(text)
        service.flush_and_publish()
        snapshot = service.snapshot()
        offline = TextDocumentIndex(small_config())
        for text in DOCS:
            offline.add_document(text)
        offline.flush_batch()
        for q in QUERIES:
            served = service.search_boolean(q, snapshot)
            facade = offline.search_boolean(q)
            assert served.read_ops == facade.read_ops, q
            assert served.read_ops == offline.last_read_ops, q
        streamed_served = service.search_streamed("red OR blue", snapshot)
        streamed_facade = offline.search_streamed("red OR blue")
        assert streamed_served.read_ops == streamed_facade.read_ops
        assert streamed_served.read_ops == offline.last_read_ops


class TestOfflineEquivalence:
    def test_served_answers_match_fresh_offline_build(self):
        """Satellite: a fresh offline index built from the same document
        stream answers a fixed query set identically to the final served
        snapshot."""
        service = QueryService(small_config())
        stream = DOCS * 3
        deletions = [2, 7]
        for i, text in enumerate(stream):
            service.add_document(text)
            if i % 5 == 4:
                service.flush_and_publish()
        for doc_id in deletions:
            service.delete_document(doc_id)
        service.flush_and_publish()

        offline = TextDocumentIndex(small_config())
        for text in stream:
            offline.add_document(text)
        offline.flush_batch()
        for doc_id in deletions:
            offline.delete_document(doc_id)

        snapshot = service.snapshot()
        for q in QUERIES:
            assert (
                service.search_boolean(q, snapshot).doc_ids
                == offline.search_boolean(q).doc_ids
            ), q
            assert (
                service.search_vector({"red": 1.0, "fox": 0.5})
                == offline.search_vector({"red": 1.0, "fox": 0.5})
            )
        assert (
            service.search_streamed("red OR blue", snapshot).doc_ids
            == offline.search_streamed("red OR blue").doc_ids
        )
