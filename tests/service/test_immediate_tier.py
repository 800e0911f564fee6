"""Service-level tests for the immediate read tier (DESIGN.md §14).

The serving claims pinned here:

* read-your-writes: a document is queryable the moment ``add_document``
  returns, deletions hide documents the moment ``delete_document``
  returns — no flush required;
* answers are invariant across the flush boundary (the two-tier merge is
  byte-identical to the post-flush evaluation);
* the result cache serves an immediate-tier entry at exactly the
  memory-tier epoch it was computed at, and drops it at any other;
* :class:`BackgroundMerger` drains the buffer through the ordinary
  flush/publish path without the writer ever calling flush;
* the tier rides the sharded scatter path and the multi-process gateway.
"""

from __future__ import annotations

import pytest

from repro.core.index import IndexConfig
from repro.query.reference import BruteForceIndex
from repro.service import (
    BackgroundMerger,
    GatewayService,
    LoadConfig,
    LoadGenerator,
    QueryService,
)


def small_config(**overrides) -> IndexConfig:
    defaults = dict(
        nbuckets=16,
        bucket_size=64,
        block_postings=8,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
    )
    defaults.update(overrides)
    return IndexConfig(**defaults)


def immediate_service(**overrides) -> QueryService:
    kwargs = dict(
        cache_capacity=64,
        read_tier="immediate",
    )
    kwargs.update(overrides)
    return QueryService(small_config(), **kwargs)


class TestReadYourWrites:
    def test_add_visible_before_any_flush(self):
        service = immediate_service()
        doc_id = service.add_document("alpha bravo")
        assert service.search_streamed("alpha").doc_ids == [doc_id]
        assert service.search_boolean("alpha AND bravo").doc_ids == [doc_id]
        ranked = service.search_vector({"alpha": 1.0}, top_k=5)
        assert [d.doc_id for d in ranked] == [doc_id]
        # Nothing was published: the snapshot tier still answers empty.
        assert service.snapshot().search_streamed("alpha").doc_ids == []

    def test_delete_hides_before_any_flush(self):
        service = immediate_service()
        a = service.add_document("alpha bravo")
        b = service.add_document("alpha charlie")
        service.flush_and_publish()
        c = service.add_document("alpha delta")
        service.delete_document(a)  # snapshot-resident victim
        service.delete_document(c)  # buffered victim
        assert service.search_streamed("alpha").doc_ids == [b]

    def test_answers_invariant_across_flush(self):
        service = immediate_service()
        for text in (
            "alpha bravo",
            "bravo charlie",
            "alpha charlie delta",
        ):
            service.add_document(text)
        queries = [
            ("boolean", "alpha AND bravo"),
            ("boolean", "alpha AND NOT charlie"),
            ("streamed", "alpha OR delta"),
        ]
        before = {
            q: getattr(service, f"search_{kind}")(q).doc_ids
            for kind, q in queries
        }
        vector_before = [
            (d.doc_id, d.score)
            for d in service.search_vector({"alpha": 1.0, "bravo": 2.0})
        ]
        service.flush_and_publish()
        for kind, q in queries:
            assert getattr(service, f"search_{kind}")(q).doc_ids == before[q]
        vector_after = [
            (d.doc_id, d.score)
            for d in service.search_vector({"alpha": 1.0, "bravo": 2.0})
        ]
        assert vector_after == vector_before

    def test_immediate_tier_requires_configuration(self):
        service = QueryService(small_config())
        service.add_document("alpha")
        assert service.memtier is None
        assert service.search_streamed("alpha").doc_ids == []
        with pytest.raises(ValueError):
            QueryService(small_config(), read_tier="bogus")


class TestEpochCacheInteraction:
    def test_unrelated_write_revalidates_cached_entry(self):
        """An entry is valid at exactly the epoch it was computed at: a
        repeat with no write between is a hit; after any buffered write,
        even one touching disjoint terms, the lookup finds the entry
        invalid and recomputes the (equal) answer."""
        service = immediate_service()
        service.add_document("alpha bravo")
        assert service.search_streamed("alpha").doc_ids == [0]
        assert service.search_streamed("alpha").doc_ids == [0]
        stats = service.cache.stats()
        assert (stats.hits, stats.epoch_invalidations) == (1, 0)
        service.add_document("zulu yankee")
        assert service.search_streamed("alpha").doc_ids == [0]
        stats = service.cache.stats()
        assert (stats.hits, stats.epoch_invalidations) == (1, 1)

    def test_touching_write_invalidates_cached_entry(self):
        service = immediate_service()
        a = service.add_document("alpha bravo")
        assert service.search_streamed("alpha").doc_ids == [a]
        b = service.add_document("alpha charlie")
        assert service.search_streamed("alpha").doc_ids == [a, b]
        assert service.cache.stats().epoch_invalidations >= 1

    def test_delete_invalidates_even_disjoint_entries(self):
        service = immediate_service()
        a = service.add_document("alpha bravo")
        service.add_document("zulu")
        assert service.search_streamed("alpha").doc_ids == [a]
        service.delete_document(1)
        # Deletion dirties every cached entry (the filter is global).
        assert service.search_streamed("alpha").doc_ids == [a]
        assert service.cache.stats().epoch_invalidations >= 1


class TestBackgroundMerger:
    def test_drains_without_writer_flushes(self):
        service = immediate_service()
        merger = BackgroundMerger(service, min_buffered=8).start()
        try:
            ids = [
                service.add_document(f"alpha doc{chr(97 + i % 7)}")
                for i in range(40)
            ]
        finally:
            merger.stop()
        stats = merger.stats()
        assert stats["merges"] >= 1
        assert stats["errors"] == 0
        # Everything drained into the published snapshot...
        assert service.memtier_stats()["buffered_postings"] == 0
        assert service.snapshot().search_streamed("alpha").doc_ids == ids
        # ...and immediate answers were never wrong along the way (spot
        # check the final state).
        assert service.search_streamed("alpha").doc_ids == ids

    def test_requires_an_immediate_service(self):
        service = QueryService(small_config())
        with pytest.raises(ValueError):
            BackgroundMerger(service)


class TestShardedImmediate:
    def test_scattered_immediate_answers_match_oracle(self):
        service = immediate_service(shards=3)
        oracle = BruteForceIndex()
        texts = [
            "alpha bravo",
            "bravo charlie",
            "alpha delta echo",
            "delta echo",
            "alpha charlie",
        ]
        for i, text in enumerate(texts):
            doc_id = service.add_document(text)
            oracle.add_document(doc_id, text.split())
            if i == 2:
                service.flush_and_publish()
        service.delete_document(1)
        oracle.delete_document(1)
        for query in ("alpha AND NOT bravo", "bravo OR delta"):
            assert (
                service.search_boolean(query).doc_ids
                == oracle.search_boolean(query)
            ), query
        got = [
            (d.doc_id, d.score)
            for d in service.search_vector({"alpha": 1.0, "echo": 2.0})
        ]
        want = [
            (d.doc_id, d.score)
            for d in oracle.search_vector({"alpha": 1.0, "echo": 2.0})
        ]
        assert got == want


class TestGatewayImmediate:
    def test_cross_process_reads_before_flush(self):
        service = GatewayService(
            small_config(), shards=2, read_tier="immediate"
        )
        try:
            oracle = BruteForceIndex()
            for text in (
                "alpha bravo",
                "bravo charlie",
                "alpha delta",
                "charlie delta echo",
            ):
                doc_id = service.add_document(text)
                oracle.add_document(doc_id, text.split())
            # Nothing flushed: every worker's published snapshot is empty,
            # yet the scattered immediate answers see all four documents.
            for query in ("alpha OR charlie", "alpha AND NOT bravo"):
                assert (
                    service.search_boolean(query).doc_ids
                    == oracle.search_boolean(query)
                ), query
            assert service.search_streamed(
                "bravo AND charlie"
            ).doc_ids == oracle.search_streamed("bravo AND charlie")
            got = [
                (d.doc_id, d.score)
                for d in service.search_vector({"delta": 1.0, "alpha": 1.0})
            ]
            want = [
                (d.doc_id, d.score)
                for d in oracle.search_vector({"delta": 1.0, "alpha": 1.0})
            ]
            assert got == want
            # The stats report each shard's memory-tier epoch.
            service.flush_and_publish()
            assert len(service.gateway_stats()["mem_epochs"]) == 2
        finally:
            service.close()


class TestLoadgenImmediate:
    def test_immediate_loadgen_smoke(self):
        report = LoadGenerator(
            LoadConfig(
                readers=2,
                flush_cycles=3,
                docs_per_batch=8,
                vocabulary=30,
                verify=False,
                read_tier="immediate",
                differential=True,
                differential_probes=2,
                delete_every=7,
            )
        ).run()
        assert report.divergences == 0, report.divergence_examples
        assert report.visibility["misses"] == 0
        assert report.visibility["count"] == 3
        assert report.memtier["rebases"] == 3

    def test_background_merge_loadgen_smoke(self):
        report = LoadGenerator(
            LoadConfig(
                readers=2,
                flush_cycles=3,
                docs_per_batch=8,
                vocabulary=30,
                verify=False,
                read_tier="immediate",
                background_merge=True,
                differential=True,
                differential_probes=2,
                pace_s=0.005,
            )
        ).run()
        assert report.divergences == 0, report.divergence_examples
        assert report.visibility["misses"] == 0
        assert report.memtier["merger"]["errors"] == 0
        assert report.memtier["merger"]["merges"] >= 1

    def test_config_rejects_unverifiable_combinations(self):
        with pytest.raises(ValueError):
            LoadConfig(read_tier="immediate")  # verify defaults to True
        with pytest.raises(ValueError):
            # Range-checked where it is consumed: building the service.
            LoadGenerator(LoadConfig(read_tier="bogus", verify=False))
        with pytest.raises(ValueError):
            LoadConfig(verify=False, background_merge=True)
        with pytest.raises(ValueError):
            LoadConfig(
                verify=False,
                read_tier="immediate",
                background_merge=True,
                gateway=True,
            )
        # Crash plans compose with the immediate tier: it reads the
        # writer's own batch, which rollback and replay restore.
        LoadConfig(verify=False, read_tier="immediate", crash_every=4)
