"""Sharded serving: scatter-gather behind the snapshot machinery.

Extends the stress battery to a document-hash-sharded writer: snapshots
publish the per-shard version *vector* atomically, both publish modes
serve answers identical to the brute-force reference and to a fresh
full-clone oracle (differential), and crash injection recovers without
divergence.  The result cache's shard-vector guard is pinned directly.
"""

from dataclasses import replace

import pytest

from repro.core.sharded import ShardedTextIndex
from repro.service import LoadConfig, LoadGenerator, QueryService
from repro.service.cache import QueryResultCache
from repro.storage import faults

SHARDED_CONFIG = LoadConfig(
    readers=3,
    flush_cycles=10,
    docs_per_batch=12,
    vocabulary=80,
    seed=1994,
    verify=True,
    check_invariants=True,
    delete_every=7,
    pace_s=0.0005,
    differential=True,
    shards=3,
)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


class TestShardedService:
    @pytest.mark.parametrize("publish_mode", ["clone", "cow"])
    def test_sharded_serving_is_divergence_free(self, publish_mode):
        config = replace(SHARDED_CONFIG, publish_mode=publish_mode)
        report = LoadGenerator(config).run()
        assert report.divergences == 0, report.divergence_examples
        assert report.config["shards"] == 3
        assert report.config["differential_checks"] == config.flush_cycles
        service = report.service
        assert service["publishes"] == config.flush_cycles
        assert report.queries > 0
        if publish_mode == "cow":
            assert service["cow_publishes"] >= 1
        else:
            assert service["cow_publishes"] == 0

    def test_sharded_crash_injection_recovers_cleanly(self):
        config = replace(
            SHARDED_CONFIG,
            publish_mode="cow",
            crash_every=3,
            transient_rate=0.01,
        )
        report = LoadGenerator(config).run()
        assert report.divergences == 0, report.divergence_examples
        assert report.service["publishes"] == config.flush_cycles
        assert report.service["flush_recoveries"] >= 1

    def test_writer_is_sharded_and_snapshot_carries_vector(self):
        service = QueryService(shards=3, router_seed=2)
        assert isinstance(service.writer_index, ShardedTextIndex)
        for n in range(8):
            service.add_document(f"wa wb w{chr(ord('c') + n)}")
        service.flush_and_publish()
        snapshot = service.snapshot()
        assert len(snapshot.shard_versions) == 3
        assert sum(snapshot.shard_versions) >= 1
        assert snapshot.ndocs == 8

    def test_single_shard_default_is_single_volume(self):
        service = QueryService()
        assert not isinstance(service.writer_index, ShardedTextIndex)
        assert service.shards == 1
        service.add_document("wa wb")
        service.flush_and_publish()
        assert service.snapshot().shard_versions == (1,)

    def test_service_validates_shard_knobs(self):
        with pytest.raises(ValueError):
            QueryService(shards=0)


class TestCacheShardVector:
    def test_version_mismatch_drops_entry_at_newest_snapshot(self):
        cache = QueryResultCache(capacity=8)
        key = ("boolean", "wa AND wb")
        cache.put(key, (1, 2), snapshot_id=5, versions=(3, 1))
        assert cache.get(key, 5, versions=(3, 1)) == (1, 2)
        # Same snapshot id but a different shard vector: the entry must
        # not be served (shard layout or out-of-band advance) — and it
        # is dropped so the recomputed answer replaces it.
        assert cache.get(key, 5, versions=(3, 2)) is None
        assert cache.get(key, 5, versions=(3, 1)) is None

    def test_publish_delta_advances_vector(self):
        cache = QueryResultCache(capacity=8)
        key = ("boolean", "wa")
        cache.put(
            key, (0,), snapshot_id=1, terms=frozenset({"wa"}),
            versions=(1, 0),
        )
        cache.publish_delta(
            2,
            dirty_terms=frozenset({"wz"}),
            universe_changed=False,
            deletions_changed=False,
            versions=(1, 1),
        )
        assert cache.get(key, 2, versions=(1, 1)) == (0,)
        assert cache.get(key, 2, versions=(1, 0)) is None

    def test_older_snapshot_lookup_skips_vector_check(self):
        cache = QueryResultCache(capacity=8)
        key = ("vector", ("wa",))
        cache.put(key, (9,), snapshot_id=3, versions=(2,))
        cache.publish_delta(
            4,
            dirty_terms=frozenset(),
            universe_changed=False,
            deletions_changed=False,
            versions=(3,),
        )
        # A reader still pinned to snapshot 3 carries the old vector;
        # the interval admits it and the vector guard only applies at
        # the entry's newest snapshot.
        assert cache.get(key, 3, versions=(2,)) == (9,)
