"""Sharded serving: scatter-gather behind the snapshot machinery.

Extends the stress battery to a document-hash-sharded writer: snapshots
publish the per-shard version *vector* atomically and serve answers
identical to the driver's brute-force mirror (differential), and crash
injection recovers without divergence, each recovered shard falling back
to the full clone alone and counted.
"""

from dataclasses import replace

import pytest

from repro.core.sharded import ShardedTextIndex
from repro.service import LoadConfig, LoadGenerator, QueryService
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
    def test_sharded_serving_is_divergence_free(self):
        config = SHARDED_CONFIG
        report = LoadGenerator(config).run()
        assert report.divergences == 0, report.divergence_examples
        assert report.config["shards"] == 3
        assert report.config["differential_checks"] == config.flush_cycles
        service = report.service
        assert service["publishes"] == config.flush_cycles
        assert report.queries > 0
        assert service["cow_publishes"] >= 1

    def test_sharded_crash_injection_recovers_cleanly(self):
        config = replace(
            SHARDED_CONFIG, crash_every=3, transient_rate=0.01
        )
        report = LoadGenerator(config).run()
        assert report.divergences == 0, report.divergence_examples
        service = report.service
        assert service["publishes"] == config.flush_cycles
        assert service["flush_recoveries"] >= 1
        # A recovered shard falls back to the full clone, counted — its
        # siblings keep sharing.
        assert service["cow_fallbacks"] >= 1
        assert (
            service["cow_publishes"] + service["full_clone_publishes"]
            == service["publishes"]
        )

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

