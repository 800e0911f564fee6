"""Loadgen doc-skew + rebalance knobs: config validation, deterministic
skewed placement, and an end-to-end gateway run where the planner
splits the hot shard under live differential checking.
"""

from dataclasses import replace

import pytest

from repro.core.shard import shard_of
from repro.service import LoadConfig, LoadGenerator

SKEWED_CONFIG = LoadConfig(
    readers=2,
    flush_cycles=10,
    docs_per_batch=12,
    vocabulary=60,
    seed=41,
    verify=False,
    delete_every=9,
    pace_s=0.0005,
    differential=True,
    shards=2,
    gateway=True,
    replicas=1,
    doc_skew=2.5,
    rebalance=True,
    rebalance_threshold=1.2,
)


class TestConfigValidation:
    def test_rebalance_requires_gateway(self):
        with pytest.raises(ValueError, match="set gateway=True"):
            LoadConfig(shards=2, rebalance=True)

    def test_threshold_must_exceed_one(self):
        with pytest.raises(ValueError, match="rebalance_threshold"):
            LoadConfig(
                shards=2, gateway=True, verify=False, rebalance=True,
                rebalance_threshold=1.0,
            )

    def test_doc_skew_must_be_non_negative(self):
        with pytest.raises(ValueError, match="doc_skew"):
            LoadConfig(shards=2, doc_skew=-0.1)


class TestSkewedPlacement:
    def _ids(self, seed=7, n=60):
        """Draw the skewed id stream from an in-process (no gateway,
        no worker spawn) generator."""
        import random

        config = LoadConfig(
            shards=2, doc_skew=2.5, verify=False, flush_cycles=1
        )
        gen = LoadGenerator(config)
        rng = random.Random(seed)
        return config, [gen._skewed_doc_id(rng) for _ in range(n)]

    def test_skewed_ids_route_mostly_to_hot_shard(self):
        """The generator's Zipf weights make shard 0 the hot one; the
        explicit ids it emits must actually hash there under the
        epoch-0 router, which is what the imbalance claim rests on."""
        _, ids = self._ids()
        assert ids == sorted(set(ids))  # strictly increasing: valid ingest
        hot = sum(1 for d in ids if shard_of(d, 2) == 0)
        # Zipf s=2.5 aims ~85% of docs at shard 0.
        assert hot / len(ids) >= 0.7

    def test_skewed_id_stream_is_deterministic(self):
        _, first = self._ids()
        _, second = self._ids()
        assert first == second


def _skewed_run(read_tier: str):
    report = LoadGenerator(replace(SKEWED_CONFIG, read_tier=read_tier)).run()
    assert report.divergences == 0, report.divergence_examples
    reb = report.gateway["rebalance"]
    assert reb["splits"] >= 1
    assert reb["docs_moved"] > 0
    assert reb["routing_epoch"] >= 1
    assert len(reb["active_shards"]) >= 3
    assert report.gateway["replication"]["reads_waited_for_rebuild"] == 0
    assert report.config["rebalance"] is True
    assert report.config["doc_skew"] == 2.5
    return report


class TestEndToEnd:
    def test_planner_splits_hot_shard_without_divergence(self):
        _skewed_run("snapshot")

    def test_planner_splits_hot_shard_on_the_immediate_tier(self):
        """Differential checks run mid-buffer here, so every cycle after
        a split compares unflushed writes across the new topology."""
        report = _skewed_run("immediate")
        active = report.gateway["rebalance"]["active_shards"]
        assert len(report.gateway["mem_epochs"]) == len(active)
