"""Gateway online split battery: answers stay byte-identical to the
in-process sharded index and the brute-force oracle while shards split
under live traffic, on both read tiers, and the move survives replica
death mid-protocol.

The protocol under test (DESIGN.md §17): at a flush boundary a split
brings the new shard up from the victim's parent-side restore point and
op log, tombstones each side's foreign half, and cuts the routing table
over *flip-first* — the overlap window where both shards hold the movers
is exactly what the gateway's unique-merge collapses.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.index import IndexConfig
from repro.core.rebalance import RebalancePolicy
from repro.core.sharded import ShardedTextIndex
from repro.query.reference import BruteForceIndex
from repro.service.gateway import AsyncShardGateway, GatewayService


def small_config() -> IndexConfig:
    return IndexConfig(
        nbuckets=8,
        bucket_size=32,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
    )


def _word(n: int) -> str:
    return f"w{chr(ord('a') + n - 1)}"


BOOLEAN = [
    "wa AND wb",
    "wb OR wc",
    "(wa AND wb) OR wd",
    "wa AND NOT wb",
    "NOT wa",
    "wz AND wa",
]
STREAMED = ["wa AND wb", "wc OR wd", "wa AND wb AND wc"]
VECTORS = [
    {"wa": 2.0, "wb": 1.0},
    {"wc": 1.0, "wd": 3.0, "wa": 1.0},
]


async def _compare(gateway, local, oracle):
    """Three-way parity: gateway ≡ in-process sharded ≡ oracle, for
    answers *and* (vs the local index) read-op accounting."""
    for query in BOOLEAN:
        got = await gateway.search_boolean(query)
        want = local.search_boolean(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_boolean(query), query
    for query in STREAMED:
        got = await gateway.search_streamed(query)
        want = local.search_streamed(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.doc_ids == oracle.search_streamed(query), query
    for weights in VECTORS:
        got = await gateway.search_vector(weights, top_k=5)
        want = oracle.search_vector(weights, top_k=5)
        assert [(d.doc_id, d.score) for d in got] == [
            (d.doc_id, d.score) for d in want
        ], weights


def _docs(n, stride=5):
    return [
        {1 + (i % stride), 1 + ((i * 3) % 7), 1 + ((i * 5) % 9)}
        for i in range(n)
    ]


def _worker_processes(gateway):
    """Every replica set is an active shard's (nothing retires a set)
    and each runs ``replicas`` live processes; returns them so the
    caller can assert ``close()`` reaped every one."""
    assert len(gateway._sets) == len(gateway._active)
    processes = [
        r.worker.process for rs in gateway._sets for r in rs.replicas
    ]
    live = sum(p.is_alive() for p in processes)
    assert live == len(gateway._active) * gateway.replicas
    return processes


async def _ingest(gateway, local, oracle, docs, start=0):
    for i, words in enumerate(docs):
        text = " ".join(_word(w) for w in sorted(words))
        doc_id = await gateway.add_document(text)
        assert doc_id == start + i
        local.add_document(text)
        oracle.add_document(doc_id, text.split())
    await gateway.flush()
    local.flush_batch()


async def _split_during_traffic(read_tier: str) -> None:
    """Split under traffic, then write under the new epoch.  On the
    immediate tier the post-split writes are compared unflushed, again
    once a replica of the new shard has been killed and rebuilt from
    its restore point plus op log, and once more after the flush."""
    gateway = AsyncShardGateway(
        small_config(), shards=2, replicas=2, router_seed=1,
        read_tier=read_tier,
    )
    await gateway.start()
    try:
        local = ShardedTextIndex(small_config(), shards=2, router_seed=1)
        oracle = BruteForceIndex()
        await _ingest(gateway, local, oracle, _docs(20))
        await _compare(gateway, local, oracle)
        counts = gateway.placement.counts(gateway._active)
        victim = max(counts, key=counts.get)
        new_id = await gateway.split_shard(victim)
        assert local.split_shard(victim) == new_id
        assert gateway.routing.epoch == 1
        await _compare(gateway, local, oracle)
        # Post-split traffic routes under the new epoch.
        for i, words in enumerate(_docs(6, stride=3), start=20):
            text = " ".join(_word(w) for w in sorted(words))
            await gateway.add_document(text)
            local.add_document(text)
            oracle.add_document(i, text.split())
        await gateway.delete_document(4)
        local.delete_document(4)
        oracle.delete_document(4)
        if read_tier == "immediate":
            await _compare(gateway, local, oracle)
            # The new shard's rebuild must replay unflushed writes.
            assert any(op[0] == "add" for op in gateway._sets[new_id].oplog)
            gateway.kill_replica(new_id, 0)
            await _compare(gateway, local, oracle)
            await gateway.quiesce()
            assert gateway.repl.rebuilds_completed == 1
        await gateway.flush()
        local.flush_batch()
        await _compare(gateway, local, oracle)
        assert gateway.repl.reads_waited_for_rebuild == 0
        assert gateway.repl.replica_divergences == 0
        assert gateway.rebalance.splits == 1
        assert gateway.rebalance.docs_moved > 0
        processes = _worker_processes(gateway)
    finally:
        await gateway.close()
    assert not any(p.is_alive() for p in processes)


class TestSplitMergeDifferential:
    def test_split_during_traffic_matches_local_and_oracle(self):
        asyncio.run(_split_during_traffic("snapshot"))

    def test_split_during_traffic_on_the_immediate_tier(self):
        asyncio.run(_split_during_traffic("immediate"))


class TestChaos:
    def test_replica_death_during_split_fails_over(self):
        """SIGKILL one replica of the victim right before the split:
        the tombstone writes fail over to the surviving sibling, no
        read ever waits for the rebuild, and parity holds afterwards."""

        async def body():
            gateway = AsyncShardGateway(
                small_config(), shards=2, replicas=2, router_seed=1
            )
            await gateway.start()
            try:
                local = ShardedTextIndex(
                    small_config(), shards=2, router_seed=1
                )
                oracle = BruteForceIndex()
                await _ingest(gateway, local, oracle, _docs(20))
                counts = gateway.placement.counts(gateway._active)
                victim = max(counts, key=counts.get)
                gateway.kill_replica(victim, 0)
                new_id = await gateway.split_shard(victim)
                local.split_shard(victim)
                assert new_id == 2
                await gateway.quiesce()
                processes = _worker_processes(gateway)
                await _compare(gateway, local, oracle)
                assert gateway.repl.reads_waited_for_rebuild == 0
                assert (await gateway.check()).ok
            finally:
                await gateway.close()
            assert not any(p.is_alive() for p in processes)

        asyncio.run(body())

    def test_both_victim_replicas_dead_before_split(self):
        """SIGKILL *every* replica of the victim right before the split:
        the new shard is built from the parent-side restore point and op
        log alone, the mover tombstones find the corpses and wait out a
        rebuild, and answers, read ops and invariants hold."""

        async def body():
            gateway = AsyncShardGateway(
                small_config(), shards=2, replicas=2, router_seed=1
            )
            await gateway.start()
            try:
                local = ShardedTextIndex(
                    small_config(), shards=2, router_seed=1
                )
                oracle = BruteForceIndex()
                await _ingest(gateway, local, oracle, _docs(20))
                counts = gateway.placement.counts(gateway._active)
                victim = max(counts, key=counts.get)
                gateway.kill_replica(victim, 0)
                gateway.kill_replica(victim, 1)
                new_id = await gateway.split_shard(victim)
                assert local.split_shard(victim) == new_id
                await gateway.quiesce()
                assert gateway.repl.rebuilds_completed == 2
                assert gateway.repl.replica_divergences == 0
                processes = _worker_processes(gateway)
                await _compare(gateway, local, oracle)
                assert (await gateway.check()).ok
            finally:
                await gateway.close()
            assert not any(p.is_alive() for p in processes)

        asyncio.run(body())


class TestPlannerDriven:
    def test_flush_auto_splits_under_skew(self):
        """With rebalance=True, skewed explicit-id placement makes the
        flush-boundary planner split the hot shard on its own; answers
        never diverge from the oracle and imbalance drops."""

        async def body():
            gateway = AsyncShardGateway(
                small_config(),
                shards=2,
                replicas=1,
                router_seed=1,
                rebalance=True,
                rebalance_policy=RebalancePolicy(
                    max_imbalance=1.3,
                    min_docs=12,
                    min_shard_docs=4,
                    cooldown=0,
                ),
            )
            await gateway.start()
            try:
                oracle = BruteForceIndex()
                doc_id = 0
                for cycle in range(3):
                    for _ in range(10):
                        while gateway.routing.route(doc_id) != 0:
                            doc_id += 1
                        text = " ".join(
                            _word(1 + (doc_id + k) % 8) for k in range(3)
                        )
                        await gateway.add_document(text, doc_id)
                        oracle.add_document(doc_id, text.split())
                        doc_id += 1
                    await gateway.flush()
                    for query in BOOLEAN:
                        got = await gateway.search_boolean(query)
                        assert (
                            got.doc_ids == oracle.search_boolean(query)
                        ), query
                assert gateway.rebalance.splits >= 1
                assert gateway.routing.epoch >= 1
                assert gateway.repl.reads_waited_for_rebuild == 0
                processes = _worker_processes(gateway)
            finally:
                await gateway.close()
            assert not any(p.is_alive() for p in processes)

        asyncio.run(body())


async def _split_between_flushes(read_tier: str, events: list) -> None:
    gateway = AsyncShardGateway(
        small_config(), shards=2, replicas=2, router_seed=1,
        read_tier=read_tier,
    )
    await gateway.start()
    try:
        for i in range(10):
            await gateway.add_document(f"wa {_word(1 + i % 5)}")
        await gateway.flush()
        doc_id = await gateway.add_document("wa wb")
        victim = gateway.route(doc_id)
        oplog = list(gateway._sets[victim].oplog)
        with pytest.raises(ValueError, match="flush boundary"):
            await gateway.split_shard(victim)
        assert gateway.routing.epoch == 0
        assert len(gateway._sets) == 2
        assert gateway._sets[victim].oplog == oplog
        await gateway.flush()
        assert await gateway.split_shard(victim) == 2
        assert gateway.routing.epoch == 1
        # The refusal is an event of its own, before the split that
        # follows the flush; every shard checkpoints at each boundary
        # and the new shard's first restore point is a base.
        assert {name for name, _ in events} == {
            "checkpoint", "split.refused", "split.cutover"
        }
        splits = [(n, f) for n, f in events if n.startswith("split.")]
        assert [(n, f["shard"]) for n, f in splits] == [
            ("split.refused", victim), ("split.cutover", victim)
        ]
        assert "flush boundary" in splits[0][1]["reason"]
        assert splits[1][1]["new_shard"] == 2
        checkpoints = [
            (f["shard"], f["kind"]) for n, f in events if n == "checkpoint"
        ]
        assert checkpoints[-1] == (2, "base")
    finally:
        await gateway.close()


class TestGuardsAndStats:
    def test_split_between_flushes_is_refused(self, events):
        """A split replays the victim's op log into the new shard, so it
        runs at a flush boundary only: with an unflushed add pending it
        refuses before anything is spawned, routed or journaled."""
        asyncio.run(_split_between_flushes("snapshot", events))

    def test_split_between_flushes_is_refused_on_the_immediate_tier(
        self, events
    ):
        """The same one rule on the tier that serves the unflushed add."""
        asyncio.run(_split_between_flushes("immediate", events))

    def test_mem_epochs_cover_every_active_shard_after_a_split(self):
        """The cutover publishes the new shard into every per-shard
        report at once, the memory-tier epochs included, not at the
        next flush."""
        service = GatewayService(
            small_config(), shards=2, router_seed=1, read_tier="immediate"
        )
        try:
            for i in range(12):
                service.add_document(f"{_word(1 + i % 5)} {_word(2)}")
            service.flush_and_publish()
            service.split_shard(0)
            stats = service.gateway_stats()
            active = stats["rebalance"]["active_shards"]
            assert len(active) == 3
            assert len(stats["mem_epochs"]) == len(active)
            assert len(service.snapshot().shard_versions) == len(active)
        finally:
            service.close()

    def test_delete_of_never_added_hole_raises(self):
        async def body():
            gateway = AsyncShardGateway(small_config(), shards=2)
            await gateway.start()
            try:
                await gateway.add_document("wa wb", 0)
                await gateway.add_document("wb wc", 5)  # ids 1-4 are holes
                with pytest.raises(ValueError, match="never added"):
                    await gateway.delete_document(3)
            finally:
                await gateway.close()

        asyncio.run(body())

    def test_routing_epoch_rides_stats_and_snapshot(self):
        service = GatewayService(small_config(), shards=2, router_seed=1)
        try:
            for i in range(12):
                service.add_document(f"{_word(1 + i % 5)} {_word(2)}")
            service.flush_and_publish()
            assert service.snapshot().routing_epoch == 0
            assert service.gateway_stats()["routing_epoch"] == 0
            service.split_shard(0)
            assert service.gateway.routing.epoch == 1
            assert service.snapshot().routing_epoch == 1
            stats = service.gateway_stats()
            assert stats["routing_epoch"] == 1
            assert stats["rebalance"]["splits"] == 1
            assert stats["rebalance"]["docs_moved"] >= 0
        finally:
            service.close()
