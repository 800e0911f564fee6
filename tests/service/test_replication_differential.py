"""Differential property battery for the *replicated* gateway.

The tentpole claim: a gateway running k replicas per shard answers
**byte-identically** — doc ids, scores, and read-op accounting — to an
in-process :class:`ShardedTextIndex` with the same shard count and
router seed, and set-identically to the :class:`BruteForceIndex` oracle,
across (shards × replicas × router seeds × read tiers) for boolean,
streamed, and vector queries.  Replication must be *invisible* to
correctness: every replica of a shard applies the same journaled op
sequence, so whichever one the round-robin rotation lands a read on,
the answer is the same.  The battery rotates reads across replicas on
purpose (several probes per boundary) so a divergent replica cannot
hide behind the rotation.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
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
    )


def _word(n: int) -> str:
    return f"w{chr(ord('a') + n - 1)}"


doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=5),
    min_size=4,
    max_size=18,
)


def _queries():
    boolean = [
        "wa AND wb",
        "wb OR wc",
        "(wa AND wb) OR wd",
        "wa AND NOT wb",
        "NOT wa",
        "wz AND wa",  # unknown word
    ]
    streamed = ["wa AND wb", "wc OR wd", "wa AND wb AND wc"]
    vector = [
        {"wa": 2.0, "wb": 1.0},
        {"wc": 1.0, "wd": 3.0, "wa": 1.0},
        {"wz": 1.0, "wb": 2.0},
    ]
    return boolean, streamed, vector


async def _compare(gateway, local, oracle):
    """One boundary's probe round.  Each query runs once; consecutive
    reads advance the rotation cursor, so over the probe set every
    replica slot serves some of them."""
    boolean, streamed, vector = _queries()
    for query in boolean:
        got = await gateway.search_boolean(query)
        want = local.search_boolean(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_boolean(query), query
    for query in streamed:
        got = await gateway.search_streamed(query)
        want = local.search_streamed(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_streamed(query), query
    for weights in vector:
        got, got_ops = await gateway.search_vector_counted(weights, top_k=5)
        want, want_ops = local.search_vector_counted(weights, top_k=5)
        assert [(d.doc_id, d.score) for d in got] == [
            (d.doc_id, d.score) for d in want
        ], weights
        assert got_ops == want_ops, weights
        ref = oracle.search_vector(weights, top_k=5)
        assert [(d.doc_id, d.score) for d in got] == [
            (d.doc_id, d.score) for d in ref
        ], weights


async def _drive(docs, stride, shards, replicas, seed, read_tier):
    gateway = AsyncShardGateway(
        small_config(),
        shards=shards,
        replicas=replicas,
        router_seed=seed,
        read_tier=read_tier,
    )
    await gateway.start()
    try:
        local = ShardedTextIndex(
            small_config(), shards=shards, router_seed=seed
        )
        oracle = BruteForceIndex()
        flush_points = max(2, len(docs) // 3)
        for doc_id, words in enumerate(docs):
            text = " ".join(_word(w) for w in sorted(words))
            assert await gateway.add_document(text) == doc_id
            local.add_document(text)
            oracle.add_document(doc_id, text.split())
            if stride and doc_id % (stride + 2) == stride:
                victim = doc_id // 2
                await gateway.delete_document(victim)
                local.delete_document(victim)
                oracle.delete_document(victim)
            if doc_id % flush_points == flush_points - 1:
                await gateway.flush()
                local.flush_batch()
                if read_tier == "snapshot":
                    await _compare(gateway, local, oracle)
        await gateway.flush()
        local.flush_batch()
        await _compare(gateway, local, oracle)
        # Replication-specific ledger: no replica disagreed with a
        # sibling on any flush outcome, and nothing went stale.
        assert gateway.repl.replica_divergences == 0
        assert gateway.repl.stale_discarded == 0
        assert gateway.stats.failovers == 0
        report = await gateway.check()
        assert report.ok, report.violations
    finally:
        await gateway.close()


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    docs=doc_words,
    shards=st.sampled_from([2, 3]),
    replicas=st.sampled_from([1, 2]),
    seed=st.sampled_from([0, 97]),
    stride=st.integers(min_value=0, max_value=3),
)
def test_replicated_gateway_matches_sharded_and_oracle(
    docs, shards, replicas, seed, stride
):
    asyncio.run(_drive(docs, stride, shards, replicas, seed, "snapshot"))


@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    docs=doc_words,
    stride=st.integers(min_value=0, max_value=3),
)
def test_replicated_immediate_tier_matches_at_boundaries(docs, stride):
    """The immediate tier composes with replication: mem-epoch stamps
    ride the version vector and boundary answers still match (mid-buffer
    parity is covered in-process by the memtier battery; here the point
    is that replica rotation + epoch validation don't perturb it)."""
    asyncio.run(_drive(docs, stride, 2, 2, 0, "immediate"))


@pytest.mark.parametrize("read_tier", ["snapshot", "immediate"])
def test_four_shards_two_replicas_deterministic(read_tier):
    """The CI smoke shape: 4 shards × 2 replicas, deletions, multiple
    flushes, full three-way parity at every boundary."""
    docs = [
        {1 + (i % 6), 1 + ((i * 3) % 8), 1 + ((i * 5) % 10)}
        for i in range(24)
    ]
    asyncio.run(_drive(docs, 2, 4, 2, 7, read_tier))


def test_reads_rotate_across_replicas():
    """Load balancing is real: with 2 replicas and several reads, both
    replica slots serve traffic (the rotation cursor advances per read)."""

    async def body():
        gateway = AsyncShardGateway(small_config(), shards=1, replicas=2)
        await gateway.start()
        try:
            for text in ("wa wb", "wb wc", "wa wc"):
                await gateway.add_document(text)
            await gateway.flush()
            before = [
                (await gateway._locked_rpc(r, "stats", ()))["queries"]
                for r in gateway._sets[0].replicas
            ]
            for _ in range(6):
                await gateway.search_streamed("wa AND wb")
            after = [
                (await gateway._locked_rpc(r, "stats", ()))["queries"]
                for r in gateway._sets[0].replicas
            ]
            served = [a - b for a, b in zip(after, before)]
            assert all(s > 0 for s in served), served
            assert gateway.repl.reads_served >= 6
        finally:
            await gateway.close()

    asyncio.run(body())


def test_facade_exposes_replication_stats():
    service = GatewayService(small_config(), shards=2, replicas=2)
    try:
        for i in range(6):
            service.add_document(f"wa wb w{chr(ord('c') + i)}")
        service.flush_and_publish()
        assert service.search_streamed("wa AND wb").doc_ids == list(range(6))
        stats = service.gateway_stats()
        repl = stats["replication"]
        assert repl["replicas"] == 2
        assert repl["reads_served"] >= 2  # one per shard at least
        assert repl["replica_divergences"] == 0
        assert len(stats["workers"]) == 4  # 2 shards x 2 replicas
        # Worker publish counters sum across replicas: each dirty
        # shard published once per replica.
        assert stats["publishes"] == 4
    finally:
        service.close()
