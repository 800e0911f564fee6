"""The gateway's one read protocol: batch frames (DESIGN.md §16).

Batching changes only how reads *travel* — frames, not answers.  The
battery pins it three ways:

* hypothesis differential — the gateway, the in-process
  :class:`ShardedTextIndex` and the :class:`BruteForceIndex` oracle
  answer identically (doc ids, scores, read-op accounting) across shards
  × replicas × read tiers, and at one client every query
  is exactly one single-member frame per active shard;
* per-member error isolation — a poison member in a mixed batch errors
  alone, at the worker and through the gateway;
* per-member deadlines — a late member is abandoned without cancelling
  the frame it shares.
"""

from __future__ import annotations

import asyncio
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.sharded import ShardedTextIndex
from repro.query.reference import BruteForceIndex
from repro.service.gateway import AsyncShardGateway, RemoteWorkerError
from repro.service.worker import ShardWorker, WorkerSpec


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


doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=5),
    min_size=4,
    max_size=16,
)


def _queries():
    boolean = [
        "wa AND wb",
        "(wa AND wb) OR wd",
        "wa AND NOT wb",
        "wz AND wa",  # unknown word
    ]
    streamed = ["wa AND wb", "wc OR wd"]
    vector = [{"wa": 2.0, "wb": 1.0}, {"wz": 1.0, "wc": 2.0}]
    return boolean, streamed, vector


async def _compare(batched, local, oracle) -> int:
    """Every probe query on all three sides; returns how many ran."""
    boolean, streamed, vector = _queries()
    for query in boolean:
        got = await batched.search_boolean(query)
        want = local.search_boolean(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_boolean(query), query
    for query in streamed:
        got = await batched.search_streamed(query)
        want = local.search_streamed(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_streamed(query), query
    for weights in vector:
        got, got_ops = await batched.search_vector_counted(weights, top_k=5)
        want, want_ops = local.search_vector_counted(weights, top_k=5)
        scored = [(d.doc_id, d.score) for d in got]
        assert scored == [(d.doc_id, d.score) for d in want], weights
        assert got_ops == want_ops, weights
        ref = oracle.search_vector(weights, top_k=5)
        assert scored == [(d.doc_id, d.score) for d in ref], weights
    return len(boolean) + len(streamed) + len(vector)


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    docs=doc_words,
    shards=st.sampled_from([2, 3]),
    replicas=st.sampled_from([1, 2]),
    read_tier=st.sampled_from(["snapshot", "immediate"]),
)
def test_batched_equals_local_equals_oracle(docs, shards, replicas, read_tier):
    async def main():
        batched = AsyncShardGateway(
            small_config(),
            shards=shards,
            replicas=replicas,
            read_tier=read_tier,
        )
        await batched.start()
        try:
            # No immediate tier in-process: every comparison below sits
            # on a flush boundary, where the tiers answer identically.
            local = ShardedTextIndex(small_config(), shards=shards)
            oracle = BruteForceIndex()
            queries = 0
            flush_points = max(2, len(docs) // 3)
            for doc_id, words in enumerate(docs):
                text = " ".join(_word(w) for w in sorted(words))
                assert await batched.add_document(text) == doc_id
                local.add_document(text)
                oracle.add_document(doc_id, text.split())
                if doc_id % flush_points == flush_points - 1:
                    await batched.flush()
                    local.flush_batch()
                    queries += await _compare(batched, local, oracle)
            await batched.flush()
            local.flush_batch()
            queries += await _compare(batched, local, oracle)
            # Frame parity at one client, all three modes, either tier:
            # a query is one frame of one member per active shard, and
            # nothing reads outside a frame.
            counters = batched.batching
            assert counters.batch_frames == queries * shards
            assert counters.batched_reads == counters.batch_frames
            assert asdict(counters)["single_read_frames"] == 0
            assert batched.repl.reads_served == counters.batched_reads
        finally:
            await batched.close()

    asyncio.run(main())


def test_worker_isolates_poison_members_in_a_mixed_batch():
    """One bad member errors alone; batchmates answer, and the whole
    reply carries a single version stamp."""
    worker = ShardWorker(WorkerSpec(shard_id=0, index_config=small_config()))
    worker.add_document("wa wb", 0)
    worker.add_document("wb wc", 1)
    worker.flush(False)

    from repro.service import wire

    members = (
        wire.Request(0, "search_streamed", ("wb",)),
        wire.Request(1, "add_document", ("sneaky write", 99)),
        wire.Request(2, "search_streamed", ("wa AND",)),
        wire.Request(3, "search_streamed", ("wa",)),
    )
    responses, version = worker.batched_read(members)
    assert len(responses) == 4
    good_b, bad_write, bad_query, good_a = responses
    assert good_b.ok and good_b.value[0] == [0, 1]
    assert good_a.ok and good_a.value[0] == [0]
    assert not bad_write.ok and "not a read method" in bad_write.error
    assert not bad_query.ok and bad_query.error
    assert version == worker.writer.batches
    # The refused write never touched the index.
    assert worker.writer.ndocs == 2


def test_gateway_isolates_poison_members_in_a_mixed_batch():
    """Concurrent reads sharing one batch frame: the poison member's
    waiter gets its typed error, the good member its answer."""

    async def main():
        gateway = AsyncShardGateway(small_config(), shards=1)
        await gateway.start()
        try:
            await gateway.add_document("wa wb")
            await gateway.flush()
            good, bad = await asyncio.gather(
                gateway._read_shard(0, "search_streamed", ("wa",)),
                gateway._read_shard(0, "bogus_method", ()),
                return_exceptions=True,
            )
            assert good[0] == [0]
            assert isinstance(bad, RemoteWorkerError)
            assert "not a read method" in str(bad)
            # Both members traveled in one envelope.
            assert gateway.batching.histogram.get(2, 0) >= 1
        finally:
            await gateway.close()

    asyncio.run(main())


def test_coalesce_keyword_is_refused():
    """The benchmark harness still passes ``coalesce=False``; any other
    value names a mechanism that no longer exists."""
    with pytest.raises(ValueError, match="TRIAL_batching"):
        AsyncShardGateway(small_config(), shards=2, coalesce=True)
    AsyncShardGateway(small_config(), shards=2, coalesce=False)


def test_member_deadline_is_individual():
    """A member blocked behind a slow worker misses its own deadline as
    ``ShardDeadlineExceeded`` without cancelling the shared batch RPC."""

    async def main():
        gateway = AsyncShardGateway(
            small_config(), shards=1, shard_timeout_s=0.2
        )
        await gateway.start()
        try:
            await gateway.add_document("wa wb")
            await gateway.flush()
            replica = gateway._sets[0].replicas[0]
            # Stall the worker loop so the batch cannot be answered in
            # time, then watch the member read miss its deadline.
            stall = asyncio.create_task(
                gateway._locked_rpc(replica, "debug_sleep", (0.6,))
            )
            await asyncio.sleep(0.01)
            answer = gateway.search_boolean("wa AND wb")
            from repro.service.gateway import ShardDeadlineExceeded

            with pytest.raises(ShardDeadlineExceeded):
                await answer
            await stall
            # The connection survives: the late batch reply drains and
            # a fresh read succeeds.
            fresh = await gateway.search_boolean("wa AND wb")
            assert fresh.doc_ids == [0]
        finally:
            await gateway.close()

    asyncio.run(main())
