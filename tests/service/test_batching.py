"""Micro-batching + single-flight coalescing battery (DESIGN.md §16).

The tentpole claim is byte-identity: batching changes only how reads
*travel* — frames, not answers.  The battery pins it four ways:

* hypothesis differential — a batched gateway, an unbatched gateway, the
  in-process :class:`ShardedTextIndex`, and the :class:`BruteForceIndex`
  oracle answer identically (doc ids, scores, read-op accounting) across
  shards × replicas × batch sizes × read tiers × publish modes;
* per-member error isolation — a poison member in a mixed batch errors
  alone, at the worker and through the gateway;
* the single-flight staleness guard — a coalesced waiter never receives
  an answer stamped older than its own admission point, even when a
  flush lands between the flight's evaluation and its resolution;
* frame parity — ``max_batch_size=1`` sends every read as its own plain
  ``versioned_read`` frame (zero batch envelopes), i.e. the PR 6 wire
  protocol, while the same workload batched sends zero standalone reads.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.sharded import ShardedTextIndex
from repro.query.reference import BruteForceIndex
from repro.service.gateway import (
    AsyncShardGateway,
    RemoteWorkerError,
    _covers,
)
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


async def _compare(batched, unbatched, local, oracle):
    boolean, streamed, vector = _queries()
    for query in boolean:
        got = await batched.search_boolean(query)
        twin = await unbatched.search_boolean(query)
        want = local.search_boolean(query)
        assert got.doc_ids == twin.doc_ids == want.doc_ids, query
        assert got.read_ops == twin.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_boolean(query), query
    for query in streamed:
        got = await batched.search_streamed(query)
        twin = await unbatched.search_streamed(query)
        want = local.search_streamed(query)
        assert got.doc_ids == twin.doc_ids == want.doc_ids, query
        assert got.read_ops == twin.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_streamed(query), query
    for weights in vector:
        got, got_ops = await batched.search_vector_counted(weights, top_k=5)
        twin, twin_ops = await unbatched.search_vector_counted(
            weights, top_k=5
        )
        want, want_ops = local.search_vector_counted(weights, top_k=5)
        scored = [(d.doc_id, d.score) for d in got]
        assert scored == [(d.doc_id, d.score) for d in twin], weights
        assert scored == [(d.doc_id, d.score) for d in want], weights
        assert got_ops == twin_ops == want_ops, weights
        ref = oracle.search_vector(weights, top_k=5)
        assert scored == [(d.doc_id, d.score) for d in ref], weights


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    docs=doc_words,
    shards=st.sampled_from([2, 3]),
    replicas=st.sampled_from([1, 2]),
    batch_size=st.sampled_from([2, 4, 16]),
    read_tier=st.sampled_from(["snapshot", "immediate"]),
    publish_mode=st.sampled_from(["cow", "clone"]),
    coalesce=st.booleans(),
)
def test_batched_equals_unbatched_equals_local_equals_oracle(
    docs, shards, replicas, batch_size, read_tier, publish_mode, coalesce
):
    async def main():
        kwargs = dict(
            shards=shards,
            replicas=replicas,
            read_tier=read_tier,
            publish_mode=publish_mode,
        )
        batched = AsyncShardGateway(
            small_config(),
            max_batch_size=batch_size,
            coalesce=coalesce,
            **kwargs,
        )
        unbatched = AsyncShardGateway(
            small_config(), max_batch_size=1, **kwargs
        )
        await batched.start()
        await unbatched.start()
        try:
            # No immediate tier in-process: every comparison below sits
            # on a flush boundary, where the tiers answer identically.
            local = ShardedTextIndex(small_config(), shards=shards)
            oracle = BruteForceIndex()
            flush_points = max(2, len(docs) // 3)
            for doc_id, words in enumerate(docs):
                text = " ".join(_word(w) for w in sorted(words))
                assert await batched.add_document(text) == doc_id
                assert await unbatched.add_document(text) == doc_id
                local.add_document(text)
                oracle.add_document(doc_id, text.split())
                if doc_id % flush_points == flush_points - 1:
                    await batched.flush()
                    await unbatched.flush()
                    local.flush_batch()
                    await _compare(batched, unbatched, local, oracle)
            await batched.flush()
            await unbatched.flush()
            local.flush_batch()
            await _compare(batched, unbatched, local, oracle)
            assert batched.batching.single_read_frames == 0
            assert batched.batching.batch_frames > 0
            assert unbatched.batching.batch_frames == 0
        finally:
            await batched.close()
            await unbatched.close()

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
        wire.Request(0, "search_streamed", ("wb", None)),
        wire.Request(1, "add_document", ("sneaky write", 99)),
        wire.Request(2, "search_streamed", ("wa AND", None)),
        wire.Request(3, "search_streamed", ("wa", None)),
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
        gateway = AsyncShardGateway(
            small_config(),
            shards=1,
            max_batch_size=8,
        )
        await gateway.start()
        try:
            await gateway.add_document("wa wb")
            await gateway.flush()
            good, bad = await asyncio.gather(
                gateway._read_shard(0, "search_streamed", ("wa", None)),
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


def test_single_flight_coalesces_identical_concurrent_queries():
    async def main():
        gateway = AsyncShardGateway(
            small_config(), shards=2, coalesce=True
        )
        await gateway.start()
        try:
            for i in range(6):
                await gateway.add_document(f"wa wb w{chr(ord('c') + i)}")
            await gateway.flush()
            gateway._coalesce_hold_s = 0.05  # keep the flight joinable
            answers = await asyncio.gather(
                *(gateway.search_boolean("wa AND wb") for _ in range(5))
            )
            assert all(a.doc_ids == answers[0].doc_ids for a in answers)
            assert all(a.read_ops == answers[0].read_ops for a in answers)
            assert gateway.batching.coalesce_hits >= 1
            assert gateway.batching.coalesce_misses >= 1
            # Distinct queries never share a flight.
            first = await gateway.search_boolean("wa AND wb")
            other = await gateway.search_boolean("wb OR wa")
            assert set(first.doc_ids) <= set(other.doc_ids)
        finally:
            await gateway.close()

    asyncio.run(main())


def test_single_flight_guard_refuses_stale_flight_after_flush():
    """The staleness-guard regression (ISSUE 9 satellite): a flush racing
    a coalesced read.  The leader evaluates, then holds with its future
    unresolved; a flush publishes new state; a later identical query must
    NOT join the held flight — its admission point postdates the flight's
    token — and must see the post-flush answer."""

    async def main():
        gateway = AsyncShardGateway(
            small_config(), shards=2, coalesce=True
        )
        await gateway.start()
        try:
            await gateway.add_document("wa wb")  # doc 0
            await gateway.flush()
            gateway._coalesce_hold_s = 0.4
            leader = asyncio.create_task(
                gateway.search_boolean("wa AND wb")
            )
            await asyncio.sleep(0.1)  # leader has evaluated, now holding
            gateway._coalesce_hold_s = 0.0
            await gateway.add_document("wa wb")  # doc 1
            await gateway.flush()
            joiner = await gateway.search_boolean("wa AND wb")
            # The joiner postdates the flush: it must see doc 1, which
            # the held flight's answer cannot contain.
            assert joiner.doc_ids == [0, 1]
            assert gateway.batching.coalesce_stale_skips >= 1
            leader_answer = await leader
            assert leader_answer.doc_ids == [0]
        finally:
            await gateway.close()

    asyncio.run(main())


def test_covers_token_comparison():
    assert _covers((1, 2), (1, 2))
    assert _covers((2, 2), (1, 2))
    assert not _covers((1, 2), (2, 2))
    assert not _covers((1, 2), (1, 2, 3))  # shape mismatch never joins
    assert not _covers((0, 5), (1, 4))  # must cover every component


def test_batch_size_one_reproduces_unbatched_wire_traffic():
    """Frame-count parity: with ``max_batch_size=1`` every logical read
    is one standalone ``versioned_read`` frame and no batch envelope
    exists anywhere — gateway counters and worker counters agree — while
    the identical workload batched sends only envelopes.  Every query
    mode is answer-level, so a lone query is one member per shard and
    its envelopes carry one member each; members of *different* queries
    share envelopes as soon as queries run concurrently."""

    async def drive(gateway):
        for i in range(8):
            await gateway.add_document(f"wa wb w{chr(ord('c') + i % 4)}")
        await gateway.flush()
        for _ in range(3):
            await gateway.search_boolean("wa AND wb")
            await gateway.search_streamed("wa OR wc")
            await gateway.search_vector_counted({"wa": 1.0, "wb": 2.0})

    async def main():
        plain = AsyncShardGateway(
            small_config(), shards=2, max_batch_size=1
        )
        batched = AsyncShardGateway(
            small_config(), shards=2, max_batch_size=16
        )
        await plain.start()
        await batched.start()
        try:
            await drive(plain)
            await drive(batched)
            assert plain.batching.batch_frames == 0
            assert plain.batching.batched_reads == 0
            assert (
                plain.batching.single_read_frames
                == plain.repl.reads_served
            )
            for rs in plain._sets:
                for replica in rs.replicas:
                    stats = await plain._call_replica(replica, "stats")
                    assert stats["batch_frames"] == 0
                    assert replica.batcher is None
            # Same logical reads, zero standalone frames when batched.
            assert batched.batching.single_read_frames == 0
            assert (
                batched.batching.batched_reads
                == batched.repl.reads_served
                == plain.repl.reads_served
            )
            assert (
                batched.batching.batch_frames
                == batched.batching.batched_reads
            )
            await asyncio.gather(
                *(batched.search_boolean("wa AND wb") for _ in range(8))
            )
            assert (
                batched.batching.batch_frames
                < batched.batching.batched_reads
            )
        finally:
            await plain.close()
            await batched.close()

    asyncio.run(main())


def test_member_deadline_is_individual():
    """A member blocked behind a slow worker misses its own deadline as
    ``ShardDeadlineExceeded`` without cancelling the shared batch RPC."""

    async def main():
        gateway = AsyncShardGateway(
            small_config(),
            shards=1,
            max_batch_size=4,
            shard_timeout_s=0.2,
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
