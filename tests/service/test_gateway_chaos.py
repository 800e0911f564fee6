"""Chaos battery: SIGKILL a shard worker mid-flush and prove the
gateway notices, replays per-shard recovery, and resumes serving with
zero divergences and zero invariant violations.

The workers reuse the crash-plan machinery from ``storage.faults``:
``kill_on_crash=True`` turns an injected crash at a registered crash
point into ``os.kill(getpid(), SIGKILL)`` — the worker dies exactly the
way a machine does, mid-write, with no chance to flush or apologize.
The parent-side oplog ends with the flush marker, so the failover
replay *finishes the interrupted flush* on the replacement worker.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.index import IndexConfig
from repro.core.sharded import ShardedTextIndex
from repro.service.gateway import AsyncShardGateway, GatewayService
from repro.storage.faults import FaultPlan

# One crash point per phase of the mid-flush danger window: entering the
# flush, about to overwrite the long-list shadow, and batch on disk with
# the restart boundary not yet sealed.
CRASH_POINTS = [
    "index.flush-begin",
    "index.before-shadow-flush",
    "index.before-recovery-point",
]

DOCS = [
    "apple banana cherry",
    "banana date elderberry",
    "cherry fig grape",
    "apple grape honeydew",
    "kiwi lemon apple banana",
    "mango banana cherry date",
    "nectarine apple fig",
    "banana cherry lemon mango",
    "papaya quince banana",
    "raspberry apple cherry",
]

QUERIES = [
    "apple AND banana",
    "cherry OR fig",
    "banana AND NOT apple",
    "NOT banana",
]


def crash_config() -> IndexConfig:
    return IndexConfig(
        nbuckets=16,
        bucket_size=64,
        block_postings=8,
        ndisks=2,
        nblocks_override=100_000,
        crash_safe=True,
    )


def _local_twin() -> ShardedTextIndex:
    return ShardedTextIndex(crash_config(), shards=2)


@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_sigkill_mid_flush_recovers_and_resumes(crash_at):
    async def body():
        gateway = AsyncShardGateway(
            crash_config(),
            shards=2,
            fault_plans={
                (0, 0): FaultPlan(crash_at=crash_at, crash_at_hit=1)
            },
            kill_on_crash=True,
        )
        await gateway.start()
        try:
            local = _local_twin()
            for text in DOCS[:6]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.delete_document(1)
            local.delete_document(1)
            # This flush walks worker 0 into the armed crash point; the
            # worker SIGKILLs itself mid-write.  The gateway must detect
            # the death, respawn, replay the oplog (which ends with the
            # flush marker, completing the interrupted flush), and still
            # return an aggregate result.
            await gateway.flush()
            local.flush_batch()
            assert gateway.stats.failovers >= 1, crash_at
            assert gateway.stats.worker_kills_observed >= 1
            for query in QUERIES:
                got = await gateway.search_boolean(query)
                want = local.search_boolean(query)
                assert got.doc_ids == want.doc_ids, (crash_at, query)
            report = await gateway.check()
            assert report.ok, report.violations
            # Life goes on: the replacement worker (fault plan cleared by
            # respawn_spec) ingests, flushes, and queries normally.
            failovers_after_crash = gateway.stats.failovers
            for text in DOCS[6:]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            assert gateway.stats.failovers == failovers_after_crash
            for query in ("apple AND banana", "cherry OR fig"):
                got = await gateway.search_streamed(query)
                want = local.search_streamed(query)
                assert got.doc_ids == want.doc_ids, (crash_at, query)
            for query in QUERIES:
                got = await gateway.search_boolean(query)
                want = local.search_boolean(query)
                assert got.doc_ids == want.doc_ids, (crash_at, query)
            report = await gateway.check()
            assert report.ok, report.violations
        finally:
            await gateway.close()

    asyncio.run(body())


def test_second_hit_crash_spares_first_flush():
    """Arm the crash on the *second* flush: the first publish succeeds
    and seeds a checkpoint, so the failover restores state rather than
    rebuilding from an empty volume."""

    async def body():
        gateway = AsyncShardGateway(
            crash_config(),
            shards=2,
            fault_plans={
                (0, 0): FaultPlan(
                    crash_at="index.flush-begin", crash_at_hit=2
                )
            },
            kill_on_crash=True,
        )
        await gateway.start()
        try:
            local = _local_twin()
            for text in DOCS[:4]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()  # survives: hit 1 < crash_at_hit
            local.flush_batch()
            assert gateway.stats.failovers == 0
            for text in DOCS[4:8]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()  # hit 2: worker 0 dies mid-flush
            local.flush_batch()
            assert gateway.stats.failovers >= 1
            for query in QUERIES:
                got = await gateway.search_boolean(query)
                want = local.search_boolean(query)
                assert got.doc_ids == want.doc_ids, query
            assert (await gateway.check()).ok
        finally:
            await gateway.close()

    asyncio.run(body())


def test_chaos_through_service_facade():
    """The synchronous facade surfaces none of the violence: a caller
    sees a slow flush, not an error, and the stats ledger records the
    failover."""
    service = GatewayService(
        crash_config(),
        shards=2,
        fault_plans={
            (0, 0): FaultPlan(
                crash_at="index.before-shadow-flush", crash_at_hit=1
            )
        },
        kill_on_crash=True,
    )
    try:
        local = _local_twin()
        for text in DOCS[:8]:
            service.add_document(text)
            local.add_document(text)
        result, snapshot = service.flush_and_publish()
        local.flush_batch()
        assert snapshot.ndocs == 8
        stats = service.gateway_stats()
        assert stats["failovers"] >= 1
        assert stats["replayed_ops"] > 0
        for query in QUERIES:
            got = service.search_boolean(query)
            want = local.search_boolean(query)
            assert got.doc_ids == want.doc_ids, query
        assert service.check().ok
    finally:
        service.close()
