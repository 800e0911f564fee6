"""Replication chaos battery: SIGKILL one replica mid-flush and prove
the shard never stops answering.

PR 6's chaos battery proved a *single-worker* shard recovers from a
mid-flush SIGKILL — at the cost of reads stalling until checkpoint
restore + op-log replay completes.  With ``replicas=2`` the same murder
must be invisible to readers: the surviving replica completes the flush
and keeps serving (zero divergences against the in-process twin, zero
invariant violations) while the victim is rebuilt in the background and
replays its op log.  The test holds the rebuild open
(``_rebuild_hold_s``) to *prove* reads land on the survivor during the
recovery window rather than racing past it.

The k=1 degenerate case is pinned too: without a sibling, a read during
recovery must wait out the rebuild — the full-recovery-latency path the
replication bench quantifies.

Both read tiers take the murder.  On the immediate tier the window that
matters is *between* flushes, where the acknowledged, unflushed documents
are exactly what the tier exists to serve: a replica rebuilt there must
come back into the read rotation, not sit healthy and ineligible until
the next flush (it did, while a per-process memory-tier epoch was part
of the version guard).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.index import IndexConfig
from repro.core.sharded import ShardedTextIndex
from repro.query.reference import BruteForceIndex
from repro.service.gateway import AsyncShardGateway, GatewayService
from repro.service.replication import ReplicaState
from repro.storage.faults import FaultPlan

# One crash point per phase of the mid-flush danger window.
CRASH_POINTS = [
    "index.flush-begin",
    "index.before-word-append",
    "index.before-shadow-flush",
    "index.before-release",
    "index.before-clear",
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
        store_contents=True,
        crash_safe=True,
    )


def _local_twin() -> ShardedTextIndex:
    return ShardedTextIndex(crash_config(), shards=2)


async def _assert_parity(gateway, local, context):
    for query in QUERIES:
        got = await gateway.search_boolean(query)
        want = local.search_boolean(query)
        assert got.doc_ids == want.doc_ids, (context, query)
    for query in QUERIES[:2]:
        got = await gateway.search_streamed(query)
        want = local.search_streamed(query)
        assert got.doc_ids == want.doc_ids, (context, query)


@pytest.mark.slow
@pytest.mark.parametrize("read_tier", ["snapshot", "immediate"])
@pytest.mark.parametrize("crash_at", CRASH_POINTS)
def test_sigkill_one_replica_mid_flush_survivor_serves(crash_at, read_tier):
    async def body():
        gateway = AsyncShardGateway(
            crash_config(),
            shards=2,
            replicas=2,
            fault_plans={(0, 0): FaultPlan(crash_at=crash_at, crash_at_hit=1)},
            kill_on_crash=True,
            read_tier=read_tier,
        )
        # Hold every rebuild open long enough that the post-crash reads
        # demonstrably run *during* the recovery window.
        gateway._rebuild_hold_s = 0.5
        await gateway.start()
        try:
            local = _local_twin()
            for text in DOCS[:6]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.delete_document(1)
            local.delete_document(1)
            # Replica (0, 0) SIGKILLs itself inside this flush; replica
            # (0, 1) completes it, so the flush returns a real outcome
            # without waiting for the victim's rebuild.
            await gateway.flush()
            local.flush_batch()
            assert gateway.stats.failovers == 1, crash_at
            assert gateway.stats.worker_kills_observed == 1
            victim = gateway._sets[0].replicas[0]
            assert victim.state is ReplicaState.RECOVERING
            # Availability during recovery: every query answers, from
            # the survivor, without waiting for the rebuild.
            await _assert_parity(gateway, local, crash_at)
            assert victim.state is ReplicaState.RECOVERING, (
                "reads should not have waited out the rebuild"
            )
            assert gateway.repl.reads_waited_for_rebuild == 0
            assert gateway.repl.read_failovers > 0
            # The victim comes back: checkpoint restore + op-log replay.
            await gateway.quiesce()
            assert victim.state is ReplicaState.HEALTHY
            shard0 = gateway._sets[0]
            assert all(map(shard0.eligible, shard0.replicas))
            assert gateway.repl.rebuilds_completed == 1
            assert gateway.stats.replayed_ops > 0
            # Life goes on, replicated: ingest, flush, full parity, and
            # the rebuilt replica is back in the write fan-out.
            for text in DOCS[6:]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            assert gateway.stats.failovers == 1  # no new deaths
            assert gateway.repl.replica_divergences == 0
            await _assert_parity(gateway, local, crash_at)
            report = await gateway.check()
            assert report.ok, report.violations
        finally:
            await gateway.close()

    asyncio.run(body())


@pytest.mark.slow
def test_unreplicated_read_waits_out_recovery():
    """k=1 control arm: a murder with no sibling forces the next read
    to wait for checkpoint restore + replay (PR 6 behavior, the
    full-recovery-latency baseline the bench compares against).  The
    kill is out-of-band so a *read* — not a flush — discovers the
    corpse and pays the wait."""

    async def body():
        gateway = AsyncShardGateway(crash_config(), shards=2, replicas=1)
        await gateway.start()
        try:
            local = _local_twin()
            for text in DOCS[:6]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            gateway.kill_replica(0, 0)
            await _assert_parity(gateway, local, "k=1")
            assert gateway.repl.reads_waited_for_rebuild > 0
            assert gateway.repl.rebuilds_completed == 1
            assert (await gateway.check()).ok
        finally:
            await gateway.close()

    asyncio.run(body())


@pytest.mark.slow
def test_kill_replica_between_flushes_is_invisible():
    """An out-of-band SIGKILL (no crash plan — the bench's murder
    weapon) between flushes: reads keep flowing, the next flush fans to
    the survivor, and the rebuilt victim rejoins with zero divergence."""

    async def body():
        gateway = AsyncShardGateway(
            crash_config(), shards=2, replicas=2
        )
        await gateway.start()
        try:
            local = _local_twin()
            for text in DOCS[:5]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            gateway.kill_replica(0, 0)
            # The gateway has not noticed yet; the next operations
            # discover the corpse and fail over inline.
            for text in DOCS[5:8]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            await _assert_parity(gateway, local, "kill_replica")
            await gateway.quiesce()
            assert gateway.repl.rebuilds_completed == 1
            assert gateway.repl.replica_divergences == 0
            for text in DOCS[8:]:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            await _assert_parity(gateway, local, "kill_replica post")
            assert (await gateway.check()).ok
        finally:
            await gateway.close()

    asyncio.run(body())


@pytest.mark.slow
def test_checkpoint_deferred_while_victim_rebuilds():
    """The op-log truncation invariant under fire: a checkpoint round
    landing while one replica is mid-rebuild must be deferred (clearing
    the log would orphan the victim's catch-up replay), then succeed
    once the set is whole again."""

    async def body():
        gateway = AsyncShardGateway(crash_config(), shards=1, replicas=2)
        gateway._rebuild_hold_s = 0.5
        await gateway.start()
        try:
            for text in DOCS[:4]:
                await gateway.add_document(text)
            await gateway.flush()
            assert gateway._sets[0].oplog == []  # checkpointed + cleared
            gateway.kill_replica(0, 1)
            for text in DOCS[4:7]:
                await gateway.add_document(text)
            await gateway.flush()  # discovers the corpse mid-fan-out
            assert gateway.repl.checkpoints_deferred >= 1
            assert len(gateway._sets[0].oplog) > 0  # log retained
            await gateway.quiesce()
            for text in DOCS[7:]:
                await gateway.add_document(text)
            await gateway.flush()  # whole again: checkpoint + truncate
            assert gateway._sets[0].oplog == []
            assert all(
                r.log_pos == 0 for r in gateway._sets[0].replicas
            )
            assert (await gateway.check()).ok
        finally:
            await gateway.close()

    asyncio.run(body())


def _ingest(service, oracle, texts):
    for text in texts:
        oracle.add_document(service.add_document(text), text.split())


def _assert_oracle(service, oracle, context):
    for query in QUERIES:
        got = service.search_boolean(query).doc_ids
        assert got == oracle.search_boolean(query), (context, query)


def _worker_queries(service) -> dict[int, int]:
    """Reads each replica's worker process has evaluated so far."""
    return {
        w["replica"]: w["queries"] for w in service.gateway_stats()["workers"]
    }


@pytest.mark.slow
def test_immediate_tier_rebuilt_replica_rejoins_the_rotation():
    """Kill between flushes on the immediate tier, no flush afterwards:
    the rebuilt replica is eligible again and takes its share of the
    reads, so the *other* replica can die next — every answer, unflushed
    documents included, equal to the brute-force oracle."""
    service = GatewayService(
        crash_config(), shards=1, replicas=2, read_tier="immediate"
    )
    try:
        oracle = BruteForceIndex()
        _ingest(service, oracle, DOCS[:5])
        service.flush_and_publish()
        _ingest(service, oracle, DOCS[5:8])  # acknowledged, unflushed
        rs = service.gateway._sets[0]
        repl = service.gateway.repl
        for round_, victim in enumerate((0, 1), start=1):
            service.kill_replica(0, victim)
            # The rotation lands on the corpse within two reads and
            # fails over inline.
            _assert_oracle(service, oracle, f"kill r{victim}")
            service.wait_for_recovery()
            assert repl.rebuilds_completed == round_
            assert all(map(rs.eligible, rs.replicas)), rs.replicas
            failovers = repl.read_failovers
            before = _worker_queries(service)
            _assert_oracle(service, oracle, f"rebuilt r{victim}")  # 2k reads
            assert repl.read_failovers == failovers
            after = _worker_queries(service)
            assert all(after[j] > before[j] for j in (0, 1)), (before, after)
        assert repl.reads_waited_for_rebuild == 0
        assert repl.replica_divergences == 0
        assert service.check().ok
    finally:
        service.close()


@pytest.mark.slow
def test_immediate_tier_unreplicated_read_after_rebuild_sees_unflushed():
    """k=1 on the immediate tier: the read that finds the corpse waits
    out checkpoint restore + replay and then answers with the document
    acknowledged since the last flush — the replay rebuilt the worker's
    buffer, so nothing has to wait for a flush."""
    service = GatewayService(
        crash_config(), shards=1, replicas=1, read_tier="immediate"
    )
    try:
        oracle = BruteForceIndex()
        _ingest(service, oracle, DOCS[:5])
        service.flush_and_publish()
        _ingest(service, oracle, ["quince zucchini"])  # unflushed
        service.kill_replica(0, 0)
        assert service.search_boolean("zucchini").doc_ids == [5]
        assert service.gateway.repl.reads_waited_for_rebuild == 1
        service.wait_for_recovery()
        rs = service.gateway._sets[0]
        assert rs.eligible(rs.replicas[0])
        _assert_oracle(service, oracle, "k=1 rebuilt")
        assert service.search_boolean("zucchini").doc_ids == [5]
        assert service.check().ok
    finally:
        service.close()


# -- base + chain (DESIGN.md §19) -------------------------------------------------


async def _assert_oracle_async(gateway, oracle, context):
    for query in QUERIES:
        got = await gateway.search_boolean(query)
        assert got.doc_ids == oracle.search_boolean(query), (context, query)


async def _materialized_is_the_writer(gateway, shard: int) -> None:
    """The gateway's materialized restore point equals a base the shard
    writes itself right now, byte for byte."""
    rs = gateway._sets[shard]
    reply = await gateway._locked_rpc(rs.healthy()[0], "checkpoint", (None,))
    assert not reply.record
    assert gateway._checkpoints[shard] == reply.blob


@pytest.mark.slow
def test_replica_rebuilt_from_a_chain_answers_like_its_sibling():
    """Kill replica 0 while the restore point is a base plus records:
    the rebuild restores base + chain + op-log tail and then answers
    every query like the brute-force oracle, charging exactly the read
    ops its untouched sibling charges."""
    service = GatewayService(crash_config(), shards=1, replicas=2)
    try:
        oracle = BruteForceIndex()
        _ingest(service, oracle, DOCS[:5])
        service.flush_and_publish()  # a base
        _ingest(service, oracle, DOCS[5:7])
        service.delete_document(2)
        oracle.delete_document(2)
        service.flush_and_publish()  # a record chained on it
        rs = service.gateway._sets[0]
        repl = service.gateway.repl
        assert len(rs.chain) == 1 and repl.checkpoint_bases == 1
        pending = service.add_document(DOCS[7])  # journaled only
        service.kill_replica(0, 0)
        _assert_oracle(service, oracle, "kill r0")  # fails over inline
        service.wait_for_recovery()
        assert repl.rebuilds_completed == 1
        service.flush_and_publish()
        oracle.add_document(pending, DOCS[7].split())
        before = _worker_queries(service)
        for query in QUERIES:
            first = service.search_boolean(query)
            second = service.search_boolean(query)
            assert first.doc_ids == oracle.search_boolean(query), query
            assert second.doc_ids == first.doc_ids, query
            assert second.read_ops == first.read_ops, query
        after = _worker_queries(service)
        assert all(after[j] > before[j] for j in (0, 1)), (before, after)
        assert repl.replica_divergences == 0
        service._run(_materialized_is_the_writer(service.gateway, 0))
        assert service.check().ok
    finally:
        service.close()


@pytest.mark.slow
def test_a_discarded_checkpoint_is_never_chained_onto():
    """A sibling dies while the checkpoint RPC is in flight, so the
    gateway drops the answer (its op log must stay for the rebuild).
    The answer's token was fresh: the next round names the set's old
    token, the worker no longer holds it, and the answer is a base — a
    record chained on the dropped answer would not restore."""

    async def body():
        gateway = AsyncShardGateway(crash_config(), shards=1, replicas=2)
        await gateway.start()
        try:
            rs = gateway._sets[0]
            oracle = BruteForceIndex()
            for chunk in (DOCS[:3], DOCS[3:5]):
                for text in chunk:
                    oracle.add_document(
                        await gateway.add_document(text), text.split()
                    )
                await gateway.flush()
            assert gateway.repl.checkpoint_records == 1
            real_rpc = gateway._locked_rpc

            async def sibling_dies_during_checkpoint(replica, method, args):
                value = await real_rpc(replica, method, args)
                if method == "checkpoint":
                    gateway.kill_replica(0, 1)
                    gateway._note_death(rs, rs.replicas[1])
                return value

            gateway._locked_rpc = sibling_dies_during_checkpoint
            for text in DOCS[5:7]:
                oracle.add_document(
                    await gateway.add_document(text), text.split()
                )
            deferred = gateway.repl.checkpoints_deferred
            await gateway.flush()
            gateway._locked_rpc = real_rpc
            assert gateway.repl.checkpoints_deferred == deferred + 1
            assert len(rs.oplog) > 0 and len(rs.chain) == 1
            await gateway.quiesce()
            bases = gateway.repl.checkpoint_bases
            records = gateway.repl.checkpoint_records
            for text in DOCS[7:]:
                oracle.add_document(
                    await gateway.add_document(text), text.split()
                )
            await gateway.flush()
            assert gateway.repl.checkpoint_bases == bases + 1
            assert gateway.repl.checkpoint_records == records
            assert rs.chain == [] and rs.oplog == []
            await _assert_oracle_async(gateway, oracle, "after the base")
            await _materialized_is_the_writer(gateway, 0)
        finally:
            await gateway.close()

    asyncio.run(body())


@pytest.mark.slow
def test_split_while_the_victim_has_a_chain():
    """The new shard spawns from the victim's base + chain (the split
    asks the victim for nothing), answers exactly, and rebuilds from its
    own restore point after a murder."""

    async def body():
        gateway = AsyncShardGateway(crash_config(), shards=2, replicas=2)
        await gateway.start()
        try:
            oracle = BruteForceIndex()
            for chunk in (DOCS[:4], DOCS[4:7], DOCS[7:]):
                for text in chunk:
                    oracle.add_document(
                        await gateway.add_document(text), text.split()
                    )
                await gateway.flush()
            await gateway.delete_document(3)
            oracle.delete_document(3)
            await gateway.flush()
            point = gateway._sets[0].restore_point()
            assert len(point) >= 2  # a base and at least one record
            new_id = await gateway.split_shard(0)
            restore = gateway._sets[new_id].replicas[0].worker.spec.restore
            assert restore == point
            await _assert_oracle_async(gateway, oracle, "split")
            gateway.kill_replica(new_id, 0)
            await _assert_oracle_async(gateway, oracle, "split")
            await gateway.quiesce()
            assert gateway.repl.rebuilds_completed == 1
            assert gateway.repl.replica_divergences == 0
            for shard in (0, new_id):
                await _materialized_is_the_writer(gateway, shard)
            assert (await gateway.check()).ok
        finally:
            await gateway.close()

    asyncio.run(body())


@pytest.mark.slow
def test_a_failed_replica_does_not_hold_the_op_log():
    """A replica whose rebuild cannot respawn parks at FAILED and never
    leaves it.  It has no replay in flight, so checkpoint rounds go on
    past it: the log is truncated at every flush and no round is
    deferred (at the parent every later round deferred and the log, and
    every later replay, grew without bound)."""

    async def body():
        gateway = AsyncShardGateway(crash_config(), shards=1, replicas=2)
        await gateway.start()
        try:
            rs = gateway._sets[0]
            oracle = BruteForceIndex()
            for text in DOCS[:3]:
                oracle.add_document(
                    await gateway.add_document(text), text.split()
                )
            await gateway.flush()
            real_spawn = gateway._spawn

            async def no_machine_for_respawns(replica, spec):
                if replica.state is ReplicaState.RECOVERING:  # a rebuild
                    raise OSError("no machine to respawn on")
                await real_spawn(replica, spec)

            gateway._spawn = no_machine_for_respawns
            gateway.kill_replica(0, 1)
            # The write finds the corpse.
            oracle.add_document(
                await gateway.add_document(DOCS[3]), DOCS[3].split()
            )
            await gateway.quiesce()
            assert rs.replicas[1].state is ReplicaState.FAILED
            assert gateway.repl.rebuild_failures == 1
            deferred = gateway.repl.checkpoints_deferred
            for text in DOCS[4:9]:
                oracle.add_document(
                    await gateway.add_document(text), text.split()
                )
                await gateway.flush()
                assert rs.oplog == []
                assert gateway.repl.checkpoints_deferred == deferred
            await _assert_oracle_async(gateway, oracle, "one replica failed")
        finally:
            await gateway.close()

    asyncio.run(body())
