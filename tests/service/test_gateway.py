"""Gateway unit tests: the shard-worker seam, deadlines, backpressure,
and checkpoint+oplog failover.

The tentpole claims pinned here:

* A worker's handler errors cross the process boundary typed, and the
  connection survives them.
* A per-shard deadline surfaces as the typed partial failure
  :class:`ShardDeadlineExceeded` naming the late shards, and the
  connection survives (the late exchange is abandoned, never cancelled,
  so it reads its own reply and the stream stays framed).
* Admission control sheds load with :class:`GatewayOverloaded` once the
  bounded wait queue fills — it never queues unboundedly.
* A SIGKILLed worker is rebuilt from the parent-side checkpoint plus the
  replayed op log with no acknowledged operation lost.

Slow shards are made, not configured: :func:`park` holds one replica's
single-threaded worker in a ``debug_sleep``, and the searches bound for
it queue behind the sleep on its connection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.core.index import IndexConfig
from repro.core.sharded import ShardedTextIndex
from repro.service import wire
from repro.service.gateway import (
    AsyncShardGateway,
    GatewayOverloaded,
    GatewayService,
    RemoteWorkerError,
    ShardDeadlineExceeded,
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


DOCS = [
    "apple banana cherry",
    "banana date elderberry",
    "cherry fig grape",
    "apple grape honeydew",
    "kiwi lemon apple banana",
    "mango banana cherry date",
    "nectarine apple fig",
    "banana cherry lemon mango",
]


def run_gateway(coro_fn, **gateway_kwargs):
    """Run an async test body against a started gateway, then close it."""

    async def main():
        gateway_kwargs.setdefault("config", small_config())
        gateway = AsyncShardGateway(**gateway_kwargs)
        await gateway.start()
        try:
            return await coro_fn(gateway)
        finally:
            await gateway.close()

    return asyncio.run(main())


def park(gateway, shard: int, replica: int, seconds: float):
    """Block one replica's worker loop for ``seconds``: the sleep holds
    its connection, so every read bound for it waits behind the sleep."""
    target = gateway._sets[shard].replicas[replica]
    return asyncio.ensure_future(
        gateway._locked_rpc(target, "debug_sleep", (seconds,))
    )


class TestWorkerProcess:
    def test_remote_errors_are_typed(self):
        async def body(gateway):
            replica = gateway._sets[0].replicas[0]
            with pytest.raises(RemoteWorkerError, match="ValueError"):
                await gateway._locked_rpc(replica, "delete_document", (999,))
            # Reads exist only as batch members: a bare request naming
            # one (or the removed unbatched wrapper) is no method at all,
            # so no answer can come back without a version stamp.
            for method, args in (
                ("no_such_method", ()),
                ("versioned_read", ("eval_boolean", ("apple", 0))),
                ("eval_boolean", ("apple", 0)),
            ):
                with pytest.raises(RemoteWorkerError, match="UnknownMethod"):
                    await gateway._locked_rpc(replica, method, args)
            # The connection survives a handler error.
            info = await gateway._locked_rpc(replica, "info", ())
            assert info["ndocs"] == 0

        run_gateway(body, shards=1)


class TestDeadlines:
    def test_slow_shard_raises_typed_partial_failure(self):
        async def body(gateway):
            for text in DOCS:
                await gateway.add_document(text)
            await gateway.flush()
            query = "apple OR banana"
            want = (await gateway.search_boolean(query)).doc_ids
            sleeper = park(gateway, 0, 0, 1.0)
            await asyncio.sleep(0.05)
            gateway.shard_timeout_s = 0.1
            with pytest.raises(ShardDeadlineExceeded) as info:
                await gateway.search_boolean(query)
            assert info.value.shards == (0,)
            # The sibling shard answered in time, and the error says so.
            assert info.value.completed == 1
            assert gateway.stats.deadline_exceeded == 1
            await sleeper
            # The late member was abandoned, not cancelled: its frame
            # read its own reply, and the next read on the same
            # connection gets its own answer.
            assert (await gateway.search_boolean(query)).doc_ids == want

        run_gateway(body, shards=2)

    def test_deadline_inside_a_reply_keeps_the_stream_framed(self):
        """A member deadline that fires after a batch reply's header and
        before the end of its payload must not cancel the read: a
        cancelled ``readexactly`` leaves the header consumed, and the
        next exchange then reads payload bytes as a header (``BadFrame``,
        on a replica nothing marks unhealthy).  Driven through the read
        path on an in-memory stream, since only there can a reply be
        cut."""

        class StubWriter:
            def write(self, data):
                pass

            async def drain(self):
                pass

        async def main():
            gateway = AsyncShardGateway(small_config(), shards=1)
            replica = gateway._sets[0].replicas[0]
            replica.reader = asyncio.StreamReader()
            replica.writer = StubWriter()
            replica.lock = asyncio.Lock()

            def reply(request_id, answer):
                return wire.encode(
                    wire.Response(request_id, True, (((True, answer),), 0))
                )

            first = reply(1, (list(range(200)), 5))
            second = reply(2, ([7], 1))
            cut = wire.HEADER_BYTES + 7
            replica.reader.feed_data(first[:cut])
            gateway.shard_timeout_s = 0.05
            with pytest.raises(ShardDeadlineExceeded):
                await gateway._read_shard(0, "search_streamed", ("wa",))
            assert gateway.stats.deadline_exceeded == 1
            replica.reader.feed_data(first[cut:] + second)
            got = await gateway._read_shard(0, "search_streamed", ("wb",))
            assert got == ([7], 1)

        asyncio.run(main())

    def test_deadline_covers_queue_wait(self):
        async def body(gateway):
            # Occupy the single-threaded worker; the query behind it
            # must count its wait against the deadline.
            sleeper = park(gateway, 0, 0, 0.6)
            await asyncio.sleep(0.05)
            gateway.shard_timeout_s = 0.15
            with pytest.raises(ShardDeadlineExceeded) as info:
                await gateway.search_boolean("apple AND banana")
            assert 0 in info.value.shards
            await sleeper

        run_gateway(body, shards=2)


class TestAdmissionControl:
    def test_bounded_queue_sheds_load(self):
        async def body(gateway):
            sleeper = park(gateway, 0, 0, 0.5)
            await asyncio.sleep(0.05)
            first = asyncio.create_task(gateway.search_boolean("apple"))
            await asyncio.sleep(0.05)
            second = asyncio.create_task(gateway.search_boolean("apple"))
            await asyncio.sleep(0.05)
            # max_inflight=1 is executing (queued behind the parked
            # replica), queue_limit=1 is waiting: the third arrival must
            # be shed immediately, not queued.
            with pytest.raises(GatewayOverloaded):
                await gateway.search_boolean("apple")
            assert gateway.stats.shed == 1
            await sleeper
            assert (await first).doc_ids == (await second).doc_ids == []

        run_gateway(body, shards=1, max_inflight=1, queue_limit=1)

    def test_admission_recovers_after_drain(self):
        async def body(gateway):
            await gateway.add_document(DOCS[0])
            await gateway.flush()
            sleeper = park(gateway, 0, 0, 0.2)
            await asyncio.sleep(0.05)
            blocker = asyncio.create_task(gateway.search_boolean("apple"))
            await asyncio.sleep(0.05)
            queued = asyncio.create_task(gateway.search_boolean("apple"))
            await asyncio.sleep(0.05)
            with pytest.raises(GatewayOverloaded):
                await gateway.search_boolean("apple")
            await sleeper
            await blocker
            await queued
            # Once the queue drains, admission resumes.
            got = await gateway.search_boolean("apple")
            assert got.doc_ids == [0]

        run_gateway(body, shards=1, max_inflight=1, queue_limit=1)


class TestFailover:
    def test_sigkill_then_query_recovers_acked_state(self):
        async def body(gateway):
            local = ShardedTextIndex(small_config(), shards=2)
            for text in DOCS:
                await gateway.add_document(text)
                local.add_document(text)
            await gateway.flush()
            local.flush_batch()
            # Unflushed tail: these live only in worker memory + oplog.
            await gateway.add_document("papaya quince apple")
            local.add_document("papaya quince apple")
            gateway._sets[0].replicas[0].worker.process.kill()
            gateway._sets[1].replicas[0].worker.process.kill()
            answer = await gateway.search_boolean("apple AND banana")
            want = local.search_boolean("apple AND banana")
            assert answer.doc_ids == want.doc_ids
            assert gateway.stats.failovers == 2
            # The unflushed tail survived the murder: flush and see it.
            await gateway.flush()
            local.flush_batch()
            got = await gateway.search_boolean("papaya")
            assert got.doc_ids == local.search_boolean("papaya").doc_ids
            report = await gateway.check()
            assert report.ok

        run_gateway(body, shards=2)

    def test_failover_respects_checkpoint_cadence(self):
        """A rebuild replays every batch past its shard's restore point,
        however many there are: with the checkpoint step held after the
        first flush, flushes 2 and 3 ride the op log."""

        async def body(gateway):
            checkpoint = gateway._checkpoint_shard

            async def first_flush_only(i):
                if gateway._batches == 1:
                    await checkpoint(i)

            gateway._checkpoint_shard = first_flush_only
            local = ShardedTextIndex(small_config(), shards=2)
            for cycle in range(3):
                for text in DOCS[cycle * 2 : cycle * 2 + 2]:
                    await gateway.add_document(text)
                    local.add_document(text)
                await gateway.flush()
                local.flush_batch()
            oplog = gateway._sets[0].oplog
            assert [op for op in oplog if op[0] == "flush"] == [
                ("flush", False)
            ] * 2
            gateway._sets[0].replicas[0].worker.process.kill()
            answer = await gateway.search_streamed("banana AND cherry")
            want = local.search_streamed("banana AND cherry")
            assert answer.doc_ids == want.doc_ids
            assert gateway.stats.failovers == 1
            assert gateway.stats.replayed_ops > 0

        run_gateway(body, shards=2)


class TestGatewayService:
    def test_facade_roundtrip_and_stats(self):
        service = GatewayService(small_config(), shards=2)
        try:
            for text in DOCS:
                service.add_document(text)
            service.delete_document(1)
            result, snapshot = service.flush_and_publish()
            assert result.batch == 1
            assert snapshot.ndocs == len(DOCS)
            assert snapshot.deleted == frozenset({1})
            local = ShardedTextIndex(small_config(), shards=2)
            for text in DOCS:
                local.add_document(text)
            local.delete_document(1)
            local.flush_batch()
            got = service.search_boolean("banana OR fig", snapshot)
            want = local.search_boolean("banana OR fig")
            assert got.doc_ids == want.doc_ids
            assert got.read_ops == want.read_ops
            got = service.search_streamed("apple AND banana")
            want = local.search_streamed("apple AND banana")
            assert got.doc_ids == want.doc_ids
            gv = service.search_vector({"banana": 2.0, "fig": 1.0}, top_k=4)
            lv = local.search_vector({"banana": 2.0, "fig": 1.0}, top_k=4)
            assert [(d.doc_id, d.score) for d in gv] == [
                (d.doc_id, d.score) for d in lv
            ]
            assert service.check().ok
            stats = service.gateway_stats()
            assert stats["publishes"] == 2  # one per dirty shard
            assert stats["failovers"] == 0
            assert service.stats.documents_ingested == len(DOCS)
            assert service.stats.queries_served == 3
        finally:
            service.close()

    def test_close_is_idempotent(self):
        service = GatewayService(small_config(), shards=1)
        service.close()
        service.close()

    def test_failed_start_reaps_its_workers(self, monkeypatch, events):
        """A constructor that raises leaves nothing behind: nothing holds
        the half-built service, so nobody else could close it.  The
        second of three worker spawns fails; the two that started and
        the loop thread are gone by the time the error arrives, and the
        one event names the replica that failed and why."""
        import multiprocessing
        import threading

        from repro.service import gateway as gateway_module

        def loops():
            return {
                t for t in threading.enumerate() if t.name == "gateway-loop"
            }

        children, threads = set(multiprocessing.active_children()), loops()
        spawned = []
        real = gateway_module.WorkerProcess

        def second_spawn_fails(spec):
            spawned.append(spec.shard_id)
            if len(spawned) == 2:
                raise OSError("out of processes")
            return real(spec)

        monkeypatch.setattr(
            gateway_module, "WorkerProcess", second_spawn_fails
        )
        with pytest.raises(OSError, match="out of processes"):
            GatewayService(small_config(), shards=3)
        assert len(spawned) == 3
        assert set(multiprocessing.active_children()) == children
        assert loops() == threads
        [(name, fields)] = events
        assert name == "start.failed"
        assert fields["replica"] == f"shard {spawned[1]}/r0"
        assert "out of processes" in fields["error"]

    def test_failed_split_reaps_its_workers(self, monkeypatch, events):
        """A split whose new shard cannot be brought up reaps that
        shard's processes before the error arrives (the set never joined
        the gateway, so ``close`` could not), leaves routing and the
        active shards as they were, and says why in one event."""
        import multiprocessing

        service = GatewayService(small_config(), shards=2, replicas=2)
        try:
            children = set(multiprocessing.active_children())
            for text in DOCS:
                service.add_document(text)
            service.flush_and_publish()
            real = AsyncShardGateway._catch_up

            async def new_shard_fails(gateway, rs, replica):
                if rs.shard_id == 2:
                    raise OSError("catch-up lost")
                return await real(gateway, rs, replica)

            monkeypatch.setattr(
                AsyncShardGateway, "_catch_up", new_shard_fails
            )
            with pytest.raises(OSError, match="catch-up lost"):
                service.split_shard(0)
            assert set(multiprocessing.active_children()) == children
            gateway = service.gateway
            assert (gateway._active, len(gateway._sets)) == ([0, 1], 2)
            assert gateway.routing.epoch == 0
            [fields] = [f for name, f in events if name == "split.failed"]
            assert fields["shard"] == 0
            assert "catch-up lost" in fields["error"]
            assert service.search_boolean("apple").doc_ids == [0, 3, 4, 6]
        finally:
            service.close()

    def test_replica_events_name_their_process(self, events):
        """``replica.down`` and ``replica.rebuilding`` name the process
        that died, ``replica.healthy`` the one that replaced it."""
        service = GatewayService(small_config(), shards=1, replicas=2)
        try:
            def pid():
                return service._run(service.gateway.ping(0, 1))["pid"]

            before = pid()
            service.kill_replica(0, 1)
            service.add_document(DOCS[0])  # the write finds the death
            service.wait_for_recovery()
            after = pid()
            assert after != before
            trail = [
                (name, fields["pid"])
                for name, fields in events
                if name.startswith("replica.")
            ]
            assert trail == [
                ("replica.down", before),
                ("replica.rebuilding", before),
                ("replica.healthy", after),
            ]
        finally:
            service.close()


class TestReplicaVersionGuard:
    """The version-vector guard: a replica lagging the published
    boundary must be excluded from rotation, and an answer whose stamp
    trails the vector must be discarded and the replica resynced."""

    def test_lagging_replica_excluded_from_rotation(self):
        async def body(gateway):
            for text in DOCS[:4]:
                await gateway.add_document(text)
            await gateway.flush()
            rs = gateway._sets[0]
            lagger = rs.replicas[0]
            # Simulate the gateway learning replica 0 trails the
            # published vector: it must leave the read rotation.
            real_version = lagger.version
            lagger.version = rs.expected_version - 1
            assert not rs.eligible(lagger)
            before = gateway.repl.read_failovers
            for _ in range(4):
                got = await gateway.search_streamed("apple AND banana")
                assert got.doc_ids == [0]
            # Every read skipped the lagger (rotation was short-handed).
            assert gateway.repl.read_failovers == before + 4
            lagger.version = real_version
            assert rs.eligible(lagger)

        run_gateway(body, shards=1, replicas=2)

    def test_stale_stamp_discarded_and_replica_resynced(self):
        async def body(gateway):
            for text in DOCS[:3]:
                await gateway.add_document(text)
            await gateway.flush()
            rs = gateway._sets[0]
            victim = rs.replicas[0]
            # Stage a real lag: hide replica 0 from one flush's fan-out,
            # then forge its bookkeeping back to "current" — the shape
            # of a gateway whose ledger lies about a replica's state.
            from repro.service.replication import ReplicaState

            victim.state = ReplicaState.RECOVERING
            victim.rebuild_task = None
            await gateway.add_document(DOCS[3])
            await gateway.flush()  # victim misses this publish
            victim.state = ReplicaState.HEALTHY
            victim.version = rs.expected_version
            victim.log_pos = len(rs.oplog)
            rs._cursor = 0  # next rotation starts at the forged victim
            # "apple OR grape" distinguishes the states: doc 3 ("apple
            # grape honeydew") exists only in the publish the victim
            # missed, so its stale answer would be [0, 2].
            got = await gateway.search_streamed("apple OR grape")
            # The worker's stamp exposed the lie: answer discarded,
            # victim pulled for resync, sibling served the true state.
            assert got.doc_ids == [0, 2, 3]
            assert gateway.repl.stale_discarded == 1
            assert victim.state is not ReplicaState.HEALTHY
            # The resync makes the liar honest again.
            await gateway.quiesce()
            assert victim.state is ReplicaState.HEALTHY
            assert rs.eligible(victim)
            rs._cursor = 0
            got = await gateway.search_streamed("apple OR grape")
            assert got.doc_ids == [0, 2, 3]
            assert gateway.repl.stale_discarded == 1  # no new discards

        run_gateway(body, shards=1, replicas=2)

    def test_slow_replica_fails_over_to_sibling(self):
        async def body(gateway):
            for text in DOCS[:4]:
                await gateway.add_document(text)
            await gateway.flush()
            # Park replica 0 behind a long debug_sleep; a read under a
            # short deadline must fail over to the idle sibling instead
            # of surfacing the deadline.
            blocker = park(gateway, 0, 0, 1.0)
            await asyncio.sleep(0.05)
            gateway.shard_timeout_s = 0.15
            gateway._sets[0]._cursor = 0  # rotation starts at the slug
            got = await gateway.search_streamed("apple AND banana")
            assert got.doc_ids == [0]
            assert gateway.stats.deadline_exceeded >= 1
            assert gateway.repl.read_failovers >= 1
            await blocker

        run_gateway(body, shards=1, replicas=2)

    def test_all_replicas_slow_surfaces_deadline(self):
        async def body(gateway):
            for text in DOCS[:4]:
                await gateway.add_document(text)
            await gateway.flush()
            blockers = [park(gateway, 0, j, 1.0) for j in range(2)]
            await asyncio.sleep(0.05)
            gateway.shard_timeout_s = 0.15
            with pytest.raises(ShardDeadlineExceeded) as info:
                await gateway.search_streamed("apple AND banana")
            assert 0 in info.value.shards
            await asyncio.gather(*blockers)
            # Both replicas are alive — slow is not dead.
            got = await gateway.search_streamed("apple AND banana")
            assert got.doc_ids == [0]
            assert gateway.stats.failovers == 0

        run_gateway(body, shards=1, replicas=2)


class TestUnsendableOp:
    """An op no replica can be sent never enters the journal.

    ``add_document`` used to append to the shard's op log before the
    frame was encoded.  A document over the frame budget then raised
    :class:`~repro.service.wire.FrameTooLarge` to the caller with the op
    journaled and no replica's ``log_pos`` moved: the next write found
    every healthy replica "behind the journal head" and resynced them
    all, every rebuild replayed the poison op and parked at ``FAILED``,
    and the shard was dead for good.
    """

    OVERSIZED = "pad " * 10_000  # a 40 KB frame against an 8 KB budget

    def _service(self, monkeypatch):
        # Patched before the fork: both ends of every connection, the
        # workers included, frame against the 8 KB budget.
        monkeypatch.setattr(wire, "MAX_FRAME", 8192)
        return GatewayService(small_config(), shards=1, replicas=2)

    def test_oversized_add_leaves_the_shard_serving(self, monkeypatch):
        from repro.query.reference import BruteForceIndex
        from repro.service.replication import ReplicaState

        service = self._service(monkeypatch)
        oracle = BruteForceIndex()
        try:
            for text in DOCS[:3]:
                oracle.add_document(service.add_document(text), text.split())
            service.flush_and_publish()
            rs = service.gateway._sets[0]
            before = (len(rs.oplog), [r.log_pos for r in rs.replicas])
            with pytest.raises(wire.FrameTooLarge):
                service.add_document(self.OVERSIZED)
            assert (len(rs.oplog), [r.log_pos for r in rs.replicas]) == before

            for text in DOCS[3:6]:
                oracle.add_document(service.add_document(text), text.split())
            service.delete_document(0)
            oracle.delete_document(0)
            service.flush_and_publish()
            for q in ("apple OR banana", "cherry AND NOT date", "grape"):
                assert service.search_boolean(q).doc_ids == (
                    oracle.search_boolean(q)
                ), q
            assert [r.state for r in rs.replicas] == [ReplicaState.HEALTHY] * 2
            assert service.gateway.repl.rebuilds_started == 0

            # Failover still works off the same journal.
            service.kill_replica(0, 1)
            oracle.add_document(
                service.add_document(DOCS[6]), DOCS[6].split()
            )
            service.flush_and_publish()
            service.wait_for_recovery()
            assert service.gateway.repl.rebuilds_completed == 1
            assert service.gateway.repl.rebuild_failures == 0
            for _ in range(2):  # once per replica of the rotation
                assert service.search_boolean("apple").doc_ids == (
                    oracle.search_boolean("apple")
                )
        finally:
            service.close()

    def test_refused_explicit_id_leaves_no_holes(self, monkeypatch):
        service = self._service(monkeypatch)
        try:
            service.add_document(DOCS[0])
            holes = set(service.gateway.placement.holes)
            with pytest.raises(wire.FrameTooLarge):
                service.add_document(self.OVERSIZED, doc_id=5)
            assert service.gateway.placement.holes == holes
            # Ids 1..4 are still to be assigned, and a document given one
            # of them is a document: deletable, not "never added".
            assert service.add_document(DOCS[1]) == 1
            service.flush_and_publish()
            service.delete_document(1)
            service.flush_and_publish()
            assert service.search_boolean("banana").doc_ids == [0]
        finally:
            service.close()


class TestOverBudgetReply:
    """A read reply over the frame budget is refused, never sent: the
    worker sends a typed ``FrameTooLarge`` in its place, so every member
    of the frame fails, the stream stays framed and no replica is
    blamed."""

    def test_oversized_answer_fails_its_frame_typed(self, monkeypatch):
        from repro.service.replication import ReplicaState

        # Patched before the fork: the worker frames against it too.
        monkeypatch.setattr(wire, "MAX_FRAME", 8192)

        async def body(gateway):
            for text in DOCS:
                await gateway.add_document(text)
            await gateway.flush()
            frames = gateway.batching.batch_frames
            # A NOT over a universe far wider than the shard names every
            # id of it: some 30 KB of answer against the 8 KB budget.
            # Both reads are issued in one tick, so they share a frame.
            results = await asyncio.gather(
                gateway._read_shard(0, "eval_boolean", ("NOT apple", 10_000)),
                gateway._read_shard(0, "eval_boolean", ("apple", 8)),
                return_exceptions=True,
            )
            assert gateway.batching.batch_frames == frames + 1
            for result in results:
                assert isinstance(result, RemoteWorkerError)
                assert "FrameTooLarge" in str(result)
            # The refusal arrived in the reply's place: the next small
            # read on the same replica gets its own answer.
            doc_ids, _ = await gateway._read_shard(
                0, "eval_boolean", ("apple", 8)
            )
            assert doc_ids == [0, 3, 4, 6]
            assert (await gateway.search_boolean("apple")).doc_ids == [
                0, 3, 4, 6
            ]
            rs = gateway._sets[0]
            assert [r.state for r in rs.replicas] == [ReplicaState.HEALTHY]
            assert gateway.stats.failovers == 0
            assert gateway.repl.rebuilds_started == 0

        run_gateway(body, shards=1)
