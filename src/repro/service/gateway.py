"""Multi-process serving: replicated shard workers behind an async gateway.

The sharded index of DESIGN.md §12 scatter-gathers via function calls
inside one interpreter, so its read path is GIL-bound.  This module puts
each shard behind its own OS processes (:mod:`repro.service.worker`) and
builds the serving front end on top:

* :class:`WorkerProcess` — spawn/respawn one shard worker and its
  socketpair.
* :class:`AsyncShardGateway` — the asyncio front end: scatter-gather
  fan-out over all shards, **admission control** (a bounded wait queue
  that sheds load with :class:`GatewayOverloaded` once full),
  **per-shard deadlines** (:class:`ShardDeadlineExceeded`, a typed
  partial-failure error naming the shards that missed), and
  **replicated failover** (:mod:`repro.service.replication`): each shard
  runs ``replicas`` worker processes; writes fan out to every healthy
  replica, reads rotate round-robin across them with every answer
  validated against the published version vector, and a dead or lagging
  replica is rebuilt in the background — from the shard's parent-side
  restore point plus the replayed op log — while its siblings keep
  serving.
  A shard-level :class:`~repro.core.rebalance.RebuildScheduler` staggers
  ``grow_buckets`` rebuilds so at most one shard pays the rehash +
  full-clone publish spike per flush round.
* :class:`GatewayService` — a thread-safe synchronous facade with the
  :class:`~repro.service.server.QueryService` surface, so the load
  generator and CLI drive in-process and multi-process serving through
  the same code; a lone caller drives the event loop itself (DESIGN.md §13).

Read path (DESIGN.md §16) — one protocol: every query mode is
*answer-level*, a query puts one member read per active shard on the
:class:`_ReadBatcher` of the replica its rotation picked, and members
travel as the arguments of one ``batched_read`` request — nothing else
on the wire can read.  The worker evaluates boolean, streamed and
vector queries against its own postings and the gateway merges answers
(a complementing ``NOT`` cut back to each shard's routed slice; vector
replies carrying per-term df and candidates grouped by term bitmask,
scored here once df is summed).  Reads enqueued in one event-loop tick
share a frame, sent on the next tick (:data:`MAX_FRAME_MEMBERS` caps
it); there is no timed wait — a replica's queue never gets deeper than
the client concurrency.  The worker validates version/snapshot once per
frame, evaluates every member against that one pinned state, stamps the
reply once, and isolates per-member errors; deadlines and admission
account each member individually, and a deadline *abandons* an exchange
— it never cancels one, so a stream stays framed.

Consistency model: queries evaluate against each shard's *published*
snapshot.  At a flush boundary (no flush in flight) the gateway's answers
are byte-identical to an in-process
:class:`~repro.core.sharded.ShardedTextIndex` fed the same operations —
the differential battery pins this, replicated or not (replicas of one
shard apply the same op sequence, so any of them answers identically).
*During* a flush, per-shard staleness may skew: each shard's contribution
to an answer is one of its own boundary states, but different shards may
be one publish apart (shards partition the documents, so every
per-document answer fragment is still exact for its boundary).  The
in-process service's atomic vector swap is the stronger guarantee; the
gateway trades it for multi-core execution and documents the difference.

Durability/failover model: the gateway is the single writer, so it can
journal every mutation parent-side — ``(add, doc_id, text)`` /
``(delete, doc_id)`` / ``(flush, grow)`` per shard — and retain one
restore point per shard, carried to every flush boundary at which no
replica is mid-rebuild: a full base plus a chain of redo records, each
the post-image of what the batches since the previous one dirtied
(DESIGN.md §19).  Every replica follows its shard's op log: one
catch-up loop applies the ops past its ``log_pos``, and a write is
"journal, then catch up every healthy replica".  One bring-up — spawn
from the restore point, catch up, read the stamp — serves start (an
empty log), the rebuild of a dead replica and a split's new shard
(seeded with the victim's restore point and a copy of its log).  No
state is lost because nothing any single worker alone knew is needed to
reconstruct it — and with ``replicas >= 2`` a rebuild happens entirely
off the read path, so a SIGKILL mid-flush no longer stalls reads on that
shard (the single-replica failover latency the chaos battery measures
becomes the k=1 degenerate case).
"""

from __future__ import annotations

import asyncio
import io
import itertools
import socket
import threading
import time
from contextlib import asynccontextmanager
from dataclasses import asdict, dataclass, field, fields
from dataclasses import replace as dc_replace

from ..core.index import BatchResult, IndexConfig
from ..core.invariants import InvariantReport, Violation
from ..core.rebalance import (
    RebalancePlanner,
    RebalancePolicy,
    RebuildScheduler,
)
from ..core.routing import Placement, RoutingTable
from ..obs import event
from ..pipeline.profiling import LatencyRecorder
from ..query import boolean as boolean_query
from ..query import scatter
from ..query import streaming as streaming_query
from ..query import vector as vector_query
from ..textindex import QueryAnswer, TextDocumentIndex
from . import wire
from .replication import (
    Replica,
    ReplicaSet,
    ReplicaState,
    ReplicationStats,
    replica_specs,
)
from .runtime import RuntimeStats
from .server import ServiceStats
from .worker import FlushOutcome, WorkerSpec, worker_main


class GatewayError(Exception):
    """Base class for gateway-level failures."""


class GatewayOverloaded(GatewayError):
    """Admission control shed this request: the bounded queue is full."""

    def __init__(self, queued: int, limit: int) -> None:
        super().__init__(
            f"gateway overloaded: {queued} requests queued "
            f"(limit {limit})"
        )
        self.queued = queued
        self.limit = limit


class ShardDeadlineExceeded(GatewayError):
    """One or more shards missed their per-shard deadline.

    A typed *partial failure*: ``shards`` names the offenders and
    ``completed`` counts the sibling answers that did arrive in time —
    enough for a caller to degrade (retry, serve partial, shed).
    """

    def __init__(
        self, shards: tuple[int, ...], method: str, completed: int = 0
    ) -> None:
        super().__init__(
            f"shard(s) {list(shards)} exceeded the deadline for "
            f"{method!r} ({completed} sibling answers completed)"
        )
        self.shards = shards
        self.method = method
        self.completed = completed


class WorkerDied(GatewayError):
    """The worker's connection broke (process death or stream corruption)."""


class RemoteWorkerError(GatewayError):
    """The worker executed the request and reported a failure."""


def _mp_context():
    """Fork where available (cheap respawns, inherited socket); the
    platform default elsewhere — sockets cross via mp's fd reduction."""
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class WorkerProcess:
    """One spawned shard-worker process plus its parent-side socket."""

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        parent, child = socket.socketpair()
        ctx = _mp_context()
        self.process = ctx.Process(
            target=worker_main,
            args=(child, spec),
            name=f"shard-worker-{spec.shard_id}",
            daemon=True,
        )
        self.process.start()
        child.close()
        self.sock: socket.socket | None = parent

    def take_socket(self) -> socket.socket:
        """Hand the socket to its async owner (the gateway's stream)."""
        sock, self.sock = self.sock, None
        if sock is None:
            raise RuntimeError("worker socket already taken")
        return sock

    def close(self) -> None:
        """Drop the socket if nobody took it, stop the worker and reap
        the process (a graceful ``shutdown`` is the stream owner's call
        to make, before this)."""
        if self.sock is not None:
            self.sock.close()
            self.sock = None
        if self.process.is_alive():
            self.process.terminate()
        self.process.join(timeout=10.0)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join(timeout=10.0)


@dataclass(frozen=True)
class GatewaySnapshot:
    """An identity token for one published gateway boundary.

    Unlike the in-process :class:`~repro.service.snapshot.IndexSnapshot`
    this does not *pin* shard state — it records the boundary's identity
    (snapshot id, universe size, deletion set) so universe-sensitive
    evaluation (``NOT``, idf) uses a consistent published view.  The
    gateway stores the current one and replaces it whole at every
    publish (:meth:`AsyncShardGateway._publish`).
    """

    snapshot_id: int
    ndocs: int
    deleted: frozenset
    shard_versions: tuple[int, ...]
    #: Routing-table epoch the boundary was published under.  A shard
    #: split bumps it (and the snapshot id), so any identity
    #: comparison over this token distinguishes pre- and post-rebalance
    #: boundaries even when per-shard counters happen to coincide.
    routing_epoch: int = 0


@dataclass
class GatewayStats:
    """Gateway-side counters (the serving report's ``gateway`` section)."""

    failovers: int = 0
    deadline_exceeded: int = 0
    shed: int = 0
    flushes: int = 0
    replayed_ops: int = 0
    worker_kills_observed: int = 0


@dataclass
class RebalanceStats:
    """Online split counters (``gateway_stats["rebalance"]``)."""

    #: Shard splits completed (victim slice halved onto a new shard).
    splits: int = 0
    #: Live documents relocated across all splits.
    docs_moved: int = 0
    #: Total seconds readers could observe a relocation overlap (routing
    #: flip → victim tombstone publish).  Answers stay exact throughout
    #: — the scatter merges dedupe — this measures the window, not an
    #: outage.
    cutover_seconds: float = 0.0
    #: max/mean live-doc imbalance at the last planner sample.
    last_imbalance: float = 0.0


@dataclass
class BatchingStats:
    """Read-batching counters (``gateway_stats["batching"]``)."""

    #: Batch envelopes sent (one frame each).
    batch_frames: int = 0
    #: Member reads carried inside those envelopes.
    batched_reads: int = 0
    #: Occurrences of each batch size, ``{size: count}``.
    histogram: dict = field(default_factory=dict)
    #: Always 0: no read travels outside a batch frame.  Kept because
    #: benchmarks/harness/replica.py:236 reads the key.
    single_read_frames: int = field(default=0, init=False)

    def record_batch(self, size: int) -> None:
        self.batch_frames += 1
        self.batched_reads += size
        self.histogram[size] = self.histogram.get(size, 0) + 1


#: Most member reads one batch frame carries; a replica's queue that
#: reaches it within a tick is sent at once.
MAX_FRAME_MEMBERS = 16


def _retrieve(future) -> None:
    """Done-callback marking a future's exception retrieved — a batch
    member or an exchange can outlive every waiter (deadline
    abandonment), and an orphaned failure must not warn at GC time."""
    if not future.cancelled():
        future.exception()


class _ReadBatcher:
    """Per-replica read micro-batcher (DESIGN.md §16).

    ``enqueue`` is synchronous, so every read created in one event-loop
    tick — one member per concurrently admitted query bound for this
    replica — lands in the same queue before the flush task runs, and
    travels as one frame.  The flusher sends on its first step, which
    the loop runs one tick after the enqueue that created it; a queue
    that reaches :data:`MAX_FRAME_MEMBERS` within the tick is sent at
    once, which is what bounds a frame.
    """

    def __init__(self, gateway: "AsyncShardGateway", replica: Replica):
        self._gateway = gateway
        self._replica = replica
        self._queue: list = []
        self._flusher: asyncio.Task | None = None

    def enqueue(self, method: str, args: tuple) -> asyncio.Future:
        """Queue one member read; resolves to ``(value, version)`` or
        the member's / connection's failure."""
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        future.add_done_callback(_retrieve)
        self._queue.append((method, args, future))
        if len(self._queue) >= MAX_FRAME_MEMBERS:
            batch, self._queue = self._queue, []
            loop.create_task(self._send(batch))
        elif self._flusher is None:
            self._flusher = loop.create_task(self._flush())
        return future

    async def _flush(self) -> None:
        # Clear before sending so members enqueued during the exchange
        # start a fresh flusher instead of silently queueing forever.
        self._flusher = None
        batch, self._queue = self._queue, []
        if batch:
            await self._send(batch)

    async def _send(self, batch: list) -> None:
        """Ship one batch as a single ``batched_read`` call and
        distribute the answers.

        A connection-level failure, or a reply the worker could not
        frame, fans out to every member (each waiter runs its own
        failover); a member-level failure resolves only that member.
        """
        gateway = self._gateway
        replica = self._replica
        gateway.batching.record_batch(len(batch))
        members = tuple((method, args) for method, args, _ in batch)
        try:
            async with replica.lock:
                answers, version = await gateway._rpc(
                    replica, "batched_read", (members,)
                )
        except Exception as exc:  # noqa: BLE001 - fan the failure out
            for _, _, future in batch:
                if not future.done():
                    future.set_exception(exc)
            return
        for (method, _, future), (ok, value) in zip(batch, answers):
            if future.done():
                continue
            if ok:
                future.set_result((value, version))
            else:
                future.set_exception(
                    RemoteWorkerError(f"{replica.name} {method}: {value}")
                )
        if len(answers) < len(batch):  # pragma: no cover
            exc = WorkerDied(
                f"{replica.name} answered {len(answers)} of "
                f"{len(batch)} batch members"
            )
            for _, _, future in batch[len(answers):]:
                if not future.done():
                    future.set_exception(exc)


#: Wider than any id a connection's sequence reaches: a request pickled
#: with it is as long as that request will ever be on the wire.
_WIDEST_REQUEST_ID = 2**31 - 1


def _op_rpc(op: tuple) -> tuple[str, tuple]:
    """Translate one journaled op into its worker RPC."""
    if op[0] == "add":
        return "add_document", (op[2], op[1])
    if op[0] == "delete":
        return "delete_document", (op[1],)
    return "flush", (op[1],)  # ("flush", grow)


class AsyncShardGateway:
    """Asyncio scatter-gather over N shards × k replica processes."""

    #: Exceptions that mean "this replica's process or stream is gone".
    _DEATH = (WorkerDied, ConnectionError, BrokenPipeError,
              wire.TruncatedFrame)

    def __init__(
        self,
        config: IndexConfig | None = None,
        *,
        shards: int = 2,
        replicas: int = 1,
        router_seed: int = 0,
        publish_mode: str = "cow",
        queue_limit: int = 256,
        max_inflight: int = 0,
        shard_timeout_s: float = 30.0,
        rebuild_stagger: bool = True,
        check_invariants: bool = False,
        buffer_cache_blocks: int = 0,
        fault_plans: dict | None = None,
        kill_on_crash: bool = False,
        read_tier: str = "snapshot",
        coalesce: bool = False,
        rebalance: bool = False,
        rebalance_policy: RebalancePolicy | None = None,
    ) -> None:
        if shards < 1:
            raise ValueError("gateway needs shards >= 1")
        if replicas < 1:
            raise ValueError("gateway needs replicas >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if shard_timeout_s <= 0:
            raise ValueError("shard_timeout_s must be > 0")
        if read_tier not in ("snapshot", "immediate"):
            raise ValueError("read_tier must be 'snapshot' or 'immediate'")
        if publish_mode != "cow":
            # Pinned by benchmarks/harness/workloads.py:333,370; every
            # worker publishes by cow, the full clone its fallback.
            raise ValueError("publish_mode must be 'cow'")
        if coalesce is not False:
            # Pinned by benchmarks/harness/workloads.py:335, which passes
            # the keyword; the mechanism it named was tried and removed.
            raise ValueError(
                "single-flight coalescing was removed "
                "(benchmarks/results/TRIAL_batching.txt)"
            )
        self.read_tier = read_tier
        self.nshards = shards
        self.replicas = replicas
        self.queue_limit = queue_limit
        self.max_inflight = max_inflight or 2 * shards * replicas
        self.shard_timeout_s = shard_timeout_s
        per_shard = max(1, buffer_cache_blocks // shards)
        self._sets: list[ReplicaSet] = []
        for i in range(shards):
            base = WorkerSpec(
                shard_id=i,
                index_config=config,
                kill_on_crash=kill_on_crash,
                check_invariants=check_invariants,
                buffer_cache_blocks=(
                    per_shard if buffer_cache_blocks else 0
                ),
                read_tier=read_tier,
            )
            self._sets.append(
                ReplicaSet(i, replica_specs(base, replicas, fault_plans, i))
            )
        #: The versioned slice → shard map (epoch 0 routes exactly like
        #: the static ``shard_of``) and the id ledger over it; structural
        #: moves install successor tables.
        self.placement = Placement(shards, router_seed)
        #: Shard ids currently serving: a split's new set is in
        #: ``_sets`` from its spawn but joins this list only at cutover.
        self._active: list[int] = list(range(shards))
        self.rebalance = RebalanceStats()
        #: A split is between its cutover and the victim's tombstone
        #: flush: two active shards both hold the movers.  Answer merges
        #: dedupe doc ids regardless; the vector pushdown sums per-shard
        #: document frequencies, so while this is up it sends the table
        #: along and each worker counts only the documents routed to it.
        self._split_overlap = False
        #: Serializes grow_buckets rebuilds across shards (None = every
        #: shard grows the round its trigger fires, PR 5 behavior).
        #: With rebalancing on, one RebalancePlanner plays both roles —
        #: growth grants keep their FIFO staggering and the same object
        #: plans at most one split per eligible flush round.
        if rebalance:
            self.rebalance_planner = RebalancePlanner(
                rebalance_policy or RebalancePolicy()
            )
            self.rebuild_scheduler = self.rebalance_planner
        else:
            self.rebalance_planner = None
            self.rebuild_scheduler = (
                RebuildScheduler() if rebuild_stagger else None
            )
        #: Debug knob: hold every rebuild this long before it starts, so
        #: tests can observe survivors serving while a victim recovers.
        self._rebuild_hold_s = 0.0
        # Writer-path state (single logical writer, asyncio-serialized).
        self._writer_lock: asyncio.Lock | None = None
        self._sem: asyncio.Semaphore | None = None
        self._pending = 0
        self._batches = 0
        #: The current published boundary; only :meth:`_publish` writes it.
        self._published = GatewaySnapshot(0, 0, frozenset(), (0,) * shards)
        self.stats = GatewayStats()
        self.repl = ReplicationStats()
        self.batching = BatchingStats()

    @property
    def _checkpoints(self) -> list[bytes | None]:
        """Each shard's restore point as one :meth:`TextDocumentIndex.save`
        blob, materialized through the restore a respawn runs.  Kept for
        ``benchmarks/harness/replica.py``, which loads these blobs for
        its space axis."""
        blobs = []
        for rs in self._sets:
            point = rs.restore_point()
            if point is None:
                blobs.append(None)
                continue
            buf = io.BytesIO()
            TextDocumentIndex.restore(point[0], point[1:]).save(buf)
            blobs.append(buf.getvalue())
        return blobs

    # -- lifecycle --------------------------------------------------------

    async def start(self) -> None:
        """Bring every replica of every shard up: the empty-log case of
        :meth:`_bring_up`, each with its own spec (and fault plan).

        A failure is raised only once every bring-up has settled, so
        every process that did start is attached to its replica and
        :meth:`close` reaps it."""
        self._writer_lock = asyncio.Lock()
        self._sem = asyncio.Semaphore(self.max_inflight)
        replicas = [r for rs in self._sets for r in rs.replicas]
        results = await asyncio.gather(
            *(
                self._bring_up(self._sets[r.shard_id], r, r.spec)
                for r in replicas
            ),
            return_exceptions=True,
        )
        failed = None
        for replica, result in zip(replicas, results):
            if isinstance(result, BaseException):
                event("start.failed", replica=replica.name, error=repr(result))
                failed = failed or result
        if failed is not None:
            raise failed

    async def _spawn(self, replica: Replica, spec: WorkerSpec) -> None:
        worker = WorkerProcess(spec)
        reader, writer = await asyncio.open_connection(
            sock=worker.take_socket()
        )
        replica.worker = worker
        replica.reader = reader
        replica.writer = writer
        replica.seq = itertools.count(1)

    async def _bring_up(
        self, rs: ReplicaSet, replica: Replica, spec: WorkerSpec
    ) -> None:
        """The one way a worker reaches its shard's state: retire the
        replica's old process, if any, spawn ``spec`` from the set's
        restore point, catch up on the op log and read the stamp.

        The replica's lock is held throughout, so no read reaches the
        replacement mid-replay.  The catch-up re-reads the log's length
        after every await, so it picks up everything journaled meanwhile
        (writes skip a replica that is not ``HEALTHY``).
        """
        async with replica.lock:
            if replica.worker is not None:
                if replica.writer is not None:
                    replica.writer.close()
                replica.worker.close()
                replica.worker = None
            await self._spawn(
                replica, dc_replace(spec, restore=rs.restore_point())
            )
            replica.log_pos = 0
            while True:
                await self._catch_up(rs, replica)
                info = await self._rpc(replica, "info", ())
                if replica.log_pos == len(rs.oplog):
                    # Nothing landed during the info call; from here to
                    # the caller's state flip there is no await, so the
                    # stamp below cannot go stale.
                    break
            self.stats.replayed_ops += replica.log_pos
            replica.version = info["batches"]
            replica.wants_grow = info["wants_grow"]

    async def _catch_up(self, rs: ReplicaSet, replica: Replica):
        """Apply ``rs.oplog[replica.log_pos:]`` to the replica (its lock
        held) — the one loop that feeds a worker journaled ops.  Returns
        the reply to the last op applied, None when there was none."""
        value = None
        while replica.log_pos < len(rs.oplog):
            method, args = _op_rpc(rs.oplog[replica.log_pos])
            value = await self._rpc(replica, method, args)
            replica.log_pos += 1
        return value

    async def close(self) -> None:
        """Shut every replica down and reap the processes."""
        for rs in self._sets:
            for replica in rs.replicas:
                await self._shut_down(replica)

    async def _shut_down(self, replica: Replica) -> None:
        """Stop a replica's rebuild, ask its worker to shut down and
        reap the process."""
        task = replica.rebuild_task
        if task is not None and not task.done():
            task.cancel()
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        if replica.worker is None:
            return
        try:
            await asyncio.wait_for(
                self._locked_rpc(replica, "shutdown", ()), timeout=5.0
            )
        except Exception:  # noqa: BLE001 - best-effort shutdown
            pass
        if replica.writer is not None:
            replica.writer.close()
        replica.worker.close()
        replica.worker = None

    # -- RPC core ---------------------------------------------------------

    async def _exchange(self, replica: Replica, method: str, args: tuple):
        """One request/reply exchange on a replica's stream — the only
        place the gateway writes to or reads from a worker connection.

        Sends ``Request(request_id, method, args)`` and returns the
        :class:`~repro.service.wire.Response` carrying that id.  Caller
        must hold (or be the sole owner of) the replica's connection lock.
        """
        stream_writer = replica.writer
        if stream_writer is None:
            raise WorkerDied(f"{replica.name} has no connection")
        request_id = next(replica.seq)
        header, payload = wire.encode_parts(
            wire.Request(request_id, method, args)
        )
        stream_writer.write(header)
        stream_writer.write(payload)
        await stream_writer.drain()
        reply = await wire.read_message_async(replica.reader)
        if reply is None:
            raise WorkerDied(
                f"{replica.name} closed the connection mid-exchange"
            )
        if reply.request_id != request_id:
            # No gateway path leaves a reply unread (deadlines abandon,
            # they never cancel), so this is a stream out of step — a
            # caller cancelled a gateway coroutine mid-exchange.
            raise WorkerDied(
                f"{replica.name} answered request {reply.request_id}, "
                f"not {request_id}: the stream is out of step"
            )
        return reply

    async def _rpc(self, replica: Replica, method: str, args: tuple):
        """One method call on a replica (connection lock held as for
        :meth:`_exchange`): the value, or the worker's typed failure."""
        response = await self._exchange(replica, method, args)
        if response.ok:
            return response.value
        raise RemoteWorkerError(f"{replica.name} {method}: {response.error}")

    async def _locked_rpc(self, replica: Replica, method: str, args: tuple):
        async with replica.lock:
            return await self._rpc(replica, method, args)

    # -- failover ---------------------------------------------------------

    def _mark_recovering(
        self, rs: ReplicaSet, replica: Replica, observed_kill: bool
    ) -> None:
        """Transition a replica to RECOVERING and start its background
        rebuild.  Idempotent: concurrent observers of one death arrive
        here together and only the first transitions (state changes are
        synchronous on the event loop, so no lock is needed)."""
        if replica.state is ReplicaState.RECOVERING:
            return
        replica.state = ReplicaState.RECOVERING
        if observed_kill:
            self.stats.worker_kills_observed += 1
        self.stats.failovers += 1
        self.repl.rebuilds_started += 1
        cause = "died" if observed_kill else "stale stamp"
        event("replica.down", **replica.tags, cause=cause)
        replica.rebuild_task = asyncio.get_running_loop().create_task(
            self._rebuild(rs, replica)
        )
        # A failed rebuild is recorded (FAILED, rebuild_failures) whether
        # or not a reader waits on it.
        replica.rebuild_task.add_done_callback(_retrieve)

    def _note_death(self, rs: ReplicaSet, replica: Replica) -> None:
        self._mark_recovering(rs, replica, observed_kill=True)

    async def _rebuild(self, rs: ReplicaSet, replica: Replica) -> None:
        """Rebuild one replica in the background: a :meth:`_bring_up`
        from its respawn spec while reads rotate to its siblings."""
        if self._rebuild_hold_s:
            await asyncio.sleep(self._rebuild_hold_s)
        event("replica.rebuilding", **replica.tags, oplog=len(rs.oplog))
        try:
            await self._bring_up(rs, replica, replica.spec.respawn_spec())
        except Exception as exc:
            replica.state = ReplicaState.FAILED
            self.repl.rebuild_failures += 1
            event("replica.failed", **replica.tags, error=repr(exc))
            raise
        replica.state = ReplicaState.HEALTHY
        self.repl.rebuilds_completed += 1
        event("replica.healthy", **replica.tags, ops=replica.log_pos)

    async def quiesce(self) -> None:
        """Wait for every in-flight rebuild to finish (test/bench hook)."""
        while tasks := self.rebuilding():
            await asyncio.gather(*tasks, return_exceptions=True)

    def rebuilding(self) -> list[asyncio.Task]:
        """The rebuild tasks still in flight."""
        tasks = (r.rebuild_task for rs in self._sets for r in rs.replicas)
        return [task for task in tasks if task and not task.done()]

    def kill_replica(self, shard: int, replica: int = 0) -> None:
        """SIGKILL one replica's process (the chaos/bench murder weapon).

        Nothing is marked or rebuilt here — the gateway discovers the
        death exactly as it would a real machine failure: the next RPC
        on the broken connection.
        """
        target = self._sets[shard].replicas[replica]
        if target.worker is not None:
            target.worker.process.kill()

    # -- admission control ------------------------------------------------

    @asynccontextmanager
    async def _admit(self):
        """Bounded admission: at most ``max_inflight`` queries execute
        and at most ``queue_limit`` wait; beyond that, shed immediately
        (an overloaded open-loop arrival process must fail fast, not
        build an unbounded backlog)."""
        if self._pending >= self.max_inflight + self.queue_limit:
            self.stats.shed += 1
            event("read.shed", pending=self._pending, limit=self.queue_limit)
            raise GatewayOverloaded(self._pending, self.queue_limit)
        self._pending += 1
        try:
            await self._sem.acquire()
            try:
                yield
            finally:
                self._sem.release()
        finally:
            self._pending -= 1

    # -- writer path (single logical writer) ------------------------------

    @property
    def routing(self) -> RoutingTable:
        return self.placement.routing

    def route(self, doc_id: int) -> int:
        return self.routing.route(doc_id)

    async def add_document(self, text: str, doc_id: int | None = None) -> int:
        async with self._writer_lock:
            doc_id, shard = self.placement.claim(doc_id)
            await self._journal(self._sets[shard], ("add", doc_id, text))
            self.placement.admit(doc_id)
            return doc_id

    async def delete_document(self, doc_id: int) -> None:
        async with self._writer_lock:
            # Routed under the lock: a cutover may land while it waits.
            rs = self._sets[self.placement.owner(doc_id)]
            await self._journal(rs, ("delete", doc_id))
            self.placement.deleted.add(doc_id)

    async def _journal(self, rs: ReplicaSet, op: tuple) -> list:
        """Append one op to a shard's journal — the only place an op
        enters a log — then catch every healthy replica up to it.

        Returns each replica's reply, aligned with ``rs.replicas`` and
        ``None`` where a replica is not healthy, died, or had applied
        the op by finishing a rebuild.  Under the writer lock the op is
        the log's head, so a reply is always this op's.

        Journal before sending: if a replica dies mid-call, its rebuild
        replays this very op, so nothing here retries.  That replay is
        also why an op that cannot be framed is refused *before* the
        append.  Journaled, it would stop every replica's catch-up at its
        slot for good and every rebuild would replay it and park at
        ``FAILED`` — the shard dead for good.  The trial encoding carries
        the widest request id, so what passes here fits under any
        sequence number a replica's connection stamps it with.
        """
        method, args = _op_rpc(op)
        wire.encode_parts(wire.Request(_WIDEST_REQUEST_ID, method, args))
        rs.oplog.append(op)
        return list(
            await asyncio.gather(
                *(self._follow(rs, replica) for replica in rs.replicas)
            )
        )

    async def _follow(self, rs: ReplicaSet, replica: Replica):
        """A live write's leg on one replica: catch it up if healthy."""
        if replica.state is not ReplicaState.HEALTHY:
            return None  # its bring-up holds the lock and covers the op
        async with replica.lock:
            if replica.state is not ReplicaState.HEALTHY:
                return None
            try:
                return await self._catch_up(rs, replica)
            except self._DEATH:
                self._note_death(rs, replica)
                return None

    async def flush(self) -> tuple[BatchResult, GatewaySnapshot]:
        """Flush every shard (scatter), publish the new boundary, and
        return the aggregated batch result plus the boundary token.

        Growth grants are decided here — one scheduler round per flush —
        and journaled inside each shard's flush op, so all replicas of a
        shard (and any later op-log replay) grow at the same boundary.
        """
        async with self._writer_lock:
            self._batches += 1
            self.stats.flushes += 1
            active = list(self._active)
            wants = sorted(
                i for i in active if self._sets[i].wants_grow
            )
            if self.rebuild_scheduler is not None:
                granted = self.rebuild_scheduler.grant(wants)
            else:
                granted = frozenset(wants)
            if granted:
                event("growth.grant", shards=sorted(granted), wanted=wants)
            outcomes = await asyncio.gather(
                *(self._flush_shard(i, i in granted) for i in active)
            )
            for i, outcome in zip(active, outcomes):
                self._sets[i].adopt_flush(outcome)
            self._publish(
                ndocs=self.placement.next_id,
                deleted=frozenset(self.placement.deleted),
            )
            results = [
                outcome.result
                for outcome in outcomes
                if outcome.result is not None
            ]
            aggregate = BatchResult.total(self._batches, results)
            self.last_publish_seconds = max(
                (outcome.publish_seconds for outcome in outcomes),
                default=0.0,
            )
            await asyncio.gather(
                *(self._checkpoint_shard(i) for i in active)
            )
            await self._maybe_rebalance()
            return aggregate, self._published

    async def _flush_shard(self, i: int, grow: bool) -> FlushOutcome:
        """Journal one flush op on shard ``i``, fan it to the replicas
        and pick the representative outcome (healthy replicas are
        deterministic copies, so any of them speaks for the shard)."""
        rs = self._sets[i]
        results = await self._journal(rs, ("flush", grow))
        outcomes = []
        for replica, outcome in zip(rs.replicas, results):
            if outcome is None:
                continue
            replica.version = outcome.version
            replica.wants_grow = outcome.wants_grow
            outcomes.append(outcome)
        if outcomes:
            head = outcomes[0]
            for other in outcomes[1:]:
                if (other.version, other.ndocs) != (
                    head.version,
                    head.ndocs,
                ):
                    self.repl.replica_divergences += 1
            return head
        # Every replica was dead or mid-rebuild: the rebuild replay ends
        # with this very flush op, so wait one out and synthesize the
        # outcome from the rebuilt replica's state.
        replica = await self._await_any_rebuild(rs)
        info = await self._locked_rpc(replica, "info", ())
        return FlushOutcome(
            result=None,
            version=info["batches"],
            ndocs=info["ndocs"],
            mem_epoch=info.get("mem_epoch", 0),
            wants_grow=info.get("wants_grow", False),
        )

    async def _await_any_rebuild(self, rs: ReplicaSet) -> Replica:
        """Block until some replica of the set is serviceable again."""
        for replica in rs.replicas:
            if replica.state is ReplicaState.HEALTHY:
                return replica
            task = replica.rebuild_task
            if task is None:
                continue
            try:
                await task
            except Exception:  # noqa: BLE001 - try the next replica
                continue
            if replica.state is ReplicaState.HEALTHY:
                return replica
        raise WorkerDied(
            f"shard {rs.shard_id}: no replica could be rebuilt"
        )

    async def _checkpoint_shard(self, i: int) -> None:
        """Carry shard ``i``'s restore point to this boundary and
        truncate its op log.

        The first healthy replica answers with a redo record chained on
        the set's token, or with a base when the chain's bytes have
        reached the base's (:meth:`ReplicaSet.wants_base`) or the replica
        cannot chain one (it is not the process that gave the token, or
        growth or recovery intervened).  Requires no replica mid-rebuild
        and every healthy one caught up — a mid-rebuild replica still
        needs the log's tail for its catch-up replay, so the round is
        deferred (the old restore point + full log stay valid).  The
        condition is re-checked *after* the RPC returns: a sibling may
        die during the await, and truncating under its in-flight rebuild
        would orphan the replay.  A deferred answer is dropped; its token
        was fresh, so the next round cannot chain onto it and takes a
        base.
        """
        rs = self._sets[i]
        healthy = rs.healthy()
        if not healthy or not rs.caught_up():
            self.repl.checkpoints_deferred += 1
            return
        target = healthy[0]
        # The compaction rule, not a missing chain, asks for this base.
        compaction = rs.base is not None and rs.wants_base()
        since = None if compaction else rs.token
        started = time.perf_counter()
        try:
            reply = await self._locked_rpc(target, "checkpoint", (since,))
        except self._DEATH:
            self._note_death(rs, target)
            self.repl.checkpoints_deferred += 1
            return
        ms = (time.perf_counter() - started) * 1e3
        if not rs.caught_up():
            self.repl.checkpoints_deferred += 1
            return
        rs.adopt(reply)
        if reply.record:
            self.repl.checkpoint_records += 1
        else:
            self.repl.checkpoint_bases += 1
        kind = "record" if reply.record else "base"
        event(
            "checkpoint", shard=i, kind=kind, bytes=len(reply.blob),
            ms=round(ms, 3), compaction=compaction
        )
        rs.oplog.clear()
        for replica in rs.replicas:
            replica.log_pos = 0

    def _publish(self, **changes) -> None:
        """Replace the published boundary whole: the next snapshot id,
        the active sets' expected versions in ``_active`` order (so a
        cutover that grows the active set grows the vector) and the
        current routing epoch, plus ``changes`` (a flush's universe)."""
        self._published = dc_replace(
            self._published,
            snapshot_id=self._published.snapshot_id + 1,
            shard_versions=tuple(
                self._sets[i].expected_version for i in self._active
            ),
            routing_epoch=self.routing.epoch,
            **changes,
        )

    # -- rebalancing (online split) ----------------------------------------

    async def _maybe_rebalance(self) -> None:
        """One planner round at a flush boundary (writer lock held)."""
        planner = self.rebalance_planner
        if planner is None:
            return
        counts = self.placement.counts(self._active)
        self.rebalance.last_imbalance = planner.imbalance(counts)
        victim = planner.plan(counts)
        if victim is not None:
            await self._split_locked(victim)

    async def split_shard(self, victim: int) -> int:
        """Split ``victim``'s hash slice onto a new shard, online.

        Returns the new shard's id.  Reads keep serving throughout: the
        answer stream is exact at every instant (see ``_split_locked``).
        Raises ``ValueError`` between flushes: a split moves documents
        at a flush boundary only, and sends the victim nothing before
        its mover tombstones.
        """
        async with self._writer_lock:
            try:
                return await self._split_locked(victim)
            except ValueError as exc:
                event("split.refused", shard=victim, reason=str(exc))
                raise

    async def _flush_set(self, shard_id: int) -> None:
        """Journal and run one out-of-band flush on a single shard (a
        rebalance publish), then publish a new boundary if the shard is
        active."""
        outcome = await self._flush_shard(shard_id, False)
        self._sets[shard_id].adopt_flush(outcome)
        if shard_id in self._active:
            self._publish()

    async def _split_locked(self, victim: int) -> int:
        """The split protocol (writer lock held).

        The victim must be at a flush boundary — its op log empty or
        ending in a flush — or the split is refused before anything
        moves: replayed into the new shard, unflushed ops would be
        published by that shard's flush before the gateway's own.

        1. Seed the new shard's replica set with the victim's restore
           point and a copy of its op log, and bring every replica up
           from them as a start or a rebuild would — a copy of the
           victim built from parent-side state alone (no RPC reaches
           the victim), invisible to readers until cutover.
        2. Tombstone the *stayers* on the new shard (journaled deletes,
           so a replica rebuild replays them) and flush it.
        3. Cut over synchronously: install the split routing table, add
           the shard to the active list and publish the boundary that
           names it.  From this instant reads scatter to the new shard
           too; the victim still holds the movers, so both shards
           briefly answer for them — ``merge_unique`` in the answer
           merges keeps doc ids exact through the overlap, and vector
           queries (which sum per-shard df) carry the routing table
           while ``_split_overlap`` is up, so each worker counts only
           the documents routed to it.
        4. Tombstone the *movers* on the victim and flush it, closing
           the overlap window.  On the immediate tier a tombstone is
           visible once journaled, so the window is shorter still.

        No step loses availability: every read is served by each shard's
        read tier, on either tier — the immediate one adds only the
        writer's pending batch, empty when a split starts (rule above).
        """
        if victim not in self._active:
            raise ValueError(f"shard {victim} is not an active shard")
        vrs = self._sets[victim]
        if vrs.oplog and vrs.oplog[-1][0] != "flush":
            raise ValueError(
                f"shard {victim} has unflushed writes: split it at a "
                "flush boundary"
            )
        new_id = len(self._sets)
        table, movers, stayers = self.placement.split(victim, new_id)
        spec = dc_replace(vrs.replicas[0].spec, shard_id=new_id)
        rs = ReplicaSet(
            new_id, replica_specs(spec, self.replicas, None, new_id)
        )
        # No token: these processes have given no checkpoint answer, so
        # the set's first round takes a base.
        rs.base, rs.chain = vrs.base, list(vrs.chain)
        rs.oplog = list(vrs.oplog)
        results = await asyncio.gather(
            *(self._bring_up(rs, r, r.spec) for r in rs.replicas),
            return_exceptions=True,
        )
        failed = [r for r in results if isinstance(r, BaseException)]
        if failed:
            # Not in ``_sets`` yet, so ``close`` would never reap these.
            for replica in rs.replicas:
                await self._shut_down(replica)
            event("split.failed", shard=victim, error=repr(failed[0]))
            raise failed[0]
        self._sets.append(rs)
        for doc_id in stayers:
            await self._journal(rs, ("delete", doc_id))
        await self._flush_set(new_id)
        # -- cutover (synchronous: atomic w.r.t. the event loop) --
        cut_started = time.perf_counter()
        self.placement.routing = table
        self._active.append(new_id)
        self.nshards = len(self._active)
        self._publish()
        self._split_overlap = True
        # -- retire the movers from the victim --
        for doc_id in movers:
            await self._journal(vrs, ("delete", doc_id))
        await self._flush_set(victim)
        # Not in a ``finally``: if the flush never lands, the overlap
        # never closes either.
        self._split_overlap = False
        window = time.perf_counter() - cut_started
        await self._checkpoint_shard(victim)
        await self._checkpoint_shard(new_id)
        self.rebalance.splits += 1
        self.rebalance.docs_moved += len(movers)
        self.rebalance.cutover_seconds += window
        event(
            "split.cutover", shard=victim, new_shard=new_id,
            docs_moved=len(movers), cutover_seconds=window
        )
        return new_id

    # -- snapshots ---------------------------------------------------------

    def snapshot(self) -> GatewaySnapshot:
        """The current published boundary's identity token (no RPC)."""
        return self._published

    # -- read path (replicated scatter-gather) ----------------------------

    def _universe(
        self, snapshot: GatewaySnapshot | None
    ) -> tuple[int, frozenset]:
        """The evaluation universe: the pinned boundary's, the latest
        published one, or — on the immediate tier — the *live* writer
        state (every acknowledged add/delete, flushed or not), which is
        exactly the universe the workers' buffered postings live in."""
        if self.read_tier == "immediate":
            return self.placement.next_id, frozenset(self.placement.deleted)
        snapshot = snapshot or self._published
        return snapshot.ndocs, snapshot.deleted

    async def _read_shard(
        self,
        i: int,
        method: str,
        args: tuple,
        _retried: bool = False,
        _issued: tuple | None = None,
    ):
        """One logical read on shard ``i``, served by any valid replica.

        Rotates round-robin over the eligible replicas (healthy, caught
        up, at the published version — the version-vector guard).  Every
        answer arrives stamped ``(value, version)`` and a stamp trailing
        the published vector is discarded — the replica
        lied about being current, so it is pulled from rotation and
        resynced while the read fails over to a sibling.  Deadline
        misses and deaths fail over the same way.  Only when no replica
        is serviceable does the read wait for a rebuild: with one
        replica per shard that is the (PR 6) full-recovery-latency path;
        with two or more it never happens for a single failure.

        ``_issued`` is a scatter's head start: the rotation it drew and
        the member future it already enqueued on the rotation's head and
        waited its deadline out for (:meth:`_scatter_read`).
        """
        rs = self._sets[i]
        rotation, issued = _issued or (rs.rotation(), None)
        attempts = 0
        timed_out = False
        for replica in rotation:
            attempts += 1
            member, issued = issued, None
            if member is None:
                member = self._batcher(replica).enqueue(method, args)
                await asyncio.wait((member,), timeout=self.shard_timeout_s)
            if not member.done():
                # Abandoned, not cancelled: the frame it rides is shared
                # with batchmates, and the deadline covers this member
                # alone (queueing behind the connection's writes, batch
                # execution).
                self.stats.deadline_exceeded += 1
                event("read.deadline", replica=replica.name, method=method)
                timed_out = True
                continue
            try:
                value, version = member.result()
            except self._DEATH:
                self._note_death(rs, replica)
                continue
            if version < rs.expected_version:
                # The stamp trails the published boundary: the answer
                # cannot be trusted and neither can the replica's
                # bookkeeping — discard and resync.
                self.repl.stale_discarded += 1
                self._mark_recovering(rs, replica, observed_kill=False)
                continue
            self.repl.reads_served += 1
            if attempts > 1 or len(rotation) < len(rs.replicas):
                self.repl.read_failovers += 1
            return value
        if timed_out:
            # At least one live replica just ran over its deadline: this
            # is backpressure, not data loss — surface it.
            raise ShardDeadlineExceeded((i,), method)
        if _retried:
            raise WorkerDied(
                f"shard {i} has no serviceable replica for {method!r}"
            )
        # Every replica is down or mid-rebuild: wait one rebuild out and
        # retry once against the recovered set.
        self.repl.reads_waited_for_rebuild += 1
        await self._await_any_rebuild(rs)
        return await self._read_shard(i, method, args, _retried=True)

    def _batcher(self, replica: Replica) -> _ReadBatcher:
        if replica.batcher is None:
            replica.batcher = _ReadBatcher(self, replica)
        return replica.batcher

    async def _scatter_read(
        self, method: str, args: tuple
    ) -> tuple[list[int], list]:
        """The same read on every active shard: ``(shards, answers)``.

        Every query mode is answer-level, so this is one member per
        shard per query.  The members go onto their rotation heads'
        batchers synchronously — one frame per shard, shared with
        whatever other queries enqueue in the same tick — and one timer
        waits for all of them (issued in the same tick, they share a
        deadline).  :meth:`_read_shard` then validates each stamp; it
        suspends only for a shard whose first attempt died, ran late or
        came back stale, which continues down the rotation it drew.
        """
        active = list(self._active)
        issued = []
        members = []
        for i in active:
            rotation = self._sets[i].rotation()
            member = None
            if rotation:
                member = self._batcher(rotation[0]).enqueue(method, args)
                members.append(member)
            issued.append((rotation, member))
        if members:
            await asyncio.wait(members, timeout=self.shard_timeout_s)
        reads = (
            self._read_shard(i, method, args, _issued=head)
            for i, head in zip(active, issued)
        )
        if len(members) == len(active) and all(
            m.done() and m.exception() is None for m in members
        ):
            # No task, no gather: nothing below suspends unless a stamp
            # turns out stale.
            return active, [await read for read in reads]
        return active, await self._gather_with_deadlines(
            list(reads), method
        )

    async def _gather_with_deadlines(self, tasks, method: str) -> list:
        results = await asyncio.gather(*tasks, return_exceptions=True)
        late = tuple(
            sorted(
                {
                    shard
                    for result in results
                    if isinstance(result, ShardDeadlineExceeded)
                    for shard in result.shards
                }
            )
        )
        if late:
            completed = sum(
                not isinstance(result, Exception) for result in results
            )
            raise ShardDeadlineExceeded(late, method, completed)
        for result in results:
            if isinstance(result, Exception):
                raise result
        return list(results)

    async def search_boolean(
        self, query: str, snapshot: GatewaySnapshot | None = None
    ) -> QueryAnswer:
        """Shards evaluate, the gateway merges.  Evaluation is pointwise
        per document, so the global answer is the union of the shards'
        — once a complementing ``NOT``'s answer is cut back to the ids
        routed to the shard that gave it (the slices partition
        ``range(ndocs)``, so the restricted complements union to the
        global one)."""
        async with self._admit():
            # The gateway's one parse: rejects a malformed query before
            # any frame exists, and settles the NOT rule.
            restrict = boolean_query.parse(query).complements()
            ndocs, deleted = self._universe(snapshot)
            route = self.routing.route  # the table ``active`` is drawn under
            active, answers = await self._scatter_read(
                "eval_boolean", (query, ndocs)
            )
            runs = []
            read_ops = 0
            for i, (docs, ops) in zip(active, answers):
                read_ops += ops
                if restrict:
                    docs = [d for d in docs if route(d) == i]
                runs.append(docs)
            # merge_unique == a disjoint merge in the steady state; during
            # a split's relocation window it also hides the brief overlap.
            docs = scatter.merge_unique(runs)
            # Per-shard fetches are deletion-filtered, but NOT's complement
            # still contains deleted ids (paper §3: filter every answer).
            if deleted:
                docs = [d for d in docs if d not in deleted]
            return QueryAnswer(doc_ids=docs, read_ops=read_ops)

    async def search_streamed(
        self, query: str, snapshot: GatewaySnapshot | None = None
    ) -> QueryAnswer:
        async with self._admit():
            streaming_query.parse_flat(query)  # uniform rejection up front
            _, answers = await self._scatter_read("search_streamed", (query,))
            docs = scatter.merge_unique([docs for docs, _ in answers])
            return QueryAnswer(
                doc_ids=docs, read_ops=sum(ops for _, ops in answers)
            )

    async def search_vector(
        self,
        weights,
        top_k: int = 10,
        snapshot: GatewaySnapshot | None = None,
    ):
        ranked, _ = await self.search_vector_counted(
            weights, top_k=top_k, snapshot=snapshot
        )
        return ranked

    async def search_vector_counted(
        self,
        weights,
        top_k: int = 10,
        snapshot: GatewaySnapshot | None = None,
    ):
        async with self._admit():
            ndocs, _ = self._universe(snapshot)
            # Exactly the terms the ranker fetches (it skips zero
            # weights), as raw keys — vocabulary lookup owns normalization.
            terms = vector_query.query_terms(weights)
            # With the table a worker counts only the documents routed to
            # it; the steady state sends None and pays no hash per posting.
            routing = self.routing if self._split_overlap else None
            _, answers = await self._scatter_read(
                "eval_vector", (tuple(terms), top_k, routing)
            )
            ranked = vector_query.rank_candidates(
                weights,
                terms,
                [candidates for candidates, _ in answers],
                ndocs,
                top_k=top_k,
            )
            return ranked, sum(read_ops for _, read_ops in answers)

    async def ping(self, shard: int = 0, replica: int = 0) -> dict:
        """Liveness probe of one specific replica — a probe of a
        process, not a balanced read: one frame out and back, no index
        work.  A dead target is rebuilt first."""
        rs = self._sets[shard]
        target = rs.replicas[replica]
        try:
            return await self._locked_rpc(target, "ping", ())
        except self._DEATH:
            self._note_death(rs, target)
            await self._await_any_rebuild(rs)
            return await self._locked_rpc(target, "ping", ())

    # -- introspection ----------------------------------------------------

    async def check(self) -> InvariantReport:
        """Invariant-check every replica's published snapshot; merged
        report with shard/replica-prefixed violations.  Quiesces first so
        a mid-rebuild replica is checked in its recovered state."""
        await self.quiesce()
        report = InvariantReport()
        for i, rs in enumerate(self._sets):
            for replica in rs.replicas:
                if replica.state is not ReplicaState.HEALTHY:
                    continue
                sub = await self._locked_rpc(replica, "check", ())
                report.checks += sub.checks
                for violation in sub.violations:
                    report.violations.append(
                        Violation(
                            violation.code,
                            f"shard {i}/r{replica.replica_id}: "
                            f"{violation.detail}",
                        )
                    )
        return report

    async def worker_stats(self) -> list[dict]:
        stats = []
        for i, rs in enumerate(self._sets):
            for replica in rs.replicas:
                if replica.state is not ReplicaState.HEALTHY:
                    continue
                entry = dict(await self._locked_rpc(replica, "stats", ()))
                entry["shard"] = i
                entry["replica"] = replica.replica_id
                stats.append(entry)
        return stats

    async def buffer_stats(self) -> list[dict]:
        stats = []
        for rs in self._sets:
            healthy = rs.healthy()
            if not healthy:
                stats.append({})
                continue
            stats.append(
                await self._locked_rpc(healthy[0], "buffer_stats", ())
            )
        return stats


class GatewayService:
    """Thread-safe synchronous facade over :class:`AsyncShardGateway`.

    Presents the :class:`~repro.service.server.QueryService` surface —
    ``add_document`` / ``delete_document`` / ``flush_and_publish`` /
    ``snapshot`` / ``search_*`` plus ``stats`` / ``timings`` /
    ``publish_latency`` — so :class:`~repro.service.loadgen.LoadGenerator`
    and the CLI drive both serving stacks through one code path.  The
    workers publish, so ``stats`` counts documents and queries only; the
    :class:`RuntimeStats` sums are in :meth:`gateway_stats`.  Every
    public method is safe to call from any thread; no lone call pays a
    thread hop, and between calls the loop, rebuilds too, stands still.
    """

    def __init__(self, *args, **kwargs) -> None:
        self.gateway = AsyncShardGateway(*args, **kwargs)
        self.read_tier = self.gateway.read_tier
        self._loop = asyncio.new_event_loop()
        self._turn = threading.Condition()
        self._inside = 0  # callers inside the facade
        self._thread = None  # gateway-loop, while callers overlap
        self.stats = ServiceStats()
        self.timings = {"serve.flush": 0.0}
        self.publish_latency = LatencyRecorder()
        self._stats_lock = threading.Lock()
        self._closed = False
        try:
            self._run(self.gateway.start())
        except BaseException:
            # Nothing else holds this object: reap the workers that did
            # start before the caller sees the error.
            self.close()
            raise

    def _run(self, coro):
        """Run ``coro`` on the loop.  A lone caller drives it; callers that
        overlap ride it, then on a ``gateway-loop`` thread (DESIGN §13)."""
        with self._turn:
            # Once its last caller has left, gateway-loop is stopping.
            self._turn.wait_for(lambda: self._inside or not self._thread)
            self._inside += 1
            drive = self._inside == 1
        try:
            if drive:
                return self._loop.run_until_complete(coro)
            return asyncio.run_coroutine_threadsafe(coro, self._loop).result()
        finally:
            with self._turn:
                self._inside -= 1
                if drive and self._inside:
                    self._thread = threading.Thread(
                        target=self._serve, name="gateway-loop", daemon=True
                    )
                    self._thread.start()
                elif not (drive or self._inside):
                    self._loop.call_soon_threadsafe(self._loop.stop)
                self._turn.notify_all()

    def _serve(self) -> None:
        self._loop.run_forever()
        with self._turn:
            self._thread = None
            self._turn.notify_all()

    # -- writer API -------------------------------------------------------

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        doc_id = self._run(self.gateway.add_document(text, doc_id=doc_id))
        with self._stats_lock:
            self.stats.documents_ingested += 1
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        self._run(self.gateway.delete_document(doc_id))
        with self._stats_lock:
            self.stats.documents_deleted += 1

    def flush_and_publish(self) -> tuple[BatchResult, GatewaySnapshot]:
        start = time.perf_counter()
        result, snapshot = self._run(self.gateway.flush())
        self.timings["serve.flush"] += time.perf_counter() - start
        self.publish_latency.record(self.gateway.last_publish_seconds)
        return result, snapshot

    # -- reader API -------------------------------------------------------

    def snapshot(self) -> GatewaySnapshot:
        return self.gateway.snapshot()

    def _count_query(self, kind: str) -> None:
        with self._stats_lock:
            self.stats.queries[kind] = self.stats.queries.get(kind, 0) + 1

    def search_boolean(
        self, query: str, snapshot: GatewaySnapshot | None = None
    ) -> QueryAnswer:
        self._count_query("boolean")
        return self._run(self.gateway.search_boolean(query, snapshot))

    def search_streamed(
        self, query: str, snapshot: GatewaySnapshot | None = None
    ) -> QueryAnswer:
        self._count_query("streamed")
        return self._run(self.gateway.search_streamed(query, snapshot))

    def search_vector(
        self,
        weights,
        top_k: int = 10,
        snapshot: GatewaySnapshot | None = None,
    ):
        self._count_query("vector")
        return self._run(
            self.gateway.search_vector(weights, top_k=top_k, snapshot=snapshot)
        )

    # -- rebalance hooks --------------------------------------------------

    def split_shard(self, victim: int) -> int:
        """Split one shard's hash slice onto a new shard, online;
        returns the new shard id."""
        return self._run(self.gateway.split_shard(victim))

    # -- replication hooks ------------------------------------------------

    def kill_replica(self, shard: int, replica: int = 0) -> None:
        """SIGKILL one replica (chaos/bench hook; safe from any thread —
        the process handle is parent-side)."""
        self.gateway.kill_replica(shard, replica)

    def wait_for_recovery(self) -> None:
        """Block until every in-flight replica rebuild completes."""
        self._run(self.gateway.quiesce())

    # -- introspection / lifecycle ----------------------------------------

    def check(self) -> InvariantReport:
        return self._run(self.gateway.check())

    def gateway_stats(self) -> dict:
        """The report's ``gateway`` section; its :class:`RuntimeStats`
        keys are the sums over the healthy workers' counters."""
        gateway = self.gateway
        workers = self._run(gateway.worker_stats())
        merged = asdict(gateway.stats)
        merged["workers"] = workers
        if self.read_tier == "immediate":
            merged["mem_epochs"] = [
                gateway._sets[i].mem_epoch for i in gateway._active
            ]
        for f in fields(RuntimeStats):
            merged[f.name] = sum(w[f.name] for w in workers)
        merged["routing_epoch"] = gateway.routing.epoch
        merged["rebalance"] = {
            **asdict(gateway.rebalance),
            "routing_epoch": gateway.routing.epoch,
            "active_shards": list(gateway._active),
            "enabled": gateway.rebalance_planner is not None,
        }
        merged["replication"] = {
            **asdict(gateway.repl), "replicas": gateway.replicas,
            "rebuilds_in_flight": len(gateway.rebuilding()),
        }
        if gateway.rebuild_scheduler is not None:
            scheduler = gateway.rebuild_scheduler.as_dict()
            merged["replication"]["scheduler"] = scheduler
        merged["batching"] = asdict(gateway.batching)
        return merged

    def buffer_stats(self) -> list[dict]:
        return self._run(self.gateway.buffer_stats())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._run(self.gateway.close())
        finally:
            with self._turn:  # a loop another caller drives cannot close
                if self._turn.wait_for(
                    lambda: not (self._inside or self._thread), 10.0
                ):
                    self._loop.close()
