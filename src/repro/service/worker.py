"""The shard-worker process: one OS process owning one index volume.

Each worker runs :func:`worker_main` in its own process and owns a
complete :class:`~repro.textindex.TextDocumentIndex` end-to-end: ingest,
flush, snapshot publication and query evaluation.  Flush-with-recovery
and publication (incremental copy-on-write, the full clone its fallback)
are not written here: the worker drives the same
:class:`~repro.service.runtime.ShardRuntime` the in-process
:class:`~repro.service.server.QueryService` drives, and adds what only a
replica needs — skipping an idle flush, the gateway's growth grant,
dying for real at an injected crash, checkpoints (a redo record chained
on the caller's token, folded from every publish's journal through the
runtime's ``install`` hook, or a full base; DESIGN.md §19).
Queries are answered from the worker's *published* snapshot, never the
live writer, so the visibility contract matches the in-process service:
a document becomes queryable at the flush that publishes it.

The worker speaks the :mod:`repro.service.wire` protocol over one
inherited socket and processes requests strictly in order — a worker is
single-threaded on purpose.  Cross-shard concurrency comes from running
many workers; the gateway's per-shard connection serialization matches
this capacity exactly, so a request's deadline covers its queue wait.
The gateway's read surface is three shard-evaluation methods
(:data:`READ_METHODS`), reachable only as members of a batch frame
(:meth:`ShardWorker.batched_read`, one version stamp per frame): the
worker evaluates a query against its own postings and replies with an
answer, never with raw posting lists.

Failure model: two distinct kinds of death are exercised.

* **Injected faults that the volume survives** — transient I/O errors
  and recoverable crashes under ``IndexConfig(crash_safe=True)`` — are
  retried *inside* the worker by the runtime's rollback-and-replay loop.
* **Process death** (``kill_on_crash=True`` turns an
  :class:`~repro.storage.faults.InjectedCrash` at a named crash point
  into ``SIGKILL`` of the worker itself, emulating a machine dying
  mid-flush) is unsurvivable by design: the gateway detects the broken
  connection and rebuilds a fresh worker from its parent-side checkpoint
  plus the replayed op log (:mod:`repro.service.gateway`).
"""

from __future__ import annotations

import io
import os
import secrets
import signal
import time
from dataclasses import asdict, dataclass, replace

from ..core.delta import DeltaJournal
from ..core.index import IndexConfig
from ..core.memtier import MemTier
from ..core.rebalance import BucketGrower
from ..query import boolean as boolean_query
from ..query import twotier
from ..query import vector as vector_query
from ..storage import faults
from ..storage.faults import FaultPlan
from ..textindex import TextDocumentIndex
from . import wire
from .runtime import RuntimeStats, ShardRuntime


@dataclass
class WorkerSpec:
    """Everything needed to (re)build one shard worker, picklable so it
    can cross the process boundary and be respawned verbatim after a
    failover (minus the fault plan — a respawn is a fresh machine)."""

    shard_id: int
    index_config: IndexConfig | None = None
    #: Restore point: a :meth:`TextDocumentIndex.save` base blob followed
    #: by the redo records chained on it (:meth:`TextDocumentIndex.restore`).
    restore: tuple[bytes, ...] | None = None
    #: Crash/fault schedule installed in the worker process.
    fault_plan: FaultPlan | None = None
    #: Turn an ``InjectedCrash`` into SIGKILL of the worker process.
    kill_on_crash: bool = False
    check_invariants: bool = False
    #: Decoded-chunk buffer cache blocks per publish (0 = no cache).
    buffer_cache_blocks: int = 0
    #: "immediate" serves the writer's pending batch through a memory
    #: tier so the gateway can read documents before the next flush.
    read_tier: str = "snapshot"

    def respawn_spec(self) -> "WorkerSpec":
        """The spec a failover respawn uses: same volume shape, no fault
        plan (the injected failure happened; the replacement is clean)."""
        return replace(
            self, restore=None, fault_plan=None, kill_on_crash=False
        )


@dataclass
class FlushOutcome:
    """One flush request's reply (everything the gateway aggregates)."""

    result: object = None  # BatchResult | None (None = nothing pending)
    version: int = 0  # the shard's batch counter after the flush
    ndocs: int = 0
    publish_seconds: float = 0.0
    #: This process's memory-tier epoch after the post-flush rebase (0
    #: when the worker serves the snapshot tier only).  Reported, never
    #: compared: it is per process (:mod:`repro.service.replication`).
    mem_epoch: int = 0
    #: Bucket occupancy crossed the growth threshold: this shard asks the
    #: gateway's rebuild scheduler for a growth grant next round (always
    #: False when the volume was built without ``grow_buckets``).
    wants_grow: bool = False


@dataclass(frozen=True)
class CheckpointReply:
    """One checkpoint request's reply: a redo record chained on the
    caller's token, or a full base (DESIGN.md §19)."""

    #: Names this answer; pass it back as ``since`` to chain the next
    #: record onto it.  Fresh in every answer, so an answer the caller
    #: discarded can never be chained onto.
    token: int
    #: True: ``blob`` is a :meth:`TextDocumentIndex.save_record` record;
    #: False: a :meth:`TextDocumentIndex.save` base.
    record: bool
    blob: bytes


@dataclass
class WorkerStats(RuntimeStats):
    """Counters one worker accumulates over its lifetime."""

    requests: int = 0
    queries: int = 0


class ShardWorker:
    """The in-process half of one shard worker (testable without a fork).

    Owns the writer volume and the published snapshot; the request loop
    in :func:`worker_main` is a thin dispatch over this object's methods,
    so unit tests can drive a worker directly and the process wrapper
    stays trivial.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        if spec.restore is not None:
            self.writer = TextDocumentIndex.restore(
                spec.restore[0], spec.restore[1:]
            )
        else:
            self.writer = TextDocumentIndex(spec.index_config)
        self.stats = WorkerStats()
        self._dirty_since_publish = False
        # Checkpoint chaining: every publish's journal folds into
        # ``_since``; a record is cut from it when the caller names
        # ``_token``, the answer this process gave last, taken at
        # ``_mark``.  A fresh process has answered nothing, so its first
        # checkpoint is a base.
        self._since = DeltaJournal()
        self._token: int | None = None
        self._mark = self.writer.mark
        # The flush → recover → publish → rebase state machine (DESIGN.md
        # §10.1).  Building it publishes the initial (empty or restored)
        # state, so readers always have a snapshot.
        self.runtime = ShardRuntime(
            self.writer,
            self.stats,
            check_invariants=spec.check_invariants,
            buffer_cache_blocks=spec.buffer_cache_blocks,
            on_crash=_die if spec.kill_on_crash else None,
        )
        self.runtime.tags = {"shard": spec.shard_id}
        # The immediate-access memory tier reads the writer's pending
        # batch over the published snapshot.  Doc ids are *global* (the
        # gateway's router hands each shard an increasing subsequence),
        # but the two-tier partition invariant holds per shard all the
        # same: the published snapshot's ndocs is a global id watermark,
        # and everything this shard buffers sits above it.  A respawned
        # worker's batch refills from the op-log replay the gateway
        # drives through add/delete.
        self.memtier: MemTier | None = None
        if spec.read_tier == "immediate":
            self.memtier = self.runtime.memtier = MemTier(
                self.writer, self.runtime.published
            )
        # Bucket growth is *gateway-scheduled*: the in-flush auto-grower
        # is detached so replicas of one shard never grow unilaterally —
        # the grow decision rides the journaled flush op instead, which
        # makes every replica (and every op-log replay) grow at the same
        # batch boundary.  The worker keeps its own grower to answer
        # ``wants_grow`` and to apply granted growth in :meth:`flush`.
        config = spec.index_config or IndexConfig()
        self._grower = (
            BucketGrower(config.growth) if config.grow_buckets else None
        )
        self.writer.index.grower = None

    # -- ingest -----------------------------------------------------------

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        self._dirty_since_publish = True
        return self.runtime.add_document(text, doc_id)

    def delete_document(self, doc_id: int) -> None:
        self._dirty_since_publish = True
        self.runtime.delete_document(doc_id)

    # -- flush + publish --------------------------------------------------

    def flush(self, grow: bool = False) -> FlushOutcome:
        """Flush the pending batch (if any) and publish the new boundary.

        A shard with nothing pending — no batched documents, no deletions
        since the last publish — skips both the flush and the publish, so
        its version vector component stands still exactly like an
        in-process :class:`~repro.core.sharded.ShardedTextIndex` shard.

        ``grow=True`` carries a growth grant from the gateway's rebuild
        scheduler: the bucket space is expanded *after* the flush lands
        (so growth never interleaves with the flush's crash-recovery
        retry loop) and before the publish, which therefore pays the
        full-clone fallback this round.  The grant rides the journaled
        flush op, so an op-log replay reproduces the growth at the same
        boundary.  Ignored when the volume was built without
        ``grow_buckets``.
        """
        grow = grow and self._grower is not None
        pending = (
            len(self.writer.index.memory) > 0 or self.writer.needs_recovery
        )
        result = None
        publish_seconds = 0.0
        if pending or self._dirty_since_publish or grow:
            if pending:
                result = self.runtime.flush()
            if grow:
                self.writer.index.grow_bucket_space(self._grower)
            start = time.perf_counter()
            self.runtime.publish(install=self._absorb)
            publish_seconds = time.perf_counter() - start
            self._dirty_since_publish = False
        return FlushOutcome(
            result=result,
            version=self.writer.batches,
            ndocs=self.writer.ndocs,
            publish_seconds=publish_seconds,
            mem_epoch=self._mem_epoch(),
            wants_grow=self._wants_grow(),
        )

    def _wants_grow(self) -> bool:
        return self._grower is not None and self._grower.should_grow(
            self.writer.index.buckets
        )

    def _mem_epoch(self) -> int:
        return self.memtier.epoch if self.memtier is not None else 0

    def _absorb(self, index, delta):
        """The publish's ``install`` hook: fold the batch's journal into
        the since-checkpoint one before the runtime clears it.  A process
        that has given no checkpoint answer can only answer a base, so it
        keeps none (a replica the gateway never asks stays that way)."""
        if self._token is not None:
            self._since.absorb(delta)
        return index

    def checkpoint(self, since: int | None) -> CheckpointReply:
        """The writer at its current batch boundary, as a redo record
        when ``since`` is this process's last answer and nothing since
        required a full clone (growth, recovery), else as a full base."""
        dirty = DeltaJournal()
        dirty.absorb(self._since)
        # Mutations not yet published (none at a gateway flush boundary)
        # belong in the record too.
        dirty.absorb(self.writer.delta)
        record = (
            since is not None
            and since == self._token
            and not dirty.requires_full
        )
        buf = io.BytesIO()
        if record:
            self.writer.save_record(buf, dirty, self._mark)
        else:
            self.writer.save(buf)
        self._token = secrets.randbits(64)
        self._mark = self.writer.mark
        self._since.clear()
        return CheckpointReply(self._token, record, buf.getvalue())

    # -- retrieval (published snapshot) -----------------------------------

    def _counted_fetch(self):
        """``(fetch, counter)``: an evaluator's ``word -> doc_ids`` over
        the state this worker's read tier serves — the immediate view,
        or the published snapshot — charging read ops into
        ``counter[0]``."""
        if self.memtier is not None:
            view = self.memtier.view()

            def source(word: str):
                return twotier.fetch_postings(view, word)
        else:
            source = self.runtime.published.fetch_postings
        counter = [0]

        def fetch(word: str) -> list[int]:
            docs, read_ops = source(word)
            counter[0] += read_ops
            return docs

        return fetch, counter

    def eval_boolean(self, query: str, ndocs: int) -> tuple[list[int], int]:
        """This shard's part of a gateway boolean query: ``(doc_ids,
        read_ops)`` evaluated against its own postings.

        ``ndocs`` is the *gateway's* universe.  Evaluation is pointwise
        per document and a document lives wholly on one shard, so the
        answer is exact for this shard's documents; where ``NOT``
        complements, it also names every id of the universe this shard
        never held, which the gateway cuts back to the shard's routed
        slice.  The gateway also owns the deletion filter (its universe
        may be a pinned boundary's), so none is applied here beyond the
        one each fetch carries.
        """
        self.stats.queries += 1
        fetch, counter = self._counted_fetch()
        return boolean_query.evaluate(query, fetch, ndocs), counter[0]

    def eval_vector(
        self, terms: tuple, top_k: int, routing=None
    ) -> tuple[tuple, int]:
        """This shard's part of a gateway vector query: ``((df per term,
        candidates grouped by term bitmask), read_ops)`` — see
        :func:`repro.query.vector.shard_candidates`.  Stateless: idf
        needs every shard's df, so the gateway scores.

        ``routing`` is the gateway's :class:`~repro.core.routing.RoutingTable`
        while a split's overlap window is open and two shards hold the
        movers: each list is cut to the documents the table routes here
        before df is counted, so the shards' df still sum to the global
        one wherever in the window this runs.  Read ops are charged by
        the fetch, so the filter does not move them.
        """
        self.stats.queries += 1
        fetch, counter = self._counted_fetch()
        if routing is not None:
            counted, route, here = fetch, routing.route, self.spec.shard_id

            def fetch(word: str) -> list[int]:
                return [d for d in counted(word) if route(d) == here]

        return vector_query.shard_candidates(terms, fetch, top_k), counter[0]

    def search_streamed(self, query: str) -> tuple[list[int], int]:
        """Per-shard flat AND/OR evaluation as ``(doc_ids, read_ops)``
        (every document lives wholly on one shard, so the gateway may
        union shard answers).  The immediate tier merges buffered
        postings over the published snapshot."""
        self.stats.queries += 1
        if self.memtier is not None:
            answer = twotier.search_streamed(self.memtier.view(), query)
        else:
            answer = self.runtime.published.search_streamed(query)
        return answer.doc_ids, answer.read_ops

    def batched_read(self, requests: tuple) -> tuple:
        """Evaluate a micro-batch of reads against one pinned state —
        the only way a read reaches this worker.

        The gateway cannot trust an answer on the strength of its own
        bookkeeping alone — a replica may have fallen behind the
        published boundary between eligibility check and execution (it
        was rebuilt, or its flush never landed) — so the reply is
        stamped with the batch counter, on both read tiers
        (:mod:`repro.service.replication` says why it is the whole
        stamp), and the gateway discards answers whose stamp trails the
        published vector.  The worker is single-threaded, so the
        published snapshot (and the memory tier, and the counter) cannot
        move between members: validation happens **once per frame** and
        the one ``version`` is true for every member answer.  Only
        :data:`READ_METHODS` may be members; mutations must travel the
        journaled write path.  Per-member failures are isolated — a
        poison query yields an errored member
        :class:`~repro.service.wire.Response` while its batchmates
        answer normally.
        """
        responses = []
        for i, request in enumerate(requests):
            if request.method not in READ_METHODS:
                responses.append(
                    wire.Response(
                        i,
                        False,
                        error=(
                            f"ValueError: {request.method!r} is not a "
                            "read method"
                        ),
                    )
                )
                continue
            try:
                value = getattr(self, request.method)(*request.args)
                responses.append(wire.Response(i, True, value))
            except Exception as exc:  # noqa: BLE001 - typed member reply
                responses.append(
                    wire.Response(
                        i, False, error=f"{type(exc).__name__}: {exc}"
                    )
                )
        return tuple(responses), self.writer.batches

    # -- introspection ----------------------------------------------------

    def info(self) -> dict:
        return {
            "ndocs": self.writer.ndocs,
            "batches": self.writer.batches,
            "mem_epoch": self._mem_epoch(),
            "wants_grow": self._wants_grow(),
            "nbuckets": self.writer.index.buckets.nbuckets,
        }

    def check(self):
        """Invariant-check the *published* snapshot (what readers see)."""
        return self.runtime.published.check()

    def buffer_stats(self) -> dict:
        """The published snapshots' decoded-chunk cache counters
        (counters cannot cross the process boundary, so each worker
        keeps its own)."""
        counters = self.runtime.buffer_counters
        return asdict(counters) if counters is not None else {}

    def debug_sleep(self, seconds: float) -> float:
        """Block the worker loop (deadline and backpressure tests)."""
        time.sleep(seconds)
        return seconds

    def ping(self) -> dict:
        return {"pid": os.getpid(), "shard": self.spec.shard_id}

    def stats_dict(self) -> dict:
        return asdict(self.stats)


#: The gateway's read surface: what a batch frame's members may name
#: (everything here is side-effect-free on index state).  Reads exist
#: only as batch members — none of these is in :data:`DISPATCH`, so a
#: bare ``Request`` cannot fetch an answer that carries no version stamp.
READ_METHODS = frozenset({"eval_boolean", "eval_vector", "search_streamed"})


#: RPC method name -> ShardWorker attribute for bare ``Request`` frames
#: (writes, lifecycle and introspection; every entry is part of the wire
#: contract the gateway relies on).
DISPATCH = {
    "ping": "ping",
    "info": "info",
    "add_document": "add_document",
    "delete_document": "delete_document",
    "flush": "flush",
    "checkpoint": "checkpoint",
    "check": "check",
    "buffer_stats": "buffer_stats",
    "debug_sleep": "debug_sleep",
    "stats": "stats_dict",
}


def _die() -> None:
    """``kill_on_crash``: the fault model says this crash kills the
    machine, so die for real — the gateway's failover path, not
    in-worker recovery, is what gets exercised."""
    os.kill(os.getpid(), signal.SIGKILL)


def _over_budget(reply):
    """The refusal sent in place of a reply over the frame budget.  A
    batch degrades per member: every answer is refused, but the envelope
    still arrives, so no waiter hangs."""
    if isinstance(reply, wire.BatchResponse):
        members = tuple(
            _refusal(r.request_id, "batch response") for r in reply.responses
        )
        return wire.BatchResponse(reply.request_id, members, reply.version)
    return _refusal(reply.request_id, "response")


def _refusal(request_id: int, what: str) -> wire.Response:
    return wire.Response(
        request_id,
        False,
        error=f"FrameTooLarge: {what} exceeded the frame budget",
    )


def serve(sock, spec: WorkerSpec) -> None:
    """The worker request loop: read a frame, dispatch, reply, repeat.

    Exits cleanly on a ``shutdown`` request or when the gateway closes
    its end of the socket.  Any exception a handler raises is reported as
    a typed error response; framing-level corruption terminates the loop
    (a desynchronized stream cannot be trusted with another frame).
    """
    worker = ShardWorker(spec)
    if spec.fault_plan is not None:
        faults.install(spec.fault_plan)
    try:
        while True:
            try:
                request = wire.recv_message(sock)
            except wire.WireError:
                break
            if request is None:
                break
            worker.stats.requests += 1
            if isinstance(request, wire.BatchRequest):
                responses, version = worker.batched_read(request.requests)
                response = wire.BatchResponse(
                    request.request_id, responses, version
                )
            elif request.method == "shutdown":
                wire.send_message(
                    sock, wire.Response(request.request_id, True, None)
                )
                break
            elif request.method not in DISPATCH:
                response = wire.Response(
                    request.request_id,
                    False,
                    error=f"UnknownMethod: {request.method!r}",
                )
            else:
                handler = DISPATCH[request.method]
                try:
                    value = getattr(worker, handler)(*request.args)
                    response = wire.Response(request.request_id, True, value)
                except Exception as exc:  # noqa: BLE001 - typed reply
                    response = wire.Response(
                        request.request_id,
                        False,
                        error=f"{type(exc).__name__}: {exc}",
                    )
            try:
                wire.send_message(sock, response)
            except wire.FrameTooLarge:
                wire.send_message(sock, _over_budget(response))
    finally:
        faults.uninstall()
        sock.close()


def worker_main(sock, spec: WorkerSpec) -> None:
    """Child-process entry point (the ``multiprocessing`` target)."""
    # The worker must not react to the parent's Ctrl-C: the gateway owns
    # shutdown via the socket (or SIGKILL on abandon).
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    serve(sock, spec)
