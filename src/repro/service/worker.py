"""The shard-worker process: one OS process owning one index volume.

Each worker runs :func:`worker_main` in its own process and owns a
complete :class:`~repro.textindex.TextDocumentIndex` end-to-end: ingest,
flush (with in-worker crash recovery for injected faults), snapshot
publication (full clone or incremental copy-on-write, exactly the
:mod:`repro.service.server` publish protocol), and query evaluation.
Queries are answered from the worker's *published* snapshot, never the
live writer, so the visibility contract matches the in-process service:
a document becomes queryable at the flush that publishes it.

The worker speaks the :mod:`repro.service.wire` protocol over one
inherited socket and processes requests strictly in order — a worker is
single-threaded on purpose.  Cross-shard concurrency comes from running
many workers; the gateway's per-shard connection serialization matches
this capacity exactly, so a request's deadline covers its queue wait.

Failure model: two distinct kinds of death are exercised.

* **Injected faults that the volume survives** — transient I/O errors
  and recoverable crashes under ``IndexConfig(crash_safe=True)`` — are
  retried *inside* the worker through ``recover(replay=True)``, the same
  rollback-and-replay loop the in-process service runs.
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
import signal
import time
from dataclasses import dataclass, field

from ..core.checkpoint import CheckpointError
from ..core.index import IndexConfig
from ..core.invariants import InvariantError
from ..core.memtier import MemTier
from ..core.rebalance import BucketGrower
from ..query import boolean as boolean_query
from ..query import twotier
from ..query import vector as vector_query
from ..storage import faults
from ..storage.faults import FaultPlan, InjectedCrash, TransientIOError
from ..text.tokenizer import tokenize_document
from ..textindex import TextDocumentIndex
from . import wire


@dataclass
class WorkerSpec:
    """Everything needed to (re)build one shard worker, picklable so it
    can cross the process boundary and be respawned verbatim after a
    failover (minus the fault plan — a respawn is a fresh machine)."""

    shard_id: int
    index_config: IndexConfig | None = None
    tokenizer_config: object = None
    region_rules: object = None
    publish_mode: str = "cow"
    #: Serialized :meth:`TextDocumentIndex.save` blob to restore from.
    restore: bytes | None = None
    #: Crash/fault schedule installed in the worker process.
    fault_plan: FaultPlan | None = None
    #: Turn an ``InjectedCrash`` into SIGKILL of the worker process.
    kill_on_crash: bool = False
    check_invariants: bool = False
    max_flush_retries: int = 8
    #: Decoded-chunk buffer cache blocks per publish (0 = no cache).
    buffer_cache_blocks: int = 0
    max_frame: int = wire.DEFAULT_MAX_FRAME
    #: "immediate" keeps a per-worker memory tier mirroring the pending
    #: batch so the gateway can serve reads before the next flush.
    read_tier: str = "snapshot"

    def respawn_spec(self) -> "WorkerSpec":
        """The spec a failover respawn uses: same volume shape, no fault
        plan (the injected failure happened; the replacement is clean)."""
        return WorkerSpec(
            shard_id=self.shard_id,
            index_config=self.index_config,
            tokenizer_config=self.tokenizer_config,
            region_rules=self.region_rules,
            publish_mode=self.publish_mode,
            restore=None,
            fault_plan=None,
            kill_on_crash=False,
            check_invariants=self.check_invariants,
            max_flush_retries=self.max_flush_retries,
            buffer_cache_blocks=self.buffer_cache_blocks,
            max_frame=self.max_frame,
            read_tier=self.read_tier,
        )


@dataclass
class FlushOutcome:
    """One flush request's reply (everything the gateway aggregates)."""

    result: object = None  # BatchResult | None (None = nothing pending)
    skipped: bool = False
    version: int = 0  # the shard's batch counter after the flush
    snapshot_version: int = 0
    ndocs: int = 0
    cow: bool = False
    recoveries: int = 0
    publish_seconds: float = 0.0
    checkpoint: bytes | None = None
    #: The shard's memory-tier epoch after the post-flush rebase (0 when
    #: the worker serves the snapshot tier only).
    mem_epoch: int = 0
    #: Bucket occupancy crossed the growth threshold: this shard asks the
    #: gateway's rebuild scheduler for a growth grant next round (always
    #: False when the volume was built without ``grow_buckets``).
    wants_grow: bool = False
    #: Bucket occupancy after this flush (diagnostics for the scheduler).
    occupancy: float = 0.0
    #: Live bucket count after this flush.
    nbuckets: int = 0
    #: This flush carried a granted growth and applied it.
    grew: bool = False


@dataclass
class WorkerStats:
    """Counters one worker accumulates over its lifetime."""

    publishes: int = 0
    cow_publishes: int = 0
    full_clone_publishes: int = 0
    cow_fallbacks: int = 0
    flush_recoveries: int = 0
    requests: int = 0
    queries: int = 0
    #: Batch frames received and member reads they carried (the spread
    #: between ``batched_reads`` and ``batch_frames`` is frames saved).
    batch_frames: int = 0
    batched_reads: int = 0

    def as_dict(self) -> dict:
        return {
            "publishes": self.publishes,
            "cow_publishes": self.cow_publishes,
            "full_clone_publishes": self.full_clone_publishes,
            "cow_fallbacks": self.cow_fallbacks,
            "flush_recoveries": self.flush_recoveries,
            "requests": self.requests,
            "queries": self.queries,
            "batch_frames": self.batch_frames,
            "batched_reads": self.batched_reads,
        }


class ShardWorker:
    """The in-process half of one shard worker (testable without a fork).

    Owns the writer volume and the published snapshot; the request loop
    in :func:`worker_main` is a thin dispatch over this object's methods,
    so unit tests can drive a worker directly and the process wrapper
    stays trivial.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        if spec.publish_mode not in ("clone", "cow"):
            raise ValueError("publish_mode must be 'clone' or 'cow'")
        if spec.read_tier not in ("snapshot", "immediate"):
            raise ValueError("read_tier must be 'snapshot' or 'immediate'")
        self.spec = spec
        if spec.restore is not None:
            self.writer = TextDocumentIndex.load(io.BytesIO(spec.restore))
            self.writer.tokenizer_config = spec.tokenizer_config
            self.writer.region_rules = spec.region_rules
        else:
            self.writer = TextDocumentIndex(
                spec.index_config,
                tokenizer_config=spec.tokenizer_config,
                region_rules=spec.region_rules,
            )
        self.stats = WorkerStats()
        self._snapshot_version = 0
        self._pinned: dict[int, TextDocumentIndex] = {}
        self._dirty_since_publish = False
        # Readers always have a snapshot: publish the initial (empty or
        # restored) state wholesale — there is nothing to share with.
        self._published = self.writer.clone()
        journal = self.writer.delta
        if journal is not None:
            journal.clear()
        self._buffer_counters = None
        if spec.buffer_cache_blocks:
            self.attach_buffer_cache(spec.buffer_cache_blocks)
        # The immediate-access memory tier mirrors the writer's pending
        # batch against the published snapshot.  Doc ids are *global*
        # (the gateway's router hands each shard an increasing
        # subsequence), but the two-tier partition invariant holds per
        # shard all the same: the published snapshot's ndocs is a global
        # id watermark, and everything this shard buffers sits above it.
        # A respawned worker rebuilds the tier naturally from the op-log
        # replay the gateway drives through add/delete.
        self.memtier: MemTier | None = None
        if spec.read_tier == "immediate":
            self.memtier = MemTier(base=self._published)
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
        doc_id = self.writer.add_document(text, doc_id=doc_id)
        if self.memtier is not None:
            self.memtier.add_document(
                doc_id, tokenize_document(text, self.spec.tokenizer_config)
            )
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        self._dirty_since_publish = True
        self.writer.delete_document(doc_id)
        if self.memtier is not None:
            self.memtier.delete_document(doc_id)

    # -- flush + publish --------------------------------------------------

    def _flush_with_recovery(self) -> tuple[object, int]:
        """The in-process service's retry loop, run inside the worker."""
        attempts = 0
        recoveries = 0
        recovering = False
        while True:
            try:
                if recovering:
                    recoveries += 1
                    replayed = self.writer.recover(replay=True)
                    if replayed is not None:
                        return replayed, recoveries
                    recovering = False
                    continue
                return self.writer.flush_batch(), recoveries
            except InjectedCrash:
                if self.spec.kill_on_crash:
                    # The fault model says this crash kills the machine:
                    # die for real so the gateway's failover path — not
                    # in-worker recovery — is what gets exercised.
                    os.kill(os.getpid(), signal.SIGKILL)
                if not self.writer.crash_safe:
                    raise
                attempts += 1
                if attempts > self.spec.max_flush_retries:
                    raise
                recovering = True
            except TransientIOError:
                if not self.writer.crash_safe:
                    raise
                attempts += 1
                if attempts > self.spec.max_flush_retries:
                    raise
                recovering = True

    def _publish(self) -> bool:
        """Publish the writer's boundary state; True when shared (cow)."""
        journal = self.writer.delta
        snapshot = None
        cow = False
        if self.spec.publish_mode == "cow" and journal is not None:
            try:
                snapshot = self.writer.clone_incremental(
                    self._published, journal
                )
                cow = True
            except CheckpointError:
                self.stats.cow_fallbacks += 1
        if snapshot is None:
            snapshot = self.writer.clone()
        if self.spec.check_invariants:
            report = snapshot.check()
            if not report.ok:
                raise InvariantError(report)
        if self._buffer_counters is not None:
            # Carry the warmed cache across a cow publish (minus the
            # batch's dirty blocks); a full clone starts cold.
            snapshot.attach_buffer_cache(
                self.spec.buffer_cache_blocks,
                self._buffer_counters,
                prev=self._published if cow else None,
                delta=journal if cow else None,
            )
        if journal is not None:
            journal.clear()
        self._published = snapshot
        if self.memtier is not None:
            # Drop the buffered postings the flush just absorbed; the
            # single-threaded worker has no concurrent readers, but the
            # rebase keeps the tier's answers invariant regardless.
            self.memtier.rebase(snapshot)
        self._snapshot_version += 1
        self._dirty_since_publish = False
        self.stats.publishes += 1
        if cow:
            self.stats.cow_publishes += 1
        else:
            self.stats.full_clone_publishes += 1
        return cow

    def flush(
        self, include_checkpoint: bool = False, grow: bool = False
    ) -> FlushOutcome:
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
        pending = len(self.writer.index.memory) > 0
        if not pending and not self._dirty_since_publish and not grow:
            return FlushOutcome(
                skipped=True,
                version=self.writer.batches,
                snapshot_version=self._snapshot_version,
                ndocs=self.writer.ndocs,
                mem_epoch=self._mem_epoch(),
                wants_grow=self._wants_grow(),
                occupancy=self.writer.index.buckets.occupancy(),
                nbuckets=self.writer.index.buckets.nbuckets,
            )
        result = None
        recoveries = 0
        if pending:
            result, recoveries = self._flush_with_recovery()
            self.stats.flush_recoveries += recoveries
        if grow:
            self.writer.index.grow_bucket_space(self._grower)
        start = time.perf_counter()
        cow = self._publish()
        publish_seconds = time.perf_counter() - start
        checkpoint = self.checkpoint() if include_checkpoint else None
        return FlushOutcome(
            result=result,
            version=self.writer.batches,
            snapshot_version=self._snapshot_version,
            ndocs=self.writer.ndocs,
            cow=cow,
            recoveries=recoveries,
            publish_seconds=publish_seconds,
            checkpoint=checkpoint,
            mem_epoch=self._mem_epoch(),
            wants_grow=self._wants_grow(),
            occupancy=self.writer.index.buckets.occupancy(),
            nbuckets=self.writer.index.buckets.nbuckets,
            grew=grow,
        )

    def _wants_grow(self) -> bool:
        return self._grower is not None and self._grower.should_grow(
            self.writer.index.buckets
        )

    def _mem_epoch(self) -> int:
        return self.memtier.epoch if self.memtier is not None else 0

    def checkpoint(self) -> bytes:
        """The writer serialized at its current batch boundary."""
        buf = io.BytesIO()
        self.writer.save(buf)
        return buf.getvalue()

    # -- snapshot pinning (remote clone semantics) ------------------------

    def publish_pin(self) -> int:
        """Publish the current boundary and pin it; returns the pin id.

        The remote analogue of ``IndexShard.clone()``: the caller gets a
        stable identifier for an immutable snapshot that later queries
        can address explicitly, surviving subsequent publishes until
        :meth:`release_pin`.
        """
        if self._dirty_since_publish or len(self.writer.index.memory):
            self._publish()
        pin = self._snapshot_version
        self._pinned[pin] = self._published
        return pin

    def release_pin(self, pin: int) -> None:
        self._pinned.pop(pin, None)

    def _snapshot_for(self, snapshot_id: int | None) -> TextDocumentIndex:
        if snapshot_id is None:
            return self._published
        try:
            return self._pinned[snapshot_id]
        except KeyError:
            raise KeyError(
                f"snapshot {snapshot_id} is not pinned on shard "
                f"{self.spec.shard_id}"
            ) from None

    # -- retrieval (published snapshot) -----------------------------------

    def _immediate_view(self):
        if self.memtier is None:
            raise ValueError(
                f"shard {self.spec.shard_id} was built with "
                "read_tier='snapshot'"
            )
        return self.memtier.view()

    def _fetcher(self, snapshot_id: int | None, tier: str | None):
        """The ``word -> (doc_ids, read_ops)`` primitive of the state a
        read addresses: the immediate view, or the published / pinned
        snapshot."""
        if tier == "immediate":
            view = self._immediate_view()
            return lambda word: twotier.fetch_postings(view, word)
        return self._snapshot_for(snapshot_id).fetch_postings

    def fetch_postings(
        self,
        word: str,
        snapshot_id: int | None = None,
        tier: str | None = None,
    ) -> tuple[list[int], int]:
        self.stats.queries += 1
        return self._fetcher(snapshot_id, tier)(word)

    def _counted_fetch(self, snapshot_id: int | None, tier: str | None):
        """``(fetch, counter)``: an evaluator's ``word -> doc_ids`` over
        :meth:`_fetcher`, charging read ops into ``counter[0]``."""
        source = self._fetcher(snapshot_id, tier)
        counter = [0]

        def fetch(word: str) -> list[int]:
            docs, read_ops = source(word)
            counter[0] += read_ops
            return docs

        return fetch, counter

    def eval_boolean(
        self,
        query: str,
        ndocs: int,
        snapshot_id: int | None = None,
        tier: str | None = None,
    ) -> tuple[list[int], int]:
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
        fetch, counter = self._counted_fetch(snapshot_id, tier)
        return boolean_query.evaluate(query, fetch, ndocs), counter[0]

    def eval_vector(
        self,
        terms: tuple,
        top_k: int,
        snapshot_id: int | None = None,
        tier: str | None = None,
    ) -> tuple[tuple, int]:
        """This shard's part of a gateway vector query: ``((df per term,
        candidates grouped by term bitmask), read_ops)`` — see
        :func:`repro.query.vector.shard_candidates`.  Stateless: idf
        needs every shard's df, so the gateway scores."""
        self.stats.queries += 1
        fetch, counter = self._counted_fetch(snapshot_id, tier)
        return vector_query.shard_candidates(terms, fetch, top_k), counter[0]

    def search_boolean(
        self,
        query: str,
        snapshot_id: int | None = None,
        tier: str | None = None,
    ) -> tuple[list[int], int]:
        """The whole-shard boolean answer (own universe, own deletions)
        as ``(doc_ids, read_ops)`` — the :class:`IndexShard` surface a
        :class:`~repro.service.gateway.ShardProxy` presents."""
        self.stats.queries += 1
        if tier == "immediate":
            answer = twotier.search_boolean(self._immediate_view(), query)
        else:
            answer = self._snapshot_for(snapshot_id).search_boolean(query)
        return answer.doc_ids, answer.read_ops

    def search_streamed(
        self,
        query: str,
        snapshot_id: int | None = None,
        tier: str | None = None,
    ) -> tuple[list[int], int]:
        """Per-shard flat AND/OR evaluation as ``(doc_ids, read_ops)``
        (every document lives wholly on one shard, so the gateway may
        union shard answers).  The immediate tier merges buffered
        postings over the published snapshot."""
        self.stats.queries += 1
        if tier == "immediate":
            answer = twotier.search_streamed(self._immediate_view(), query)
        else:
            answer = self._snapshot_for(snapshot_id).search_streamed(query)
        return answer.doc_ids, answer.read_ops

    def search_vector_counted(
        self,
        weights,
        top_k: int = 10,
        snapshot_id: int | None = None,
        tier: str | None = None,
    ):
        """The whole-shard ranking (own universe) plus its read ops."""
        self.stats.queries += 1
        if tier == "immediate":
            return twotier.search_vector_counted(
                self._immediate_view(), weights, top_k=top_k
            )
        return self._snapshot_for(snapshot_id).search_vector_counted(
            weights, top_k=top_k
        )

    def deleted_ids(self, snapshot_id: int | None = None) -> list[int]:
        """The published snapshot's deletion set (sorted)."""
        return sorted(self._snapshot_for(snapshot_id).deletions.deleted)

    def versioned_read(self, method: str, args: tuple):
        """A read stamped with this replica's version vector entry.

        The replicated gateway cannot trust an answer on the strength of
        its own bookkeeping alone — a replica may have fallen behind the
        published boundary between eligibility check and execution (it
        was rebuilt, or its flush never landed).  So every read returns
        ``(value, version, mem_epoch)`` and the gateway discards answers
        whose stamp trails the published vector.  Only retrieval methods
        are dispatchable; mutations must travel the journaled write path.
        """
        if method not in READ_METHODS:
            raise ValueError(f"{method!r} is not a read method")
        value = getattr(self, method)(*args)
        return value, self.writer.batches, self._mem_epoch()

    def batched_read(self, requests: tuple) -> tuple:
        """Evaluate a micro-batch of reads against one pinned state.

        The worker is single-threaded, so the published snapshot (and the
        memory tier, and the writer's batch counter) cannot move between
        members: version/snapshot validation happens **once per batch**,
        and the whole reply carries a single ``(version, mem_epoch)``
        stamp every member answer is true for.  Per-member failures are
        isolated — a poison query yields an errored member
        :class:`~repro.service.wire.Response` while its batchmates
        answer normally — exactly the error surface the member would
        have had as a lone frame.
        """
        self.stats.batch_frames += 1
        self.stats.batched_reads += len(requests)
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
        return tuple(responses), self.writer.batches, self._mem_epoch()

    # -- introspection ----------------------------------------------------

    def info(self) -> dict:
        return {
            "pid": os.getpid(),
            "shard": self.spec.shard_id,
            "ndocs": self.writer.ndocs,
            "batches": self.writer.batches,
            "snapshot_version": self._snapshot_version,
            "published_ndocs": self._published.ndocs,
            "pins": sorted(self._pinned),
            "read_tier": self.spec.read_tier,
            "mem_epoch": self._mem_epoch(),
            "wants_grow": self._wants_grow(),
            "occupancy": self.writer.index.buckets.occupancy(),
            "nbuckets": self.writer.index.buckets.nbuckets,
        }

    def dirty_terms(self) -> frozenset:
        return self.writer.dirty_terms()

    def export_documents(self) -> list:
        """The writer's live documents reconstructed from its postings
        (see :meth:`TextDocumentIndex.export_documents`) — the gateway's
        relocation source when merging this shard into a sibling.  Call
        at a batch boundary (the gateway merges right after a flush
        round, so the writer is always flushed here)."""
        return self.writer.export_documents()

    def check(self):
        """Invariant-check the *published* snapshot (what readers see)."""
        return self._snapshot_for(None).check()

    def freeze(self) -> None:
        self._snapshot_for(None).freeze()

    def recover(self, replay: bool = True):
        """Roll back (and optionally replay) an aborted writer flush."""
        return self.writer.recover(replay=replay)

    def attach_buffer_cache(self, blocks: int) -> None:
        """Attach a worker-local decoded-chunk cache to the published
        snapshot (counters cannot cross the process boundary, so each
        worker keeps its own; :meth:`buffer_stats` reports them).  The
        cache is re-attached — carried forward when possible — at every
        subsequent publish."""
        from ..pipeline.profiling import HitMissCounters

        if self._buffer_counters is None:
            self._buffer_counters = HitMissCounters()
        self.spec.buffer_cache_blocks = blocks
        self._snapshot_for(None).attach_buffer_cache(
            blocks, self._buffer_counters
        )

    def buffer_stats(self) -> dict:
        counters = getattr(self, "_buffer_counters", None)
        return counters.as_dict() if counters is not None else {}

    def debug_sleep(self, seconds: float) -> float:
        """Block the worker loop (deadline and backpressure tests)."""
        time.sleep(seconds)
        return seconds

    def ping(self) -> dict:
        return {"pid": os.getpid(), "shard": self.spec.shard_id}

    def stats_dict(self) -> dict:
        return self.stats.as_dict()


#: Methods :meth:`ShardWorker.versioned_read` and batch frames may
#: dispatch — the gateway's read surface (everything here is
#: side-effect-free on index state).  The whole-shard ``search_boolean``
#: / ``search_vector_counted`` are plain RPCs: only a ``ShardProxy``
#: calls them.
READ_METHODS = frozenset(
    {
        "fetch_postings",
        "eval_boolean",
        "eval_vector",
        "search_streamed",
        "deleted_ids",
    }
)


#: RPC method name -> ShardWorker attribute (the dispatch table; every
#: entry is part of the wire contract the gateway and proxies rely on).
DISPATCH = {
    "ping": "ping",
    "info": "info",
    "add_document": "add_document",
    "delete_document": "delete_document",
    "flush": "flush",
    "checkpoint": "checkpoint",
    "publish_pin": "publish_pin",
    "release_pin": "release_pin",
    "fetch_postings": "fetch_postings",
    "eval_boolean": "eval_boolean",
    "eval_vector": "eval_vector",
    "search_boolean": "search_boolean",
    "search_streamed": "search_streamed",
    "search_vector_counted": "search_vector_counted",
    "versioned_read": "versioned_read",
    "deleted_ids": "deleted_ids",
    "recover": "recover",
    "dirty_terms": "dirty_terms",
    "export_documents": "export_documents",
    "check": "check",
    "freeze": "freeze",
    "attach_buffer_cache": "attach_buffer_cache",
    "buffer_stats": "buffer_stats",
    "debug_sleep": "debug_sleep",
    "stats": "stats_dict",
}


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
                request = wire.recv_message(sock, spec.max_frame)
            except wire.WireError:
                break
            if request is None:
                break
            worker.stats.requests += 1
            if isinstance(request, wire.BatchRequest):
                responses, version, mem_epoch = worker.batched_read(
                    request.requests
                )
                reply = wire.BatchResponse(
                    request.request_id, responses, version, mem_epoch
                )
                try:
                    wire.send_message(sock, reply, spec.max_frame)
                except wire.FrameTooLarge:
                    # Degrade per member: every answer is refused, but
                    # the envelope still arrives so no waiter hangs.
                    errored = tuple(
                        wire.Response(
                            r.request_id,
                            False,
                            error="FrameTooLarge: batch response "
                            "exceeded the frame budget",
                        )
                        for r in responses
                    )
                    wire.send_message(
                        sock,
                        wire.BatchResponse(
                            request.request_id, errored, version, mem_epoch
                        ),
                        spec.max_frame,
                    )
                continue
            if request.method == "shutdown":
                wire.send_message(
                    sock,
                    wire.Response(request.request_id, True, None),
                    spec.max_frame,
                )
                break
            handler = DISPATCH.get(request.method)
            if handler is None:
                response = wire.Response(
                    request.request_id,
                    False,
                    error=f"UnknownMethod: {request.method!r}",
                )
            else:
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
                wire.send_message(sock, response, spec.max_frame)
            except wire.FrameTooLarge:
                wire.send_message(
                    sock,
                    wire.Response(
                        request.request_id,
                        False,
                        error="FrameTooLarge: response exceeded the "
                        "frame budget",
                    ),
                    spec.max_frame,
                )
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


def default_index_config() -> IndexConfig:
    """The worker-friendly default volume shape (content mode on)."""
    return IndexConfig(store_contents=True)
