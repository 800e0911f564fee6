"""The concurrent query service: one writer, many snapshot readers.

Protocol (DESIGN.md §10):

* a single **writer** owns the live :class:`~repro.textindex.TextDocumentIndex`
  and is the only thread that mutates it (``add_document`` /
  ``delete_document`` / ``flush_and_publish`` serialize on the writer lock);
* at each flush the writer *publishes*: it clones the index at the batch
  boundary, incrementally — structurally sharing everything the batch's
  delta journal did not touch with the previous snapshot — per volume,
  and by the full checkpoint clone for a volume whose journal cannot
  prove coverage (crash recovery, bucket growth); it wraps the clone in
  an :class:`~repro.service.snapshot.IndexSnapshot`, atomically swaps it
  into ``self._snapshot`` and clears the result cache, whose entries hit
  only at the snapshot id they were computed at;
* **readers** never lock: they load the current snapshot reference (one
  atomic pointer read) and evaluate against that immutable structure, so a
  query that started before a publish simply finishes on the older
  snapshot — the serving-layer analogue of the paper's "the batch can be
  searched simultaneously with the larger index".

Fault tolerance: with ``IndexConfig(crash_safe=True, fault_plan=...)`` a
flush that dies mid-update (injected crash, torn write, transient I/O
error) is rolled back via :meth:`DualStructureIndex.recover` and replayed;
a crash injected during the publish clone is simply retried, because the
flush had already completed at a consistent boundary.  Readers are never
exposed to either: the previous snapshot stays published until the new one
is fully built.  The steps themselves live in
:class:`~repro.service.runtime.ShardRuntime`, shared with the shard
workers; this module adds the lock, the snapshot ids and the result cache.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..core.index import BatchResult, IndexConfig
from ..core.memtier import MemTier
from ..core.shard import IndexShard
from ..core.sharded import build_text_index
from ..pipeline.profiling import LatencyRecorder, StageTimings
from ..query import twotier
from ..query.vector import ScoredDocument
from ..textindex import QueryAnswer
from .cache import QueryResultCache
from .runtime import RuntimeStats, ShardRuntime
from .snapshot import IndexSnapshot

#: Seconds between two looks of the :class:`BackgroundMerger` at the
#: memory tier.
MERGE_INTERVAL_S = 0.02


class ServiceError(Exception):
    """Raised when a flush cannot complete within the retry budget."""


@dataclass
class ServiceStats(RuntimeStats):
    """Counters describing one service lifetime."""

    documents_ingested: int = 0
    documents_deleted: int = 0
    queries: dict[str, int] = field(default_factory=dict)

    @property
    def queries_served(self) -> int:
        return sum(self.queries.values())


class QueryService:
    """Snapshot-isolated query serving over an incrementally updated index.

    Readers call ``search_boolean`` / ``search_streamed`` /
    ``search_vector`` from any number of threads; the writer ingests and
    publishes.  Cached answers are keyed by ``(kind, query)``, stamped
    with the snapshot id they were computed at, and report the read ops the original
    evaluation charged (a hit costs no I/O; the cache stats record it).

    Each publish builds the snapshot incrementally from the previous one
    plus the writer's delta journal — O(batch) instead of O(index) —
    and falls back to a full clone, per volume, whenever the journal
    cannot prove coverage (crash recovery, bucket growth).
    ``publish_mode`` is a pin the benchmark harness passes; only
    ``"cow"`` is accepted.  ``buffer_cache_blocks`` > 0 attaches a
    shared LRU of decoded long-list chunks to every published snapshot
    (carried across publishes minus the batch's dirty blocks).

    ``shards`` > 1 partitions the collection by stable doc-id hash
    across that many independent dual-structure volumes (see
    :mod:`repro.core.sharded`): the single-writer/lock-free-reader
    protocol is unchanged — the writer still serializes on one lock and
    a publish swaps the complete shard-snapshot vector in as one
    reference assignment — but flushes touch only the shards a batch
    reached and queries scatter-gather across shards with byte-identical
    answers.  With the default ``shards=1`` the service runs the exact
    single-volume path.
    """

    def __init__(
        self,
        config: IndexConfig | None = None,
        *,
        cache_capacity: int = 256,
        check_invariants: bool = False,
        publish_mode: str = "cow",
        buffer_cache_blocks: int = 0,
        shards: int = 1,
        router_seed: int = 0,
        read_tier: str = "snapshot",
    ) -> None:
        if publish_mode != "cow":
            # Pinned by benchmarks/harness/workloads.py:288 and
            # tracing.py:220,224; the full clone is the fallback only.
            raise ValueError("publish_mode must be 'cow'")
        if buffer_cache_blocks < 0:
            raise ValueError("buffer_cache_blocks must be >= 0")
        if shards < 1:
            raise ValueError("shards must be >= 1")
        if read_tier not in ("snapshot", "immediate"):
            raise ValueError("read_tier must be 'snapshot' or 'immediate'")
        self._writer: IndexShard = build_text_index(
            config, shards=shards, router_seed=router_seed
        )
        self.shards = shards
        self._writer_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self.cache = QueryResultCache(cache_capacity)
        self.stats = ServiceStats()
        self.timings = StageTimings()
        self.publish_latency = LatencyRecorder()
        # The flush → recover → publish → rebase state machine (DESIGN.md
        # §10.1).  Building it publishes the empty index, so readers
        # always have a snapshot.
        self._runtime = ShardRuntime(
            self._writer,
            self.stats,
            check_invariants=check_invariants,
            buffer_cache_blocks=buffer_cache_blocks,
            error=ServiceError,
        )
        self.buffer_counters = self._runtime.buffer_counters
        self._snapshot = IndexSnapshot(self._runtime.published, 0)
        # The immediate-access memory tier (DESIGN.md §14): the writer's
        # own pending batch, read under a watermark over each published
        # snapshot.  Built only when the service serves the immediate
        # tier.
        self.read_tier = read_tier
        self._memtier: MemTier | None = None
        if read_tier == "immediate":
            self._memtier = self._runtime.memtier = MemTier(
                self._writer, self._snapshot
            )

    # -- writer API --------------------------------------------------------

    @property
    def writer_index(self) -> IndexShard:
        """The live index (writer-side inspection; do not query from
        reader threads — use :meth:`snapshot`)."""
        return self._writer

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        """Ingest one document into the writer's in-memory batch.

        The document becomes visible to readers at the next
        :meth:`flush_and_publish` — exactly the paper's batch-update
        visibility contract.  ``doc_id`` pins an explicit non-decreasing
        global id (the skewed workload generator targets shards by
        choosing ids; ordinary callers let the writer assign them).
        """
        with self._writer_lock:
            doc_id = self._runtime.add_document(text, doc_id)
            self.stats.documents_ingested += 1
            return doc_id

    def delete_document(self, doc_id: int) -> None:
        """Delete a document; visible to readers at the next publish
        (immediately, as a tombstone, when serving the immediate tier)."""
        with self._writer_lock:
            self._runtime.delete_document(doc_id)
            self.stats.documents_deleted += 1

    def flush_and_publish(self) -> tuple[BatchResult, IndexSnapshot]:
        """Apply the pending batch and atomically publish a new snapshot.

        Returns the flush's :class:`BatchResult` and the published
        snapshot.  Injected crashes and transient I/O failures during the
        flush roll back and replay through the index's undo log
        (``crash_safe=True``); failures during the publish clone are
        retried in place.  Raises :class:`ServiceError` when the retry
        budget is exhausted; the next call then begins with the rollback
        and replay, and writes are refused until it has run.
        """
        with self._writer_lock:
            with self.timings.stage("serve.flush"):
                result = self._runtime.flush()
            with self.publish_latency.span():
                self._runtime.publish(self._install)
            return result, self._snapshot

    def _install(self, index: IndexShard, delta) -> IndexSnapshot:
        """The runtime's install hook: wrap the clone, clear the result
        cache, swap the pointer — in that order."""
        snapshot = IndexSnapshot(index, self._snapshot.snapshot_id + 1)
        self.cache.invalidate()
        # The swap is a single reference assignment (atomic under the
        # interpreter); readers holding the old snapshot finish on it.
        self._snapshot = snapshot
        return snapshot

    # -- reader API --------------------------------------------------------

    def snapshot(self) -> IndexSnapshot:
        """The currently published snapshot (atomic reference read)."""
        return self._snapshot

    @property
    def memtier(self) -> MemTier | None:
        """The immediate-access memory tier (None on snapshot-only
        services)."""
        return self._memtier

    def memtier_stats(self) -> dict | None:
        """The memory tier's counters, or None when not serving it."""
        return self._memtier.stats() if self._memtier is not None else None

    def _count_query(self, kind: str) -> None:
        with self._stats_lock:
            self.stats.queries[kind] = self.stats.queries.get(kind, 0) + 1

    def search_boolean(
        self,
        query: str,
        snapshot: IndexSnapshot | None = None,
    ) -> QueryAnswer:
        """Serve a boolean query from the current snapshot (cached).

        Pass ``snapshot`` to pin evaluation to a snapshot the caller
        already holds (the stress driver verifies the answer against the
        mirror it froze for that exact snapshot).  A service built with
        ``read_tier="immediate"`` always evaluates against the live
        buffer's base and ignores the pin.
        """
        self._count_query("boolean")
        if self._memtier is not None:
            view = self._memtier.view()
            snapshot_id = view.base.snapshot_id
            key = ("imm-boolean", query)
            cached = self.cache.get(key, snapshot_id, view.epoch)
            if cached is not None:
                doc_ids, read_ops = cached
                return QueryAnswer(doc_ids=list(doc_ids), read_ops=read_ops)
            answer = twotier.search_boolean(view, query)
            self.cache.put(
                key,
                (tuple(answer.doc_ids), answer.read_ops),
                snapshot_id,
                view.epoch,
            )
            return answer
        snapshot = snapshot or self._snapshot
        key = ("boolean", query)
        cached = self.cache.get(key, snapshot.snapshot_id)
        if cached is not None:
            doc_ids, read_ops = cached
            return QueryAnswer(doc_ids=list(doc_ids), read_ops=read_ops)
        answer = snapshot.search_boolean(query)
        self.cache.put(
            key, (tuple(answer.doc_ids), answer.read_ops), snapshot.snapshot_id
        )
        return answer

    def search_streamed(
        self,
        query: str,
        snapshot: IndexSnapshot | None = None,
    ) -> QueryAnswer:
        """Serve a flat AND/OR query from the current snapshot (cached)."""
        self._count_query("streamed")
        if self._memtier is not None:
            view = self._memtier.view()
            snapshot_id = view.base.snapshot_id
            key = ("imm-streamed", query)
            cached = self.cache.get(key, snapshot_id, view.epoch)
            if cached is not None:
                doc_ids, read_ops = cached
                return QueryAnswer(doc_ids=list(doc_ids), read_ops=read_ops)
            answer = twotier.search_streamed(view, query)
            self.cache.put(
                key,
                (tuple(answer.doc_ids), answer.read_ops),
                snapshot_id,
                view.epoch,
            )
            return answer
        snapshot = snapshot or self._snapshot
        key = ("streamed", query)
        cached = self.cache.get(key, snapshot.snapshot_id)
        if cached is not None:
            doc_ids, read_ops = cached
            return QueryAnswer(doc_ids=list(doc_ids), read_ops=read_ops)
        answer = snapshot.search_streamed(query)
        self.cache.put(
            key, (tuple(answer.doc_ids), answer.read_ops), snapshot.snapshot_id
        )
        return answer

    def search_vector(
        self,
        weights: dict[str, float],
        top_k: int = 10,
        snapshot: IndexSnapshot | None = None,
    ) -> list[ScoredDocument]:
        """Serve a ranked vector query from the current snapshot (cached)."""
        self._count_query("vector")
        query_key = (tuple(sorted(weights.items())), top_k)
        if self._memtier is not None:
            view = self._memtier.view()
            snapshot_id = view.base.snapshot_id
            key = ("imm-vector", query_key)
            cached = self.cache.get(key, snapshot_id, view.epoch)
            if cached is not None:
                return list(cached)
            ranked, _ = twotier.search_vector_counted(
                view, weights, top_k=top_k
            )
            self.cache.put(key, tuple(ranked), snapshot_id, view.epoch)
            return ranked
        snapshot = snapshot or self._snapshot
        key = ("vector", query_key)
        cached = self.cache.get(key, snapshot.snapshot_id)
        if cached is not None:
            return list(cached)
        ranked = snapshot.search_vector(weights, top_k=top_k)
        self.cache.put(key, tuple(ranked), snapshot.snapshot_id)
        return ranked


class BackgroundMerger:
    """Drains the memory tier through the normal flush/publish path.

    A daemon thread that watches the service's memory tier and calls
    :meth:`QueryService.flush_and_publish` whenever enough work has
    accumulated (``min_buffered`` buffered documents, or any
    tombstone).  The merge is the *existing* flush: it takes the
    writer lock, so ingest briefly queues behind a merge, but readers
    never block — they keep serving the memory tier's view throughout,
    and the publish-then-rebase sequence keeps immediate answers
    invariant across the boundary (DESIGN.md §14).

    Flush failures under fault injection are counted and retried on the
    next tick, whose flush begins with the rollback and replay — a failed
    merge leaves the tier intact and merely defers visibility compaction.
    """

    def __init__(
        self,
        service: QueryService,
        *,
        min_buffered: int = 1,
    ) -> None:
        if service.memtier is None:
            raise ValueError(
                "background merge requires a service with "
                "read_tier='immediate'"
            )
        self.service = service
        self.min_buffered = min_buffered
        self.merges = 0
        self.errors = 0
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _due(self) -> bool:
        view = self.service.memtier.view()
        if view.is_empty():
            return False
        if view.buffered_docs >= self.min_buffered:
            return True
        # Tombstones buffer no document of their own; drain them too.
        return bool(view.tombstones)

    def _merge_once(self) -> bool:
        try:
            self.service.flush_and_publish()
            self.merges += 1
            return True
        except Exception:
            self.errors += 1
            return False

    def _run(self) -> None:
        while not self._stop.is_set():
            if self._due():
                self._merge_once()
            self._stop.wait(MERGE_INTERVAL_S)

    def start(self) -> "BackgroundMerger":
        self._thread = threading.Thread(
            target=self._run, name="memtier-merger", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the merge loop, then flush whatever remains buffered."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        if not self.service.memtier.view().is_empty():
            self._merge_once()

    def stats(self) -> dict:
        return {"merges": self.merges, "errors": self.errors}
