"""Document-partitioned sharding: N independent dual-structure volumes.

:class:`ShardedTextIndex` implements the :class:`~repro.core.shard.IndexShard`
protocol over a vector of :class:`~repro.textindex.TextDocumentIndex`
volumes.  Global doc ids are assigned sequentially by the sharded index
and routed to a shard by the stable hash in
:func:`~repro.core.shard.shard_of`; each shard therefore receives an
*increasing subsequence* of the global ids, which keeps every per-shard
posting list sorted by global doc id and pairwise disjoint across shards
— the property :mod:`repro.query.scatter` exploits to gather exact
answers.

Update scaling comes from per-shard flushes: a batch touches only the
shards that received documents (empty shards are skipped and their batch
counters stand still, which is why the published identity of a sharded
snapshot is the per-shard *vector* of batch counters, not one number).
Flushes run serially: a flush is pure-Python CPU work under one GIL, so
the multi-core flush is one worker process per shard
(:mod:`repro.service.gateway`), not a pool in here.

Everything the serving layer leans on composes per shard:

* **delta journals** aggregate into a :class:`ShardDeltaVector` whose
  ``clear()`` spans all shards, so copy-on-write publication stays
  per-shard incremental;
* **recovery** rolls back and replays only the shards whose flush
  aborted — completed sibling results are retained in an in-flight table
  so the batch as a whole is restartable without redoing finished work;
* **invariant checks** run per volume and merge into one report with
  shard-prefixed violations.

This module is deliberately *not* exported from ``repro.core``'s package
namespace: it imports the text facade (which imports ``repro.core``), so
it must only be imported from layers above the core.
"""

from __future__ import annotations

from typing import Sequence

from ..query import boolean as boolean_query
from ..query import scatter
from ..query import streaming as streaming_query
from ..query import vector as vector_query
from ..query.vector import ScoredDocument
from ..textindex import QueryAnswer, TextDocumentIndex
from .index import BatchResult, IndexConfig
from .invariants import InvariantReport, Violation
from .rebalance import RebuildScheduler
from .routing import RoutingTable
from .shard import publish_copy


class ShardDeltaVector:
    """Aggregate view over per-shard delta journals.

    The serving layer treats the writer's ``delta`` as one object: it
    passes it to ``publish_copy`` and clears it after a publish.  For a
    sharded writer both are a fan-out over the per-shard
    :class:`~repro.core.delta.DeltaJournal`s — which stay individually
    attached to their volumes, so flushes keep recording into them
    between publishes.
    """

    __slots__ = ("journals",)

    def __init__(self, journals: Sequence) -> None:
        self.journals = list(journals)

    def clear(self) -> None:
        for journal in self.journals:
            journal.clear()


class ShardedTextIndex:
    """A document-hash-sharded text index (implements ``IndexShard``).

    ``shards`` volumes are created from one :class:`IndexConfig`;
    ``router_seed`` perturbs the doc-id hash (any seed yields a valid
    partition — the differential tests sweep it).
    """

    def __init__(
        self,
        config: IndexConfig | None = None,
        *,
        shards: int = 2,
        router_seed: int = 0,
        rebuild_stagger: bool = False,
    ) -> None:
        if shards < 2:
            raise ValueError(
                "ShardedTextIndex needs shards >= 2; use "
                "TextDocumentIndex (or build_text_index) for one volume"
            )
        self.shards = [TextDocumentIndex(config) for _ in range(shards)]
        self.router_seed = router_seed
        # Epoch 0: identity slot map, routing exactly like shard_of.
        self.routing = RoutingTable.initial(shards, router_seed)
        # Serialize grow_buckets rebuilds across shards: at most one
        # shard pays the rehash + full-clone publish per flush round.
        self.rebuild_scheduler = (
            RebuildScheduler() if rebuild_stagger else None
        )
        self._next_doc_id = 0
        self._batches = 0
        # *User* deletions over the global universe.  Per-shard deleted
        # sets additionally hold rebalance tombstones (documents a split
        # moved off a volume), which must hide a shard's stale copy but
        # must NOT hide the document from NOT-complement answers — so
        # global answer filtering uses this set, never the shard union.
        self._deleted: set[int] = set()
        # Doc ids skipped by explicit-id ingest (skewed placement):
        # they exist on no shard, so rebalance doc counts must not
        # treat them as live documents.
        self._holes: set[int] = set()
        # Completed per-shard results of the batch currently being
        # flushed: survives a sibling shard's crash so recovery resumes
        # instead of redoing finished shards.
        self._inflight: dict[int, BatchResult] = {}

    # -- identity ---------------------------------------------------------

    @property
    def ndocs(self) -> int:
        """Size of the *global* doc-id universe (spans all shards)."""
        return self._next_doc_id

    @property
    def batches(self) -> int:
        """Completed *global* batch flushes (each may touch few shards)."""
        return self._batches

    @property
    def shard_versions(self) -> tuple[int, ...]:
        return tuple(shard.batches for shard in self.shards)

    @property
    def crash_safe(self) -> bool:
        return self.shards[0].crash_safe

    @property
    def needs_recovery(self) -> bool:
        return any(shard.needs_recovery for shard in self.shards)

    def pending_batch(self) -> tuple:
        return tuple(
            part for shard in self.shards for part in shard.pending_batch()
        )

    @property
    def delta(self):
        journals = [shard.delta for shard in self.shards]
        if any(journal is None for journal in journals):
            return None
        return ShardDeltaVector(journals)

    @property
    def routing_epoch(self) -> int:
        """The routing table's epoch (0 until the first rebalance)."""
        return self.routing.epoch

    def route(self, doc_id: int) -> int:
        """The shard index owning ``doc_id`` under the current epoch."""
        return self.routing.route(doc_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedTextIndex(shards={len(self.shards)}, "
            f"ndocs={self._next_doc_id}, versions={self.shard_versions})"
        )

    # -- ingest -----------------------------------------------------------

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        """Assign (or accept) a global doc id and index the document on
        the shard the router owns it to."""
        if doc_id is None:
            doc_id = self._next_doc_id
        elif doc_id < self._next_doc_id:
            raise ValueError(
                f"doc id {doc_id} below next id {self._next_doc_id}: "
                "ids must be non-decreasing"
            )
        self.shards[self.route(doc_id)].add_document(text, doc_id=doc_id)
        # Only an accepted add leaves holes behind it (the gateway's rule).
        self._holes.update(range(self._next_doc_id, doc_id))
        self._next_doc_id = doc_id + 1
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        """Route the deletion to the shard that indexed the document;
        refused, as the gateway refuses it, for an id never added."""
        if not 0 <= doc_id < self._next_doc_id:
            raise ValueError(
                f"doc id {doc_id} outside [0, {self._next_doc_id})"
            )
        if doc_id in self._holes:
            raise ValueError(f"doc id {doc_id} was never added")
        self.shards[self.route(doc_id)].delete_document(doc_id)
        self._deleted.add(doc_id)

    # -- flushing ---------------------------------------------------------

    def flush_batch(self) -> BatchResult:
        """Flush every shard's pending batch as one global batch.

        Shards that received no documents are skipped outright — their
        batch counters (and hence their component of
        :attr:`shard_versions`) do not advance, and a copy-on-write
        publish shares their entire volume.  A crash in one shard leaves
        completed sibling results in the in-flight table, so calling
        :meth:`recover` resumes the same global batch.
        """
        pending = [
            i
            for i, shard in enumerate(self.shards)
            if i not in self._inflight and len(shard.index.memory)
        ]
        suppressed = self._stagger_rebuilds()
        try:
            for i in pending:
                self._inflight[i] = self.shards[i].flush_batch()
        finally:
            for i, grower in suppressed:
                self.shards[i].index.grower = grower
        results = self._inflight
        self._inflight = {}
        self._batches += 1
        return BatchResult.total(self._batches, results.values())

    def _stagger_rebuilds(self) -> list[tuple]:
        """Ask the rebuild scheduler which shards may grow this round.

        Occupancy only changes at a flush, so the trigger state observed
        here equals the state at the previous flush boundary — the same
        decision input a replicated gateway reads from its workers' last
        flush outcomes, which keeps the two growth schedules identical.
        Every shard *not* granted this round has its grower detached for
        the duration (restored afterwards) — including shards below the
        threshold right now, whose incoming batch could push them over
        mid-flush and grow around the scheduler.  A deferred or newly
        triggered shard re-announces itself every round until granted,
        so no growth is lost, only delayed.
        """
        if self.rebuild_scheduler is None:
            return []
        wants = [
            i
            for i, shard in enumerate(self.shards)
            if shard.index.grower is not None
            and shard.index.grower.should_grow(shard.index.buckets)
        ]
        granted = self.rebuild_scheduler.grant(wants)
        suppressed = []
        for i, shard in enumerate(self.shards):
            if i not in granted and shard.index.grower is not None:
                suppressed.append((i, shard.index.grower))
                shard.index.grower = None
        return suppressed

    # -- recovery ---------------------------------------------------------

    def recover(self, replay: bool = True) -> BatchResult | None:
        """Recover only the shards whose flush aborted; siblings are
        untouched.  With ``replay``, finishes the interrupted global
        batch: replays each aborted shard, then flushes any shards whose
        batches never started, and returns the aggregate result."""
        if not self.crash_safe:
            raise RuntimeError(
                "recover() requires IndexConfig(crash_safe=True)"
            )
        for i, shard in enumerate(self.shards):
            if shard.needs_recovery:
                result = shard.recover(replay=replay)
                if replay and result is not None:
                    self._inflight[i] = result
        if not replay:
            self._inflight = {}
            return None
        pending = any(len(s.index.memory) for s in self.shards)
        if not self._inflight and not pending:
            return None
        return self.flush_batch()

    # -- rebalancing ------------------------------------------------------

    def shard_doc_counts(self) -> list[int]:
        """Live documents per shard under the current routing epoch.

        An O(ndocs) lazy scan over the global universe (the index keeps
        no per-shard doc list); the rebalance planner samples this at
        flush boundaries, where the cost is amortized against the flush
        itself.
        """
        counts = [0] * len(self.shards)
        for doc_id in range(self._next_doc_id):
            if doc_id in self._deleted or doc_id in self._holes:
                continue
            counts[self.routing.route(doc_id)] += 1
        return counts

    def split_shard(self, victim: int) -> int:
        """Split ``victim``'s hash slice onto a brand-new shard.

        The new volume is spawned as a *clone* of the victim (the same
        move a replica rebuild makes from a checkpoint), after which
        each copy tombstones the half it no longer owns: the victim
        deletes the movers, the clone deletes the stayers.  Routing
        tombstones go through the ordinary deletion filter — they hide a
        volume's stale copy from its answers — but never enter the
        global user-deletion set, so the documents stay globally alive.
        Publishes the next routing epoch and returns the new shard id.
        """
        if not 0 <= victim < len(self.shards):
            raise ValueError(f"no shard {victim}")
        new_id = len(self.shards)
        table = self.routing.split(victim, new_id)
        vol = self.shards[victim]
        if len(vol.index.memory):
            # Clones exist at batch boundaries only.
            vol.flush_batch()
        clone = vol.clone()
        self.shards.append(clone)
        for doc_id in range(vol.ndocs):
            if self.routing.route(doc_id) != victim:
                continue  # never lived on this volume
            if table.route(doc_id) == new_id:
                vol.delete_document(doc_id)  # mover: stale on the victim
            else:
                clone.delete_document(doc_id)  # stayer: stale on the clone
        self.routing = table
        return new_id

    # -- publication ------------------------------------------------------

    def _empty_copy(self) -> "ShardedTextIndex":
        copy = ShardedTextIndex.__new__(ShardedTextIndex)
        copy.router_seed = self.router_seed
        # Routing tables are immutable: the clone shares this epoch's
        # table and parts ways at the writer's next rebalance.
        copy.routing = self.routing
        copy.rebuild_scheduler = None
        copy._next_doc_id = self._next_doc_id
        copy._batches = self._batches
        copy._deleted = set(self._deleted)
        copy._holes = set(self._holes)
        copy._inflight = {}
        return copy

    def clone(self) -> "ShardedTextIndex":
        """An independent deep copy at the current batch boundary."""
        copy = self._empty_copy()
        copy.shards = [shard.clone() for shard in self.shards]
        return copy

    def publish_copy(
        self, prev, delta, blocks: int, counters
    ) -> tuple["ShardedTextIndex", list]:
        """``(copy, causes)``: the next published copy, and per shard why
        it fell back to a full clone (``None`` where it shared).

        Each shard goes through :func:`~repro.core.shard.publish_copy`
        against its counterpart in ``prev`` with its own journal, so one
        shard that cannot prove coverage (crash recovery, a structural
        rebuild) never forces its siblings to give up sharing.  A layout
        change (shard count, router seed, routing epoch: documents moved
        between shards) leaves no counterpart, and every shard falls
        back with "no predecessor".  ``blocks`` splits evenly across the
        shards; all their caches count into ``counters``, so hit rates
        stay global.
        """
        same_layout = (
            isinstance(prev, ShardedTextIndex)
            and len(prev.shards) == len(self.shards)
            and prev.router_seed == self.router_seed
            and prev.routing == self.routing
        )
        nshards = len(self.shards)
        prevs = prev.shards if same_layout else [None] * nshards
        journals = delta.journals if delta is not None else [None] * nshards
        per_shard = max(1, blocks // nshards) if blocks else 0
        copy = self._empty_copy()
        copy.shards = []
        causes = []
        for shard, prev_shard, journal in zip(self.shards, prevs, journals):
            volume, cause = publish_copy(
                shard, prev_shard, journal, per_shard, counters
            )
            copy.shards.append(volume)
            causes.append(cause)
        return copy, causes

    def freeze(self) -> None:
        for shard in self.shards:
            shard.freeze()

    def check(self) -> InvariantReport:
        """Run the invariant checker on every volume; merge the reports
        with shard-prefixed violation details."""
        report = InvariantReport()
        for i, shard in enumerate(self.shards):
            sub = shard.check()
            report.checks += sub.checks
            for violation in sub.violations:
                report.violations.append(
                    Violation(violation.code, f"shard {i}: {violation.detail}")
                )
        return report

    # -- retrieval (scatter-gather) ---------------------------------------

    def fetch_postings(self, word: str) -> tuple[list[int], int]:
        """One word's live doc ids merged across all shards, plus the
        summed read ops.  Identical to what a single volume holding the
        whole collection would return."""
        fetch, counter = scatter.scatter_fetch(
            [shard.fetch_postings for shard in self.shards]
        )
        return fetch(word), counter[0]

    def search_boolean(self, query: str) -> QueryAnswer:
        """Fetch-level scatter: merge each term's posting fragments and
        run the unchanged boolean evaluator over the *global* universe —
        which is what keeps ``NOT``'s complement correct (a per-shard
        complement would admit other shards' documents)."""
        fetch, counter = scatter.scatter_fetch(
            [shard.fetch_postings for shard in self.shards]
        )
        docs = boolean_query.evaluate(query, fetch, self.ndocs)
        # Per-shard fetches are deletion-filtered, but NOT's complement
        # still contains deleted ids (paper §3: filter every answer).
        # Filter with the *user* deletion set, not the per-shard union —
        # after a split the union also holds rebalance tombstones for
        # documents that moved shards but are globally alive.
        dead = self._deleted
        docs = [d for d in docs if d not in dead] if dead else list(docs)
        return QueryAnswer(doc_ids=docs, read_ops=counter[0])

    def search_streamed(self, query: str) -> QueryAnswer:
        """Answer-level scatter: flat AND/OR is decided by a document's
        own contents, so each shard streams its slice lazily (keeping the
        early-exit economy local) and the disjoint answers merge."""
        streaming_query.parse_flat(query)  # uniform rejection up front
        answers = [shard.search_streamed(query) for shard in self.shards]
        docs, read_ops = scatter.gather_answers(
            [(a.doc_ids, a.read_ops) for a in answers]
        )
        return QueryAnswer(doc_ids=docs, read_ops=read_ops)

    def search_vector(
        self, weights: dict[str, float], top_k: int = 10
    ) -> list[ScoredDocument]:
        ranked, _ = self.search_vector_counted(weights, top_k=top_k)
        return ranked

    def search_vector_counted(
        self, weights: dict[str, float], top_k: int = 10
    ) -> tuple[list[ScoredDocument], int]:
        """Fetch-level scatter under the unchanged ranker: idf uses the
        global ``ndocs``, so scores are bit-identical to one volume."""
        fetch, counter = scatter.scatter_fetch(
            [shard.fetch_postings for shard in self.shards]
        )
        ranked = vector_query.rank(
            weights, fetch, self.ndocs, top_k=top_k
        )
        return ranked, counter[0]


def build_text_index(
    config: IndexConfig | None = None,
    *,
    shards: int = 1,
    router_seed: int = 0,
):
    """Build a single-volume or sharded text index behind one signature.

    ``shards <= 1`` returns a plain :class:`TextDocumentIndex` — the
    exact pre-sharding code path, so defaults change nothing.
    """
    if shards <= 1:
        return TextDocumentIndex(config)
    return ShardedTextIndex(config, shards=shards, router_seed=router_seed)
