"""The shard state machine: flush → recover → publish → rebase, once.

A :class:`ShardRuntime` owns what happens to one writer volume between
two batch boundaries (DESIGN.md §10.1).  It has two hosts —
:class:`~repro.service.server.QueryService` drives it under its writer
lock, :class:`~repro.service.worker.ShardWorker` drives it inside its
process — and neither re-implements a step:

1. **watermark** — every ingested document advances the immediate
   tier's visibility watermark over the writer's own batch, and every
   deletion lands in its tombstones, when a tier is attached;
2. **flush** — apply the pending batch; an injected crash or transient
   I/O error on a ``crash_safe`` volume rolls back to the state the
   flush began from and replays (paper §1 restartability), within
   :data:`MAX_FLUSH_RETRIES`.  Past the budget the next flush starts
   with that rollback, and writes are refused until it has run (and, on
   the immediate tier, published): a rollback would drop them, or the
   tier not show them;
3. **clone** — copy the writer at its new boundary, one volume at a
   time through :func:`~repro.core.shard.publish_copy`: incrementally
   against the previous publication, falling back to the full checkpoint
   clone when the volume's journal cannot prove coverage
   (:class:`~repro.core.checkpoint.CheckpointError`), with the buffer
   cache carried only by a volume that shared structure (minus the
   batch's dirty blocks); a fault during either clone is retried in
   place — the flush already completed, so cloning is safely
   repeatable;
4. **check + freeze** (``check_invariants``);
5. **install** — the host's hook: whatever must see the new state, or
   the batch's journal before it is cleared (the service's result-cache
   clear and pointer swap; a worker's since-checkpoint journal);
6. **clear** the journal, then **rebase** the memory tier onto the
   object readers now see, then count.

Every step that counts into :class:`RuntimeStats` also emits the
:mod:`repro.obs` event that says why: ``flush``, ``flush.recovery``,
``publish`` (cow or fallback, with each volume's cause),
``publish.retry``, and ``writes.refused`` / ``writes.resumed`` around an
exhausted budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.index import BatchResult
from ..core.memtier import MemTier
from ..core.shard import publish_copy
from ..core.sharded import ShardedTextIndex
from ..obs import event
from ..pipeline.profiling import HitMissCounters
from ..storage.faults import InjectedCrash, TransientIOError

_FAULTS = (InjectedCrash, TransientIOError)

#: Faults one flush (and, separately, one publish clone) may absorb
#: before the runtime gives up.  Read at call time, so a test reaches the
#: exhausted budget by monkeypatching it to 0.
MAX_FLUSH_RETRIES = 8


@dataclass
class RuntimeStats:
    """The counters :class:`ShardRuntime` increments, on whichever
    subclass its host hands it (``ServiceStats`` / ``WorkerStats``)."""

    publishes: int = 0
    #: Publishes in which no volume fell back to a full clone; the rest
    #: are ``full_clone_publishes``.
    cow_publishes: int = 0
    full_clone_publishes: int = 0
    #: Volumes that fell back (a sharded writer's layout change counts
    #: every one).
    cow_fallbacks: int = 0
    flush_recoveries: int = 0
    publish_retries: int = 0
    invariant_checks: int = 0


class ShardRuntime:
    """One writer volume, its published clone, and the steps between.

    ``stats`` is the host's :class:`RuntimeStats`.  ``tags`` are fields
    every event of this runtime carries (a worker names its shard).
    ``on_crash`` is called at every :class:`InjectedCrash` before any
    recovery (the worker's ``kill_on_crash`` dies there).  ``error`` is
    the exception type an exhausted retry budget is reported as;
    ``None`` lets the last fault propagate as itself (and refuses a
    write with ``RuntimeError``).

    Construction publishes the writer's initial (empty or restored)
    state, uncounted.  A host serving the immediate tier then assigns
    :attr:`memtier`, based on whatever it shows its readers.
    """

    def __init__(
        self,
        writer,
        stats,
        *,
        check_invariants: bool,
        buffer_cache_blocks: int,
        on_crash=None,
        error: type | None = None,
    ) -> None:
        self.writer = writer
        self.stats = stats
        self.check_invariants = check_invariants
        self.buffer_cache_blocks = buffer_cache_blocks
        self.buffer_counters = (
            HitMissCounters() if buffer_cache_blocks else None
        )
        self.on_crash = on_crash
        self.error = error
        self.tags: dict = {}
        #: The fault that exhausted a budget, while writes are refused.
        self._wedged: str | None = None
        self.memtier: MemTier | None = None
        #: The writer's clone at the last published boundary.
        self.published = None
        self.published, _, delta = self._build()
        if delta is not None:
            delta.clear()

    # -- watermark --------------------------------------------------------

    def _refusing(self) -> bool:
        return self.writer.needs_recovery or (
            self.memtier is not None
            and self.writer.batches != self.published.batches
        )

    def _writable(self) -> None:
        if self._refusing():
            raise (self.error or RuntimeError)(
                "a failed flush must be retried before the next write"
            )

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        self._writable()
        doc_id = self.writer.add_document(text, doc_id=doc_id)
        if self.memtier is not None:
            # The writer's batch holds the whole document now: it serves
            # immediate reads the moment this returns.
            self.memtier.advance(doc_id)
        return doc_id

    def delete_document(self, doc_id: int) -> None:
        self._writable()
        self.writer.delete_document(doc_id)
        if self.memtier is not None:
            self.memtier.delete_document(doc_id)

    # -- flush ------------------------------------------------------------

    def _retry(self, what: str, attempts: int, exc, retryable=True) -> int:
        """Account one caught fault: the attempt count to carry on with,
        or the raise that ends the loop."""
        if self.on_crash is not None and isinstance(exc, InjectedCrash):
            self.on_crash()
        if not retryable:
            raise exc
        attempts += 1
        if attempts > MAX_FLUSH_RETRIES:
            if self._refusing():
                self._wedged = fault = repr(exc)
                event("writes.refused", **self.tags, step=what, fault=fault)
            if self.error is None:
                raise exc
            raise self.error(
                f"{what} failed {attempts} times; last: {exc!r}"
            ) from exc
        return attempts

    def flush(self) -> BatchResult:
        """Apply the pending batch, rolling back and replaying through
        the volume's undo log on injected faults."""
        attempts = 0
        # Why the next attempt must recover first (None: it need not).
        fault = None
        if self.writer.needs_recovery:
            fault = self._wedged or "an earlier flush"
        while True:
            try:
                if fault is None:
                    result = self.writer.flush_batch()
                else:
                    # Roll back to the last completed batch boundary and
                    # replay the aborted batch.  If the replay dies too,
                    # the next attempt recovers again — never re-flushes
                    # on top of partial state.
                    self.stats.flush_recoveries += 1
                    event("flush.recovery", **self.tags, fault=fault)
                    result = self.writer.recover(replay=True)
                    if result is None:
                        fault = None
                        continue
            except _FAULTS as exc:
                attempts = self._retry(
                    "flush", attempts, exc, self.writer.crash_safe
                )
                fault = repr(exc)
                continue
            event(
                "flush",
                **self.tags,
                batch=self.writer.batches,
                postings=result.npostings,
                io_ops=result.io_ops,
            )
            return result

    # -- publish ----------------------------------------------------------

    def _copy(self, delta):
        """``(copy, causes)`` of the writer at its boundary: per volume,
        why it fell back to a full clone (``None`` where it shared)."""
        attempts = 0
        while True:
            try:
                if isinstance(self.writer, ShardedTextIndex):
                    return self.writer.publish_copy(
                        self.published,
                        delta,
                        self.buffer_cache_blocks,
                        self.buffer_counters,
                    )
                copy, cause = publish_copy(
                    self.writer,
                    self.published,
                    delta,
                    self.buffer_cache_blocks,
                    self.buffer_counters,
                )
                return copy, [cause]
            except _FAULTS as exc:
                # Nothing was published yet and the writer sits at a
                # consistent boundary: clone again.
                attempts = self._retry("publish", attempts, exc)
                self.stats.publish_retries += 1
                event("publish.retry", **self.tags, fault=repr(exc))

    def _build(self):
        """Steps 3–4: ``(clone, causes, delta)``, cached, checked and
        frozen, not yet visible to anyone."""
        delta = self.writer.delta
        index, causes = self._copy(delta)
        if self.check_invariants:
            report = index.check()
            self.stats.invariant_checks += 1
            report.raise_if_failed()
            # Debug-mode write barrier: published (and possibly shared)
            # structure must never be mutated again.
            index.freeze()
        return index, causes, delta

    def publish(self, install=None) -> None:
        """Publish the writer's boundary state.

        ``install(index, delta)`` runs while the batch's journal is still
        intact and returns the object the host's readers see from then
        on (default: the clone itself).
        """
        index, causes, delta = self._build()
        base = index if install is None else install(index, delta)
        if delta is not None:
            delta.clear()
        self.published = index
        if self.memtier is not None:
            # Until here the tier read the retired batch on the old base;
            # old views stay content-equivalent (old base + retired batch
            # == new base + the writer's new, empty batch).
            self.memtier.rebase(base)
        fallbacks = len(causes) - causes.count(None)
        self.stats.publishes += 1
        self.stats.cow_fallbacks += fallbacks
        if fallbacks:
            self.stats.full_clone_publishes += 1
        else:
            self.stats.cow_publishes += 1
        event(
            "publish",
            **self.tags,
            batch=index.batches,
            mode="fallback" if fallbacks else "cow",
            causes=causes,
        )
        if self._wedged is not None:
            self._wedged = None
            event("writes.resumed", **self.tags, batch=index.batches)
