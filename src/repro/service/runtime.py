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
3. **clone** — copy the writer at its new boundary: incrementally
   against the previous publication under ``publish_mode="cow"``,
   falling back to the full checkpoint clone when the journal cannot
   prove coverage (:class:`CheckpointError`); a fault during either
   clone is retried in place — the flush already completed, so cloning
   is safely repeatable;
4. **check + freeze** (``check_invariants``) and the buffer-cache carry
   (a cow publish keeps the previous cache minus the batch's dirty
   blocks; a full clone starts cold);
5. **install** — the host's hook: whatever must see the new state and
   the batch's journal together (result-cache update, pointer swap);
6. **clear** the journal, then **rebase** the memory tier onto the
   object readers now see, then count.
"""

from __future__ import annotations

from ..core.checkpoint import CheckpointError
from ..core.index import BatchResult
from ..core.memtier import MemTier
from ..pipeline.profiling import HitMissCounters
from ..storage.faults import InjectedCrash, TransientIOError

_FAULTS = (InjectedCrash, TransientIOError)

#: Faults one flush (and, separately, one publish clone) may absorb
#: before the runtime gives up.  Read at call time, so a test reaches the
#: exhausted budget by monkeypatching it to 0.
MAX_FLUSH_RETRIES = 8


class ShardRuntime:
    """One writer volume, its published clone, and the steps between.

    ``stats`` is the host's own counter object (``ServiceStats`` /
    ``WorkerStats``): the runtime increments ``publishes``,
    ``cow_publishes``, ``full_clone_publishes``, ``cow_fallbacks``,
    ``flush_recoveries``, ``publish_retries`` and ``invariant_checks`` on
    it.  ``on_crash`` is called at every :class:`InjectedCrash` before
    any recovery (the worker's ``kill_on_crash`` dies there).  ``error``
    is the exception type an exhausted retry budget is reported as;
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
        publish_mode: str,
        check_invariants: bool,
        buffer_cache_blocks: int,
        on_crash=None,
        error: type | None = None,
    ) -> None:
        if publish_mode not in ("clone", "cow"):
            raise ValueError("publish_mode must be 'clone' or 'cow'")
        self.writer = writer
        self.stats = stats
        self.publish_mode = publish_mode
        self.check_invariants = check_invariants
        self.buffer_cache_blocks = buffer_cache_blocks
        self.buffer_counters = (
            HitMissCounters() if buffer_cache_blocks else None
        )
        self.on_crash = on_crash
        self.error = error
        self.memtier: MemTier | None = None
        #: The writer's clone at the last published boundary.
        self.published = None
        self.published, _, delta = self._build()
        if delta is not None:
            delta.clear()

    # -- watermark --------------------------------------------------------

    def _writable(self) -> None:
        if self.writer.needs_recovery or (
            self.memtier is not None
            and self.writer.batches != self.published.batches
        ):
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
        recovering = self.writer.needs_recovery
        while True:
            try:
                if recovering:
                    # Roll back to the last completed batch boundary and
                    # replay the aborted batch.  If the replay dies too,
                    # the next attempt recovers again — never re-flushes
                    # on top of partial state.
                    self.stats.flush_recoveries += 1
                    replayed = self.writer.recover(replay=True)
                    if replayed is not None:
                        return replayed
                    recovering = False
                    continue
                return self.writer.flush_batch()
            except _FAULTS as exc:
                attempts = self._retry(
                    "flush", attempts, exc, self.writer.crash_safe
                )
                recovering = True

    # -- publish ----------------------------------------------------------

    def _clone(self, delta):
        """``(clone, cow)`` of the writer at its boundary."""
        cow = (
            self.publish_mode == "cow"
            and delta is not None
            and self.published is not None
        )
        attempts = 0
        while True:
            try:
                if cow:
                    try:
                        return (
                            self.writer.clone_incremental(
                                self.published, delta
                            ),
                            True,
                        )
                    except CheckpointError:
                        # The journal cannot prove coverage (crash
                        # recovery, bucket growth, config drift): fall
                        # back to the oracle.
                        self.stats.cow_fallbacks += 1
                        cow = False
                return self.writer.clone(), False
            except _FAULTS as exc:
                # Nothing was published yet and the writer sits at a
                # consistent boundary: clone again.
                attempts = self._retry("publish", attempts, exc)
                self.stats.publish_retries += 1

    def _build(self):
        """Steps 3–4: ``(clone, cow, delta)``, checked, frozen and
        cached, not yet visible to anyone."""
        delta = self.writer.delta
        index, cow = self._clone(delta)
        if self.check_invariants:
            report = index.check()
            self.stats.invariant_checks += 1
            report.raise_if_failed()
            # Debug-mode write barrier: published (and possibly shared)
            # structure must never be mutated again.
            index.freeze()
        if self.buffer_cache_blocks:
            index.attach_buffer_cache(
                self.buffer_cache_blocks,
                self.buffer_counters,
                prev=self.published if cow else None,
                delta=delta if cow else None,
            )
        return index, cow, delta

    def publish(self, install=None) -> bool:
        """Publish the writer's boundary state; True when it shares
        structure with its predecessor (cow).

        ``install(index, cow, delta)`` runs while the batch's journal is
        still intact and returns the object the host's readers see from
        then on (default: the clone itself).
        """
        index, cow, delta = self._build()
        base = index if install is None else install(index, cow, delta)
        if delta is not None:
            delta.clear()
        self.published = index
        if self.memtier is not None:
            # Until here the tier read the retired batch on the old base;
            # old views stay content-equivalent (old base + retired batch
            # == new base + the writer's new, empty batch).
            self.memtier.rebase(base)
        self.stats.publishes += 1
        if cow:
            self.stats.cow_publishes += 1
        else:
            self.stats.full_clone_publishes += 1
        return cow
