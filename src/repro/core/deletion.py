"""Incremental document deletion (paper §3, penultimate paragraph).

The paper describes — without evaluating — the practical design for
deletions in an append-only inverted index:

  "existing implementations typically maintain a list of deleted document
  identifiers and filter any answer to a query through this list.  This
  deletes the document from the point of view of the user ...  To reclaim
  the space taken by the deleted document identifiers in the index, a
  background process sweeps the lists in the index one list at a time,
  removing any deleted documents.  After a sweep of the index, the list of
  deleted document identifiers can be thrown away."

:class:`DeletionManager` implements exactly that:

* :meth:`delete` adds a document to the filter set — O(1), no I/O;
* :meth:`filter` drops deleted documents from query answers;
* :meth:`begin_sweep` snapshots the filter set and enumerates every list
  (bucket short lists and directory long lists);
* :meth:`sweep_step` rewrites a bounded number of lists per call — the
  "one list at a time" background process, safe to interleave with batch
  updates and queries;
* when the sweep finishes, the snapshot is discarded from the filter set;
  documents deleted *during* the sweep remain filtered (they will be
  reclaimed by the next sweep).

Sweeping a long list physically rewrites it through the index's own
allocation policy (the old chunks retire to the RELEASE list), so space
reclamation pays the same I/O the paper's machinery charges everywhere
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .index import DualStructureIndex


@dataclass
class SweepStats:
    """Progress counters for the current or last completed sweep."""

    lists_swept: int = 0
    postings_removed: int = 0
    lists_remaining: int = 0
    complete: bool = False


class DeletionManager:
    """Filter-and-sweep deletion on top of a dual-structure index."""

    def __init__(self, index: DualStructureIndex) -> None:
        self.index = index
        self.deleted: set[int] = set()
        self._sweep_snapshot: set[int] | None = None
        self._sweep_queue: list[int] = []
        self.stats = SweepStats(complete=True)

    # -- the filter --------------------------------------------------------

    def delete(self, doc_id: int) -> None:
        """Mark a document deleted (takes effect immediately for queries)."""
        if not 0 <= doc_id < self.index.ndocs:
            raise ValueError(
                f"doc id {doc_id} outside [0, {self.index.ndocs})"
            )
        self._check_unfrozen("delete a document through")
        if self.index.delta is not None:
            self.index.delta.note_deletions()
        self.deleted.add(doc_id)

    def filter(self, doc_ids: Sequence[int]) -> list[int]:
        """Drop deleted documents from a query answer (paper: "filter any
        answer to a query through this list")."""
        if not self.deleted:
            return list(doc_ids)
        return [d for d in doc_ids if d not in self.deleted]

    @property
    def ndeleted(self) -> int:
        return len(self.deleted)

    # -- the background sweep -----------------------------------------------

    @property
    def sweeping(self) -> bool:
        return self._sweep_snapshot is not None

    def begin_sweep(self) -> int:
        """Snapshot the filter set and queue every list for rewriting.

        Returns the number of lists queued.  A sweep already in progress
        must finish first (one background sweeper, as in the paper).
        """
        if self.sweeping:
            raise RuntimeError("a sweep is already in progress")
        self._check_unfrozen("sweep")
        self._sweep_snapshot = set(self.deleted)
        # Long lists first (they hold the bulk of reclaimable postings),
        # then bucket words.
        self._sweep_queue = list(self.index.directory.words())
        self._sweep_queue.extend(self.index.buckets.words())
        self.stats = SweepStats(lists_remaining=len(self._sweep_queue))
        return len(self._sweep_queue)

    def sweep_step(self, max_lists: int = 1) -> SweepStats:
        """Rewrite up to ``max_lists`` lists, removing snapshot documents.

        Returns the running statistics; when the queue drains, the
        snapshot ids are dropped from the filter set and the sweep ends.
        """
        if not self.sweeping:
            raise RuntimeError("no sweep in progress; call begin_sweep()")
        if max_lists <= 0:
            raise ValueError("max_lists must be > 0")
        snapshot = self._sweep_snapshot
        assert snapshot is not None
        for _ in range(max_lists):
            if not self._sweep_queue:
                break
            word = self._sweep_queue.pop(0)
            self.stats.postings_removed += self._sweep_list(word, snapshot)
            self.stats.lists_swept += 1
        self.stats.lists_remaining = len(self._sweep_queue)
        if not self._sweep_queue:
            # "After a sweep of the index, the list of deleted document
            # identifiers can be thrown away."
            if snapshot and self.index.delta is not None:
                self.index.delta.note_deletions()
            self.deleted -= snapshot
            self._sweep_snapshot = None
            self.stats.complete = True
        return self.stats

    def sweep_all(self) -> SweepStats:
        """Run a full sweep to completion (foreground convenience)."""
        if not self.sweeping:
            self.begin_sweep()
        while self.sweeping:
            self.sweep_step(max_lists=64)
        return self.stats

    def _check_unfrozen(self, action: str) -> None:
        # The deleted set may be structurally shared between published
        # snapshots; the index-level frozen flag covers it.
        if getattr(self.index, "frozen", False):
            from .delta import FrozenStateError

            raise FrozenStateError(
                f"attempt to {action} a frozen (published) snapshot"
            )

    # -- internals -------------------------------------------------------------

    def _sweep_list(self, word: int, snapshot: set[int]) -> int:
        """Rewrite one list without the snapshot's documents; returns the
        number of postings removed."""
        entry = self.index.directory.get(word)
        if entry is not None:
            postings = self.index.longlists.read_postings(word)
            kept = postings.without_docs(snapshot)
            removed = len(postings) - len(kept)
            if removed:
                self.index.longlists.rewrite(word, kept)
            return removed
        # Not long, so still short: only this step removes a queued
        # word's short list, and a migration puts it in the directory.
        short = self.index.buckets.get(word)
        kept = short.without_docs(snapshot)
        removed = len(short) - len(kept)
        if removed:
            bucket_id = self.index.buckets.bucket_of(word)
            bucket = self.index.buckets.buckets[bucket_id]
            # This mutates the Bucket directly (no overflow is possible
            # when shrinking a list), bypassing the manager's journal
            # hook — record the dirty bucket and word explicitly.  The
            # noted word owns the fresh copy of ``kept`` that insert makes.
            if self.index.delta is not None:
                self.index.delta.note_bucket(bucket_id)
                self.index.delta.note_word(word)
            bucket.remove(word)
            if len(kept):
                bucket.insert(word, kept)
        return removed
