"""The ``IndexShard`` protocol: what serving needs from an index volume.

The service and query layers used to import the concrete
:class:`~repro.textindex.TextDocumentIndex` and reach into its internals
(``index.index.fetch``, ``index.vocabulary``, ``index.deletions``).  That
hard-wired the single-volume assumption into every layer above the core.
This module names the actual contract — ingest, flush, snapshot cloning,
recovery, self-checking, and thread-safe query evaluation — so that one
volume (:class:`~repro.textindex.TextDocumentIndex`) and a
document-partitioned collection of volumes
(:class:`~repro.core.sharded.ShardedTextIndex`) are interchangeable
behind it.

Thread-safety contract: the ``search_*`` methods must keep all read-op
accounting local to the call (no shared counters), because published
clones are queried from many reader threads at once.

The module also owns the document router: a *stable* doc-id hash (no
dependence on ``PYTHONHASHSEED`` or process identity) so that clones,
recovered writers, and worker processes all agree on which shard owns a
document.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..query.vector import ScoredDocument
    from ..textindex import QueryAnswer
    from .index import BatchResult
    from .invariants import InvariantReport


_MASK64 = (1 << 64) - 1


def shard_of(doc_id: int, nshards: int, seed: int = 0) -> int:
    """The shard owning ``doc_id`` under a stable splitmix64-style mix.

    Deterministic across processes and Python versions — the router is
    part of the on-disk contract (a clone must route deletions to the
    same shard that indexed the document).  With ``nshards == 1`` every
    document routes to shard 0 (the single-volume degenerate case).
    """
    if nshards <= 1:
        return 0
    z = (doc_id + 0x9E3779B97F4A7C15 * (seed + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % nshards


@runtime_checkable
class IndexShard(Protocol):
    """One independently updatable, clonable, recoverable index volume.

    Implemented by :class:`~repro.textindex.TextDocumentIndex` (a single
    dual-structure volume) and by
    :class:`~repro.core.sharded.ShardedTextIndex` (a document-partitioned
    vector of such volumes).  The serving layer
    (:mod:`repro.service`) is written against this protocol only.
    """

    # -- identity ---------------------------------------------------------

    @property
    def ndocs(self) -> int:
        """Documents indexed so far (the global doc-id universe size)."""

    @property
    def batches(self) -> int:
        """Completed batch flushes."""

    @property
    def shard_versions(self) -> tuple[int, ...]:
        """Per-shard batch counters — the shard-snapshot vector.

        A published snapshot is identified by this vector; the result
        cache keys its entries on it.  A single volume reports a
        one-element vector.
        """

    @property
    def crash_safe(self) -> bool:
        """Whether aborted flushes can be rolled back and replayed."""

    @property
    def needs_recovery(self) -> bool:
        """True while an aborted flush awaits :meth:`recover`."""

    @property
    def delta(self):
        """The delta journal(s) covering mutations since the last
        publish, or ``None`` when journaling is off.  For a sharded
        index this is an aggregate view over per-shard journals."""

    # -- ingest -----------------------------------------------------------

    def add_document(self, text: str, doc_id: int | None = None) -> int:
        """Tokenize and index one document; returns its doc id."""

    def delete_document(self, doc_id: int) -> None:
        """Hide a document from answers immediately (paper §3)."""

    def flush_batch(self) -> "BatchResult":
        """Apply the pending in-memory batch as one incremental update."""

    def recover(self, replay: bool = True) -> "BatchResult | None":
        """Roll back an aborted flush to the last batch boundary and —
        when ``replay`` — re-apply and re-flush the aborted batch."""

    def pending_batch(self) -> tuple:
        """The unflushed batch as ``(vocabulary, word id -> payload)``
        per volume, retired whole (never emptied) by the next flush."""

    # -- publication ------------------------------------------------------

    def clone(self) -> "IndexShard":
        """An independent deep copy at the current batch boundary."""

    def clone_incremental(self, prev: "IndexShard", delta) -> "IndexShard":
        """A copy structurally sharing everything ``delta`` left
        untouched with ``prev`` (raises
        :class:`~repro.core.checkpoint.CheckpointError` when coverage
        cannot be proven; sharded implementations may fall back
        per-shard instead of raising)."""

    def dirty_terms(self) -> frozenset:
        """Lowercased vocabulary terms touched since the last publish
        (drives delta-scoped result-cache invalidation)."""

    def freeze(self) -> None:
        """Debug write barrier: mark every underlying structure
        immutable so copy-on-write sharing violations fail loudly."""

    def check(self) -> "InvariantReport":
        """Run the dual-structure invariant checker over every volume."""

    def attach_buffer_cache(
        self, blocks: int, counters, prev=None, delta=None
    ) -> None:
        """Wire a decoded-chunk buffer cache into this (published) index,
        carrying ``prev``'s cache forward minus ``delta``'s dirty blocks
        when both are given."""

    # -- retrieval (thread-safe: per-call accounting) ---------------------

    def search_boolean(self, query: str) -> "QueryAnswer": ...

    def search_streamed(self, query: str) -> "QueryAnswer": ...

    def search_vector(
        self, weights: Mapping[str, float], top_k: int = 10
    ) -> "list[ScoredDocument]": ...

    def search_vector_counted(
        self, weights: Mapping[str, float], top_k: int = 10
    ) -> "tuple[list[ScoredDocument], int]": ...
