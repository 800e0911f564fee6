"""Immutable query snapshots of the dual-structure index.

The paper's concurrency story (§1: queries keep running while daily
NetNews batches are absorbed) is realized here as *snapshot isolation*:
the writer clones the index at a batch boundary and publishes the clone.
Readers therefore evaluate against a structure the writer never touches
again — no reader can see a half-flushed bucket or a partially relocated
long list, because the clone was taken from a consistent batch-boundary
state.

The snapshot holds any :class:`~repro.core.shard.IndexShard` — a single
:class:`~repro.textindex.TextDocumentIndex` volume or a
:class:`~repro.core.sharded.ShardedTextIndex` vector of them.  For a
sharded writer the publish clones *every* shard first and swaps the
completed vector in as one reference assignment, so readers always see a
mutually consistent set of shard states (identified by
:attr:`shard_versions`, the per-shard batch counters).

A snapshot is shared by many reader threads at once, so its query methods
keep *all* accounting local to the call — the shard protocol's
``search_*`` methods guarantee per-call read-op counters.  (The
underlying simulated disks do mutate benign bookkeeping — head positions,
I/O counters — under concurrent reads; none of that affects answers,
which derive only from the immutable block payloads.)

``shard_versions`` is also the contract the *replicated* gateway
enforces remotely: :mod:`repro.service.gateway` stamps every replica
answer with the same vector entry and discards responses trailing the
published boundary,
so a replica lagging one publish epoch can never serve a reader a state
this class would not have published (:mod:`repro.service.replication`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from ..query.vector import ScoredDocument
from ..textindex import QueryAnswer

if TYPE_CHECKING:
    from ..core.shard import IndexShard


class IndexSnapshot:
    """One published, immutable-by-convention state of the index.

    ``snapshot_id`` increases by one per publication and names this one
    immutable snapshot within its service — the stamp the result cache
    keys on, and the id a stress driver files its own oracle's frozen
    copy under.  ``batch`` is the number of batch updates the snapshot
    has absorbed and ``shard_versions`` the per-shard batch counters (a
    one-element vector for a single volume).
    """

    def __init__(self, index: "IndexShard", snapshot_id: int) -> None:
        self.index = index
        self.snapshot_id = snapshot_id
        self.batch = index.batches
        self.shard_versions = index.shard_versions
        self.ndocs = index.ndocs

    # -- retrieval (thread-safe: no shared accounting) --------------------

    def fetch_postings(self, word: str) -> tuple[list[int], int]:
        """One word's live doc ids plus read ops (the two-tier base
        fetch primitive — :mod:`repro.query.twotier` merges buffered
        postings on top of exactly this)."""
        return self.index.fetch_postings(word)

    def search_boolean(self, query: str) -> QueryAnswer:
        """Evaluate a boolean query against this snapshot."""
        return self.index.search_boolean(query)

    def search_streamed(self, query: str) -> QueryAnswer:
        """Evaluate a flat AND/OR query lazily against this snapshot."""
        return self.index.search_streamed(query)

    def search_vector(
        self, weights: Mapping[str, float], top_k: int = 10
    ) -> list[ScoredDocument]:
        """Rank documents for a weighted vector query."""
        return self.index.search_vector(weights, top_k=top_k)

    def search_vector_counted(
        self, weights: Mapping[str, float], top_k: int = 10
    ) -> tuple[list[ScoredDocument], int]:
        """:meth:`search_vector` plus the read ops it charged."""
        return self.index.search_vector_counted(weights, top_k=top_k)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexSnapshot(id={self.snapshot_id}, batch={self.batch}, "
            f"shards={self.shard_versions}, ndocs={self.ndocs})"
        )
