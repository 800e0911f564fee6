"""Scatter-gather query execution over document-partitioned shards.

A document-hash-sharded index (:mod:`repro.core.sharded`) partitions the
doc-id universe across N independent dual-structure volumes.  Because the
partition is by *document*, every term's posting list is split across
shards, and because each shard only ever indexes an increasing
subsequence of the global doc ids, each fragment is sorted by global doc
id and the fragments are pairwise disjoint.  That makes gathering exact
and cheap:

* **fetch-level scatter** (:func:`scatter_fetch`): fan one term's fetch
  to every shard and merge the sorted, disjoint fragments into the very
  posting list a single volume would have produced.  Boolean and vector
  evaluation then run *unchanged* on top of the merged fetch — which is
  what makes sharded answers byte-identical to the single-volume oracle
  (including ``NOT``'s complement over the global universe and idf over
  the global ``ndocs``).
* **answer-level scatter** (:func:`gather_answers`): flat streamed
  AND/OR queries are evaluated lazily *inside* each shard (keeping the
  early-exit economy local) and only the per-shard answers — again
  sorted and disjoint — are merged.

The in-process :class:`~repro.core.sharded.ShardedTextIndex` gathers
boolean and vector queries at the fetch level, where a merged list
costs a function call.  The multi-process gateway
(:mod:`repro.service.gateway`) is answer-level in *every* mode, at
every moment — a fetched list there crosses a process boundary — with
two additions to the plain merge: a complementing ``NOT`` is cut back to
each shard's routed slice, and vector replies carry per-term df with
candidates grouped by term bitmask
(:func:`repro.query.vector.shard_candidates`).  While an online split
has two shards holding the same documents, each worker counts only the
documents routed to it, so the fragments stay disjoint where df is
summed.

Read-op accounting is summed across shards: each shard charges the
paper's Figure-10 units (one read per chunk, one per bucket) against its
own volume, so the cost model stays meaningful per shard and the total
is the scatter cost of the query.
"""

from __future__ import annotations

import heapq
from typing import Callable, Sequence

#: A per-shard fetch primitive: ``word -> (sorted doc ids, read_ops)``.
ShardFetch = Callable[[str], tuple[list[int], int]]


def merge_disjoint(runs: Sequence[list[int]]) -> list[int]:
    """Merge sorted, pairwise-disjoint doc-id runs into one sorted list.

    The shape scatter-gather always produces: each shard owns a disjoint
    slice of the universe and returns its docs in ascending order.
    """
    live = [run for run in runs if run]
    if not live:
        return []
    if len(live) == 1:
        return list(live[0])
    return list(heapq.merge(*live))


def merge_unique(runs: Sequence[list[int]]) -> list[int]:
    """Merge sorted doc-id runs, dropping cross-run duplicates.

    On pairwise-disjoint runs this is exactly :func:`merge_disjoint` —
    the steady-state scatter shape — so using it costs nothing in the
    common case.  During a split's relocation window two shards briefly
    both hold a moving document (the new shard was spawned from the
    victim's checkpoint before the victim's tombstones flush); deduping
    here makes that overlap invisible to boolean evaluation and vector
    scoring, which is what keeps mid-rebalance answers byte-identical to
    the unsharded oracle.
    """
    live = [run for run in runs if run]
    if not live:
        return []
    if len(live) == 1:
        return list(live[0])
    merged: list[int] = []
    for doc in heapq.merge(*live):
        if not merged or merged[-1] != doc:
            merged.append(doc)
    return merged


def scatter_fetch(fetchers: Sequence[ShardFetch]):
    """A merged fetch over per-shard fetchers, with summed accounting.

    Returns ``(fetch, counter)``: ``fetch(word)`` fans the lookup to
    every shard and merges the fragments; ``counter[0]`` accumulates the
    read ops all shards charged.  The counter lives in the closure, not
    on any shared object, so the merged fetch is safe to use from
    concurrent reader threads.
    """
    counter = [0]

    def fetch(word: str) -> list[int]:
        runs = []
        for shard_fetch in fetchers:
            docs, read_ops = shard_fetch(word)
            counter[0] += read_ops
            if docs:
                runs.append(docs)
        return merge_disjoint(runs)

    return fetch, counter


def gather_answers(
    answers: Sequence[tuple[list[int], int]]
) -> tuple[list[int], int]:
    """Merge per-shard ``(doc_ids, read_ops)`` answers.

    For queries whose per-shard evaluation is globally correct (flat
    AND/OR conjunctions and disjunctions — a document satisfies them
    based on its own contents alone), the global answer is just the
    merge of the disjoint per-shard answers and the summed cost.
    """
    docs = merge_disjoint([a[0] for a in answers])
    read_ops = sum(a[1] for a in answers)
    return docs, read_ops
