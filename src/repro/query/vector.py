"""Vector-space information-retrieval model (paper §1, §5.2.1).

"In a vector model system, the query specifies weights for the words, and
the system must locate documents that maximize the weighted sum of
occurring words.  Vector model systems typically use inverted lists to prune
the set of candidate documents before the vector condition is evaluated."

Our postings are presence-only (one posting per word-document pair, as in
an abstracts index), so a document's score is the sum over query words it
contains of ``weight(word) × idf(word)``.  The characteristic the paper's
evaluation leans on is workload shape, not scoring subtleties: vector
queries are *long* (often derived from a whole document) and dominated by
*frequent* words — exactly the words that have long lists — which is why
Figure 10's "average reads per long list" is the vector-IRM cost proxy.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import repeat
from operator import neg
from typing import Callable, Mapping, Sequence


@dataclass(frozen=True)
class ScoredDocument:
    """One ranked result."""

    doc_id: int
    score: float


def idf(ndocs: int, doc_frequency: int) -> float:
    """Inverse document frequency, smoothed to stay positive.

    ``log(1 + N / df)``; 0.0 for words that appear nowhere.
    """
    if doc_frequency <= 0 or ndocs <= 0:
        return 0.0
    return math.log(1.0 + ndocs / doc_frequency)


def rank(
    weights: Mapping[str, float],
    fetch: Callable[[str], Sequence[int]],
    ndocs: int,
    top_k: int = 10,
) -> list[ScoredDocument]:
    """Rank documents for a weighted word query.

    ``fetch`` returns a word's sorted posting list (empty when unknown).
    Scores accumulate per document across the query's posting lists — the
    "prune with inverted lists, then evaluate the vector condition" pattern
    the paper describes.
    """
    if top_k <= 0:
        raise ValueError("top_k must be > 0")
    scores: dict[int, float] = {}
    # Sorted iteration pins the float accumulation order: two queries
    # naming the same (word, weight) set in different orders must score
    # bit-identically, or answer caches keyed on the canonicalized set
    # would serve results that differ in the last ulp from a fresh
    # evaluation.
    for word, weight in sorted(weights.items()):
        if weight == 0.0:
            continue
        postings = fetch(word)
        contribution = weight * idf(ndocs, len(postings))
        if contribution == 0.0:
            continue
        for doc in postings:
            scores[doc] = scores.get(doc, 0.0) + contribution
    # Highest score first, ties to the lower id: tuples compare in C.
    best = heapq.nsmallest(top_k, zip(map(neg, scores.values()), scores))
    return [ScoredDocument(doc_id=d, score=scores[d]) for _, d in best]


def query_terms(weights: Mapping[str, float]) -> list[str]:
    """The words :func:`rank` fetches, in the order it fetches them."""
    return sorted(word for word, weight in weights.items() if weight != 0.0)


def shard_candidates(
    terms: Sequence[str],
    fetch: Callable[[str], Sequence[int]],
    top_k: int,
) -> tuple[list[int], list[tuple[int, list[int]]]]:
    """One shard's half of a ranking: ``(df per term, candidates)``.

    Postings are presence-only, so a document's score depends only on
    *which* terms it contains.  Candidates are therefore grouped by term
    bitmask (bit ``i`` = contains ``terms[i]``), and since equal scores
    rank by smaller doc id only the ``top_k`` smallest ids of a group can
    ever place.  Scoring waits for :func:`rank_candidates`: idf needs
    every shard's document frequencies.
    """
    dfs = []
    masks: dict[int, int] = {}
    mask_of = masks.get
    for bit, word in enumerate(terms):
        postings = fetch(word)
        dfs.append(len(postings))
        flag = 1 << bit
        for doc in postings:
            masks[doc] = mask_of(doc, 0) | flag
    groups: dict[int, list[int]] = {}
    for doc, mask in masks.items():
        groups.setdefault(mask, []).append(doc)
    return dfs, [
        (mask, heapq.nsmallest(top_k, docs)) for mask, docs in groups.items()
    ]


def rank_candidates(
    weights: Mapping[str, float],
    terms: Sequence[str],
    shards: Sequence[tuple],
    ndocs: int,
    top_k: int = 10,
) -> list[ScoredDocument]:
    """:func:`rank` over per-shard :func:`shard_candidates` replies.

    Shards partition the documents, so a term's document frequency is
    the sum of the shards'.  A group's score adds its terms'
    contributions from 0.0 in ``terms`` order, skipping zero ones — the
    additions :func:`rank` performs, in its order — so scores are
    bit-identical to ranking the merged posting lists.
    """
    if top_k <= 0:
        raise ValueError("top_k must be > 0")
    contributions = [
        weights[word] * idf(ndocs, sum(dfs[bit] for dfs, _ in shards))
        for bit, word in enumerate(terms)
    ]
    scores: dict[int, float | None] = {}
    scored = []
    for _, groups in shards:
        for mask, docs in groups:
            if mask not in scores:
                score, listed = 0.0, False
                for bit, contribution in enumerate(contributions):
                    if mask >> bit & 1 and contribution != 0.0:
                        score += contribution
                        listed = True
                # rank() never lists a document no contribution reached.
                scores[mask] = score if listed else None
            score = scores[mask]
            if score is not None:
                scored.extend(zip(repeat(-score), docs))
    best = heapq.nsmallest(top_k, scored)
    return [ScoredDocument(doc_id=d, score=-s) for s, d in best]


def query_from_document(words: Sequence[str]) -> dict[str, float]:
    """Build a vector query from a document's words (weight = in-document
    term frequency) — the paper's "a query may be derived from a document"
    workload, which is what makes vector queries long and frequent-word
    heavy."""
    weights: dict[str, float] = {}
    for word in words:
        weights[word] = weights.get(word, 0.0) + 1.0
    return weights
