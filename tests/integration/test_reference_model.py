"""Gold-model test: the dual-structure index must answer every query
exactly like a naive in-memory inverted index, under every policy.

This is the strongest correctness check in the suite: whatever the policy
does to the physical layout — splitting lists into extents, copying whole
chunks, updating blocks in place — the logical index contents must be
indistinguishable from a dictionary of sets.
"""

import random

import pytest

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Alloc, Limit, Policy, Style
from repro.query.boolean import evaluate

POLICIES = [
    Policy(style=Style.NEW, limit=Limit.ZERO),
    Policy(style=Style.NEW, limit=Limit.Z),
    Policy(style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=2.0),
    Policy(style=Style.NEW, limit=Limit.Z, alloc=Alloc.BLOCK, k=2),
    Policy(style=Style.NEW, limit=Limit.Z, alloc=Alloc.CONSTANT, k=50),
    Policy(style=Style.FILL, limit=Limit.ZERO, extent_blocks=2),
    Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
    Policy(style=Style.WHOLE, limit=Limit.ZERO),
    Policy(style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=1.2),
]


class ReferenceIndex:
    """The gold model: a dict of sorted posting lists."""

    def __init__(self):
        self.lists: dict[int, list[int]] = {}
        self.ndocs = 0

    def add_document(self, doc_id, words):
        for word in set(words):
            self.lists.setdefault(word, []).append(doc_id)
        self.ndocs += 1

    def fetch(self, word):
        return self.lists.get(word, [])


def build_both(policy, seed, nbatches=8, docs_per_batch=12, vocab=40):
    rng = random.Random(seed)
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=48,  # tiny buckets force frequent migrations
            block_postings=8,  # tiny blocks force multi-block chunks
            ndisks=2,
            nblocks_override=200_000,
            policy=policy,
        )
    )
    reference = ReferenceIndex()
    doc_id = 0
    for _ in range(nbatches):
        for _ in range(docs_per_batch):
            # Skewed word choice: low ids are hot, mirroring Zipf.
            words = [
                min(int(rng.paretovariate(0.7)), vocab)
                for _ in range(rng.randint(3, 12))
            ]
            index.add_document(words, doc_id=doc_id)
            reference.add_document(doc_id, words)
            doc_id += 1
        index.flush_batch()
    return index, reference


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_word_matches_reference(policy, seed):
    index, reference = build_both(policy, seed)
    words = set(reference.lists) | {9999}
    for word in words:
        postings, _ = index.fetch(word)
        assert postings.doc_ids == reference.fetch(word), (
            f"word {word} diverged under {policy.name}"
        )


@pytest.mark.parametrize("policy", POLICIES[:4], ids=lambda p: p.name)
def test_boolean_queries_match_reference(policy):
    index, reference = build_both(policy, seed=3)
    def fetch_index(w):
        return index.fetch(int(w))[0].doc_ids
    def fetch_ref(w):
        return reference.fetch(int(w))
    for query in ("1 AND 2", "1 OR 17", "(1 AND 2) OR 3", "1 AND NOT 2"):
        got = evaluate(query, fetch_index, index.ndocs)
        want = evaluate(query, fetch_ref, reference.ndocs)
        assert got == want, f"query {query!r} diverged under {policy.name}"


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.name)
def test_posting_counts_match_reference(policy):
    index, reference = build_both(policy, seed=7)
    for word, docs in reference.lists.items():
        assert index.posting_count(word) == len(docs)
