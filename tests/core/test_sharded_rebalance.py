"""In-process split differential: a ShardedTextIndex that rebalances
mid-stream answers identically to the brute-force oracle.

A split relocates documents (clone + tombstones), so the risk surface
is answer corruption: a mover answered twice, a stayer lost, a
complement computed over the wrong universe.  The battery interleaves
splits with adds and deletes and re-checks full query parity after
every step.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.rebalance import RebalancePlanner, RebalancePolicy
from repro.core.sharded import ShardedTextIndex
from repro.query.reference import BruteForceIndex


def small_config() -> IndexConfig:
    return IndexConfig(
        nbuckets=8,
        bucket_size=32,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
    )


def _word(n: int) -> str:
    return f"w{chr(ord('a') + n - 1)}"


QUERIES = [
    "wa AND wb",
    "wb OR wc",
    "(wa AND wb) OR wd",
    "wa AND NOT wb",
    "NOT wa",
    "wz AND wa",
]
STREAMED = ["wa AND wb", "wc OR wd", "wa AND wb AND wc"]
VECTORS = [
    {"wa": 2.0, "wb": 1.0},
    {"wc": 1.0, "wd": 3.0, "wa": 1.0},
]


def _check(index: ShardedTextIndex, oracle: BruteForceIndex) -> None:
    for query in QUERIES:
        assert (
            index.search_boolean(query).doc_ids
            == oracle.search_boolean(query)
        ), query
    for query in STREAMED:
        assert (
            index.search_streamed(query).doc_ids
            == oracle.search_streamed(query)
        ), query
    for weights in VECTORS:
        got = index.search_vector(weights, top_k=5)
        want = oracle.search_vector(weights, top_k=5)
        assert [(d.doc_id, d.score) for d in got] == [
            (d.doc_id, d.score) for d in want
        ], weights


def _ingest(index, oracle, docs, start=0):
    for i, words in enumerate(docs):
        text = " ".join(_word(w) for w in sorted(words))
        doc_id = index.add_document(text)
        assert doc_id == start + i
        oracle.add_document(doc_id, text.split())
    index.flush_batch()


class TestSplitDifferential:
    def test_split_preserves_all_answers(self):
        index = ShardedTextIndex(small_config(), shards=2, router_seed=1)
        oracle = BruteForceIndex()
        docs = [
            {1 + (i % 5), 1 + ((i * 3) % 7), 1 + ((i * 5) % 9)}
            for i in range(20)
        ]
        _ingest(index, oracle, docs)
        _check(index, oracle)
        counts = index.shard_doc_counts()
        victim = counts.index(max(counts))
        new_id = index.split_shard(victim)
        assert new_id == 2
        assert index.routing_epoch == 1
        _check(index, oracle)
        # The moved mass really moved: three shards all hold documents.
        post = index.shard_doc_counts()
        assert len(post) == 3 and sum(post) == sum(counts)

    def test_split_then_traffic_then_check(self):
        index = ShardedTextIndex(small_config(), shards=2, router_seed=0)
        oracle = BruteForceIndex()
        docs = [{1 + (i % 6), 1 + ((i * 7) % 8)} for i in range(16)]
        _ingest(index, oracle, docs)
        index.split_shard(0)
        for i, words in enumerate(
            [{2, 3}, {1, 4, 5}, {6}, {2, 5, 7}], start=16
        ):
            text = " ".join(_word(w) for w in sorted(words))
            index.add_document(text)
            oracle.add_document(i, text.split())
        index.delete_document(3)
        oracle.delete_document(3)
        index.flush_batch()
        _check(index, oracle)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=st.lists(
        st.sets(st.integers(min_value=1, max_value=9), min_size=1, max_size=4),
        min_size=8,
        max_size=24,
    ),
    shards=st.sampled_from([2, 3]),
    seed=st.sampled_from([0, 97]),
    nsplits=st.integers(min_value=1, max_value=3),
)
def test_random_move_sequences_match_oracle(docs, shards, seed, nsplits):
    """Any planner-shaped sequence of splits, interleaved with ingest,
    preserves full differential parity."""
    index = ShardedTextIndex(small_config(), shards=shards, router_seed=seed)
    oracle = BruteForceIndex()
    _ingest(index, oracle, docs)
    next_id = len(docs)
    for _ in range(nsplits):
        counts = index.shard_doc_counts()
        victim = max(index.routing.shard_ids, key=lambda s: counts[s])
        index.split_shard(victim)
        _check(index, oracle)
        text = "wa wb"
        index.add_document(text)
        oracle.add_document(next_id, ["wa", "wb"])
        next_id += 1
        index.flush_batch()
        _check(index, oracle)


class TestPlannerInputs:
    @pytest.mark.parametrize(
        "bound",
        [
            dict(max_imbalance=1.0),
            dict(min_docs=-1),
            dict(min_shard_docs=-1),
            dict(cooldown=-1),
        ],
        ids=["max_imbalance", "min_docs", "min_shard_docs", "cooldown"],
    )
    def test_policy_refuses_a_bound_out_of_range(self, bound):
        with pytest.raises(ValueError):
            RebalancePolicy(**bound)

    def test_no_documents_is_no_imbalance(self):
        assert RebalancePlanner.imbalance({}) == 0.0
        assert RebalancePlanner.imbalance([0, 0]) == 0.0

    def test_balanced_shards_are_not_split(self):
        assert RebalancePlanner().plan({0: 50, 1: 50}) is None


class TestPlannerDriven:
    def test_planner_converges_under_skew(self):
        """Feeding skewed placement through plan() drives imbalance
        below the bound without ever losing parity."""
        index = ShardedTextIndex(small_config(), shards=2, router_seed=1)
        oracle = BruteForceIndex()
        planner = RebalancePlanner()
        planner.policy.min_docs = 8
        planner.policy.min_shard_docs = 2
        planner.policy.cooldown = 0
        # Explicit ids all targeting shard 0's slice: scan ids whose
        # route is 0.
        doc_id = 0
        added = 0
        while added < 24:
            while index.route(doc_id) != 0:
                doc_id += 1
            text = " ".join(
                _word(1 + (doc_id % 6)) for _ in range(2)
            )
            index.add_document(text, doc_id)
            oracle.add_document(doc_id, text.split())
            doc_id += 1
            added += 1
        index.flush_batch()
        before = RebalancePlanner.imbalance(index.shard_doc_counts())
        assert before == pytest.approx(2.0)
        for _ in range(4):
            all_counts = index.shard_doc_counts()
            counts = {
                s: all_counts[s] for s in index.routing.shard_ids
            }
            victim = planner.plan(counts)
            if victim is None:
                break
            index.split_shard(victim)
            _check(index, oracle)
        all_counts = index.shard_doc_counts()
        after = RebalancePlanner.imbalance(
            [all_counts[s] for s in index.routing.shard_ids]
        )
        assert after < before
