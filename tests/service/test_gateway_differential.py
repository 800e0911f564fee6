"""Differential property battery: the multi-process gateway vs. the
in-process sharded index vs. the brute-force oracle.

The satellite claim: for any operation stream (adds, deletes, flushes)
and any query in any mode, a gateway over N worker processes answers
**byte-identically** — doc ids, scores, and read-op accounting — to an
in-process :class:`ShardedTextIndex` with the same shard count and
router seed, and set-identically to the :class:`BruteForceIndex` oracle,
across shard counts × router seeds × query modes.  A second property
covers queries *racing* a flush: because shards partition documents,
every per-shard slice of a racing answer must equal that shard's pre- or
post-flush boundary state — nothing in between, nothing mixed.
"""

from __future__ import annotations

import asyncio
import threading

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.shard import shard_of
from repro.core.sharded import ShardedTextIndex
from repro.query.reference import BruteForceIndex
from repro.service.gateway import AsyncShardGateway, GatewayService


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


# Small vocabulary + tiny buckets: collisions, long-list migrations, and
# posting fragments on every shard.
doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=5),
    min_size=4,
    max_size=24,
)
shard_count = st.sampled_from([2, 3])
router_seed = st.sampled_from([0, 1, 97])
delete_stride = st.integers(min_value=0, max_value=4)


def _queries():
    """A fixed probe set hitting every mode, NOT, and unknown words."""
    boolean = [
        "wa AND wb",
        "wb OR wc",
        "(wa AND wb) OR wd",
        "wa AND NOT wb",
        "NOT wa",
        "wz AND wa",  # unknown word
    ]
    streamed = ["wa AND wb", "wc OR wd", "wa AND wb AND wc"]
    vector = [
        {"wa": 2.0, "wb": 1.0},
        {"wc": 1.0, "wd": 3.0, "wa": 1.0},
        {"wz": 1.0, "wb": 2.0},
    ]
    return boolean, streamed, vector


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    docs=doc_words,
    shards=shard_count,
    seed=router_seed,
    stride=delete_stride,
)
def test_gateway_matches_sharded_and_oracle(docs, shards, seed, stride):
    async def main():
        gateway = AsyncShardGateway(
            small_config(), shards=shards, router_seed=seed
        )
        await gateway.start()
        try:
            local = ShardedTextIndex(
                small_config(), shards=shards, router_seed=seed
            )
            oracle = BruteForceIndex()
            boolean, streamed, vector = _queries()
            flush_points = max(2, len(docs) // 3)
            for doc_id, words in enumerate(docs):
                text = " ".join(_word(w) for w in sorted(words))
                assert await gateway.add_document(text) == doc_id
                local.add_document(text)
                oracle.add_document(doc_id, text.split())
                if stride and doc_id % (stride + 2) == stride:
                    victim = doc_id // 2
                    await gateway.delete_document(victim)
                    local.delete_document(victim)
                    oracle.delete_document(victim)
                if doc_id % flush_points == flush_points - 1:
                    await gateway.flush()
                    local.flush_batch()
                    await compare(gateway, local, oracle)
            await gateway.flush()
            local.flush_batch()
            await compare(gateway, local, oracle)
        finally:
            await gateway.close()

    async def compare(gateway, local, oracle):
        boolean, streamed, vector = _queries()
        for query in boolean:
            got = await gateway.search_boolean(query)
            want = local.search_boolean(query)
            assert got.doc_ids == want.doc_ids, query
            assert got.read_ops == want.read_ops, query
            assert got.doc_ids == oracle.search_boolean(query), query
        for query in streamed:
            got = await gateway.search_streamed(query)
            want = local.search_streamed(query)
            assert got.doc_ids == want.doc_ids, query
            assert got.read_ops == want.read_ops, query
            assert got.doc_ids == oracle.search_streamed(query), query
        for weights in vector:
            got, got_ops = await gateway.search_vector_counted(
                weights, top_k=5
            )
            want, want_ops = local.search_vector_counted(weights, top_k=5)
            assert [(d.doc_id, d.score) for d in got] == [
                (d.doc_id, d.score) for d in want
            ], weights
            assert got_ops == want_ops, weights
            ref = oracle.search_vector(weights, top_k=5)
            assert [(d.doc_id, d.score) for d in got] == [
                (d.doc_id, d.score) for d in ref
            ], weights

    asyncio.run(main())


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(min_value=0, max_value=3))
def test_queries_racing_a_flush_see_only_boundary_states(seed):
    """Per-shard slices of racing answers are pre- or post-flush, never
    a state in between (each shard's publish is atomic; staleness skew
    across shards is the gateway's documented weaker guarantee)."""
    shards = 2
    query = "wa AND wb"
    pre = BruteForceIndex()
    post = BruteForceIndex()
    service = GatewayService(
        small_config(), shards=shards, router_seed=seed
    )
    try:
        rng_docs = [
            " ".join(_word(1 + (i + j) % 6) for j in range(3))
            for i in range(12)
        ]
        for doc_id, text in enumerate(rng_docs[:6]):
            service.add_document(text)
            pre.add_document(doc_id, text.split())
            post.add_document(doc_id, text.split())
        service.flush_and_publish()
        for doc_id, text in enumerate(rng_docs[6:], start=6):
            service.add_document(text)
            post.add_document(doc_id, text.split())

        answers: list[list[int]] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                answers.append(service.search_streamed(query).doc_ids)

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        service.flush_and_publish()  # the racing publish
        stop.set()
        for t in threads:
            t.join(timeout=30.0)

        pre_docs = set(pre.search_streamed(query))
        post_docs = set(post.search_streamed(query))
        pre_slices = [
            {d for d in pre_docs if shard_of(d, shards, seed) == s}
            for s in range(shards)
        ]
        post_slices = [
            {d for d in post_docs if shard_of(d, shards, seed) == s}
            for s in range(shards)
        ]
        assert answers, "readers never completed a query"
        for answer in answers:
            for s in range(shards):
                got = {d for d in answer if shard_of(d, shards, seed) == s}
                assert got in (pre_slices[s], post_slices[s]), (
                    f"shard {s} slice {sorted(got)} is neither the "
                    f"pre-flush {sorted(pre_slices[s])} nor the "
                    f"post-flush {sorted(post_slices[s])} boundary"
                )
    finally:
        service.close()
