"""Differential property: the result cache changes no answer.

A :class:`QueryService` with a result cache and its twin without one
(``cache_capacity=0``) take the same stream of adds, deletes, publishes
and reads — in every mode, at the current snapshot and at a pinned older
one — on both read tiers and on one and three shards.  Every answer and
its read-op count must agree, the cached twin must actually have served
hits, and the last published snapshot must answer like the full clone of
its writer (the publish's fallback, called directly).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.service import QueryService

WORDS = ["wa", "wb", "wc", "wd", "we", "wf"]
BOOLEAN = ["wa AND wb", "wa OR wc", "NOT wb", "(wa OR wb) AND NOT wc", "wz"]
STREAMED = ["wa AND wb", "wc OR wd", "wa"]
VECTOR = [{"wa": 1.0, "wb": 2.0}, {"wc": 1.0, "wz": 1.0}]


def small_config() -> IndexConfig:
    return IndexConfig(
        nbuckets=4,
        bucket_size=16,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
    )


add = st.tuples(
    st.just("add"), st.lists(st.sampled_from(WORDS), min_size=1, max_size=5)
)
delete = st.tuples(st.just("delete"), st.integers(min_value=0, max_value=40))
flush = st.tuples(st.just("flush"))
read = st.tuples(
    st.just("read"),
    st.sampled_from(["boolean", "streamed", "vector"]),
    st.integers(min_value=0, max_value=4),
    st.booleans(),
)
ops = st.lists(
    st.one_of(add, add, delete, flush, read, read, read),
    min_size=4,
    max_size=40,
)


def _read(service, mode, n, snapshot):
    if mode == "boolean":
        answer = service.search_boolean(BOOLEAN[n % len(BOOLEAN)], snapshot)
        return answer.doc_ids, answer.read_ops
    if mode == "streamed":
        answer = service.search_streamed(STREAMED[n % len(STREAMED)], snapshot)
        return answer.doc_ids, answer.read_ops
    ranked = service.search_vector(
        VECTOR[n % len(VECTOR)], top_k=3, snapshot=snapshot
    )
    return [(r.doc_id, r.score) for r in ranked]


@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(
    script=ops,
    tier=st.sampled_from(["snapshot", "immediate"]),
    shards=st.sampled_from([1, 3]),
)
def test_cached_service_answers_like_its_uncached_twin(script, tier, shards):
    cached, bare = (
        QueryService(
            small_config(),
            cache_capacity=capacity,
            shards=shards,
            read_tier=tier,
        )
        for capacity in (256, 0)
    )
    # Published snapshot pairs, oldest first, for pinned reads.
    history = [(cached.snapshot(), bare.snapshot())]
    live: list[int] = []
    for op in script:
        if op[0] == "add":
            text = " ".join(op[1])
            doc_id = cached.add_document(text)
            assert bare.add_document(text) == doc_id
            live.append(doc_id)
        elif op[0] == "delete" and live:
            victim = live.pop(op[1] % len(live))
            cached.delete_document(victim)
            bare.delete_document(victim)
        elif op[0] == "flush":
            cached.flush_and_publish()
            bare.flush_and_publish()
            history.append((cached.snapshot(), bare.snapshot()))
        elif op[0] == "read":
            _, mode, n, pinned = op
            pins = history[n % len(history)] if pinned else (None, None)
            assert _read(cached, mode, n, pins[0]) == _read(
                bare, mode, n, pins[1]
            )
    # Two sweeps over every query: the second is served from the cache.
    sweep = (
        [("boolean", n) for n in range(len(BOOLEAN))]
        + [("streamed", n) for n in range(len(STREAMED))]
        + [("vector", n) for n in range(len(VECTOR))]
    )
    for mode, n in sweep * 2:
        assert _read(cached, mode, n, None) == _read(bare, mode, n, None)
    assert cached.cache.stats().hits > 0
    assert bare.cache.stats().hits == 0
    bare.flush_and_publish()
    published, clone = bare.snapshot(), bare.writer_index.clone()
    for query in BOOLEAN:
        answer = published.search_boolean(query)
        oracle = clone.search_boolean(query)
        assert (answer.doc_ids, answer.read_ops) == (
            oracle.doc_ids,
            oracle.read_ops,
        )
