"""Hypothesis differential tests for the immediate two-tier read path.

The tentpole claim (DESIGN.md §14): over any interleaving of add /
delete / flush, an immediate-tier answer equals the brute-force oracle's
for all three query modes — documents are queryable the moment they are
ingested, not at the next publish — and charges exactly the read ops the
snapshot tier charges for the same query (memory postings are free of
I/O, the same convention the core applies to the unflushed batch).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.query.reference import BruteForceIndex
from repro.service import QueryService


def _word(n: int) -> str:
    """Purely alphabetic word names — the tokenizer splits on digits."""
    return f"w{chr(ord('a') + n - 1)}"


# Small vocabulary + tiny buckets: documents collide on words constantly
# and lists outgrow their buckets into long-list chunks.
doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    min_size=1,
    max_size=30,
)
# 0 = never flush mid-stream (everything stays buffered).
flush_every = st.integers(min_value=0, max_value=7)
delete_seed = st.integers(min_value=0, max_value=6)
# 3 = the writer is sharded and the tier's batch spans three volumes.
shard_count = st.sampled_from([1, 3])
flat_query = st.tuples(
    st.sampled_from(["AND", "OR"]),
    st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=4),
)
word_atom = st.integers(min_value=1, max_value=14).map(_word)
boolean_expr = st.recursive(
    word_atom,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from(["AND", "OR"]), inner).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"
        ),
        st.tuples(inner, inner).map(lambda t: f"({t[0]} AND NOT {t[1]})"),
    ),
    max_leaves=6,
)
vector_weights = st.dictionaries(
    word_atom,
    st.integers(min_value=1, max_value=3).map(float),
    min_size=1,
    max_size=4,
)


def _build(docs, every, delete_seed, shards):
    """An immediate-tier service and the oracle, fed one interleaved
    stream of adds, deletes, and mid-stream flushes."""
    service = QueryService(
        IndexConfig(
            nbuckets=2,
            bucket_size=24,
            block_postings=4,
            ndisks=2,
            nblocks_override=100_000,
        ),
        cache_capacity=0,  # differential answers must not be memoized
        read_tier="immediate",
        shards=shards,
    )
    oracle = BruteForceIndex()
    for i, words in enumerate(docs):
        doc_id = service.add_document(
            " ".join(_word(w) for w in sorted(words))
        )
        oracle.add_document(doc_id, [_word(w) for w in words])
        if delete_seed and i % (delete_seed + 1) == delete_seed:
            victim = (i * 2654435761) % (doc_id + 1)
            service.delete_document(victim)
            oracle.delete_document(victim)
        if every and i % every == every - 1:
            service.flush_and_publish()
    return service, oracle


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    every=flush_every,
    delete_seed=delete_seed,
    shards=shard_count,
    query=flat_query,
)
def test_flat_queries_match_oracle_mid_buffer(
    docs, every, delete_seed, shards, query
):
    service, oracle = _build(docs, every, delete_seed, shards)
    operator, word_nums = query
    text = f" {operator} ".join(_word(n) for n in word_nums)

    streamed = service.search_streamed(text)
    boolean = service.search_boolean(text)
    expected = oracle.search_boolean(text)

    assert streamed.doc_ids == expected, text
    assert boolean.doc_ids == expected, text
    assert streamed.doc_ids == sorted(set(streamed.doc_ids))


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    every=flush_every,
    delete_seed=delete_seed,
    shards=shard_count,
    expr=boolean_expr,
)
def test_general_boolean_matches_oracle_mid_buffer(
    docs, every, delete_seed, shards, expr
):
    service, oracle = _build(docs, every, delete_seed, shards)
    assert (
        service.search_boolean(expr).doc_ids == oracle.search_boolean(expr)
    ), expr


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    every=flush_every,
    delete_seed=delete_seed,
    shards=shard_count,
    weights=vector_weights,
)
def test_vector_ranking_matches_oracle_mid_buffer(
    docs, every, delete_seed, shards, weights
):
    service, oracle = _build(docs, every, delete_seed, shards)
    got = [
        (d.doc_id, d.score) for d in service.search_vector(weights, top_k=8)
    ]
    want = [
        (d.doc_id, d.score) for d in oracle.search_vector(weights, top_k=8)
    ]
    # Bit-identical scores: the merged fetch feeds the ranker in the same
    # sorted-term order a post-flush ranking uses.
    assert got == want, weights


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    every=flush_every,
    delete_seed=delete_seed,
    shards=shard_count,
    query=flat_query,
)
def test_read_ops_match_the_snapshot_tier(
    docs, every, delete_seed, shards, query
):
    """Memory postings carry no I/O charge: mid-buffer, an immediate
    answer costs exactly what the snapshot tier charges for the same
    query over the same published base."""
    service, oracle = _build(docs, every, delete_seed, shards)
    operator, word_nums = query
    text = f" {operator} ".join(_word(n) for n in word_nums)

    imm_streamed = service.search_streamed(text)
    snap_streamed = service.snapshot().search_streamed(text)
    assert imm_streamed.read_ops == snap_streamed.read_ops

    imm_boolean = service.search_boolean(text)
    snap_boolean = service.snapshot().search_boolean(text)
    assert imm_boolean.read_ops == snap_boolean.read_ops

    # After draining the buffer the tiers are byte-identical: same ids,
    # same read ops.
    service.flush_and_publish()
    imm = service.search_streamed(text)
    snap = service.snapshot().search_streamed(text)
    assert imm.doc_ids == snap.doc_ids == oracle.search_boolean(text)
    assert imm.read_ops == snap.read_ops
