"""Scatter-gather primitives and the sharded differential property.

The satellite claim: a :class:`~repro.core.sharded.ShardedTextIndex` at
*any* shard count and *any* router seed returns byte-identical boolean
and vector answers to the :class:`~repro.query.reference.BruteForceIndex`
oracle (and to the single-volume facade) — deletions included.  The
primitives are pinned separately so a gather regression is localised.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.shard import shard_of
from repro.core.sharded import ShardedTextIndex
from repro.query import BruteForceIndex
from repro.query.scatter import gather_answers, merge_disjoint, scatter_fetch
from repro.textindex import TextDocumentIndex

# -- primitives ---------------------------------------------------------------

# Disjoint sorted runs, the exact shape document-hash sharding produces:
# partition a random id set by a random shard count.
partitioned_ids = st.tuples(
    st.sets(st.integers(min_value=0, max_value=500), max_size=80),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=3),
).map(
    lambda t: [
        sorted(d for d in t[0] if shard_of(d, t[1], t[2]) == s)
        for s in range(t[1])
    ]
)


@settings(max_examples=100, deadline=None)
@given(runs=partitioned_ids)
def test_merge_disjoint_is_sorted_union(runs):
    merged = merge_disjoint(runs)
    assert merged == sorted(set().union(*map(set, runs)) if runs else set())


@settings(max_examples=100, deadline=None)
@given(runs=partitioned_ids, costs=st.lists(st.integers(0, 9), max_size=6))
def test_gather_answers_merges_and_sums(runs, costs):
    answers = [
        (run, costs[i] if i < len(costs) else 1)
        for i, run in enumerate(runs)
    ]
    docs, read_ops = gather_answers(answers)
    assert docs == merge_disjoint(runs)
    assert read_ops == sum(a[1] for a in answers)


def test_scatter_fetch_merges_and_counts():
    tables = [
        {"wa": ([0, 3], 2), "wb": ([3], 1)},
        {"wa": ([1, 5], 1), "wb": ([], 0)},
    ]
    fetchers = [
        lambda w, t=t: t.get(w, ([], 1)) for t in tables
    ]
    fetch, counter = scatter_fetch(fetchers)
    assert fetch("wa") == [0, 1, 3, 5]
    assert counter[0] == 3
    assert fetch("wq") == []
    assert counter[0] == 5  # every shard still charged its miss


# -- the differential property ------------------------------------------------


def _word(n: int) -> str:
    return f"w{chr(ord('a') + n - 1)}"


doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    min_size=1,
    max_size=40,
)
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
nshards = st.integers(min_value=2, max_value=5)
router_seed = st.integers(min_value=0, max_value=1_000)
delete_seed = st.integers(min_value=0, max_value=6)


def build_triple(docs, nshards, router_seed, delete_seed):
    """Sharded index under test, single-volume facade, and the oracle."""
    config = IndexConfig(
        nbuckets=2,
        bucket_size=24,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
    )
    sharded = ShardedTextIndex(
        config, shards=nshards, router_seed=router_seed
    )
    single = TextDocumentIndex(config)
    oracle = BruteForceIndex()
    for doc_id, words in enumerate(docs):
        text = " ".join(_word(w) for w in sorted(words))
        assert sharded.add_document(text) == doc_id
        assert single.add_document(text) == doc_id
        oracle.add_document(doc_id, [_word(w) for w in words])
        if doc_id % 7 == 6:
            sharded.flush_batch()
            single.flush_batch()
    sharded.flush_batch()
    single.flush_batch()
    if delete_seed:
        for doc_id in range(0, len(docs), delete_seed + 1):
            sharded.delete_document(doc_id)
            single.delete_document(doc_id)
            oracle.delete_document(doc_id)
    return sharded, single, oracle


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    expr=boolean_expr,
    nshards=nshards,
    router_seed=router_seed,
    delete_seed=delete_seed,
)
def test_sharded_boolean_matches_oracle(
    docs, expr, nshards, router_seed, delete_seed
):
    sharded, single, oracle = build_triple(
        docs, nshards, router_seed, delete_seed
    )
    expected = oracle.search_boolean(expr)
    assert sharded.search_boolean(expr).doc_ids == expected, expr
    assert single.search_boolean(expr).doc_ids == expected, expr


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    query=flat_query,
    nshards=nshards,
    router_seed=router_seed,
    delete_seed=delete_seed,
)
def test_sharded_streamed_matches_oracle(
    docs, query, nshards, router_seed, delete_seed
):
    sharded, single, oracle = build_triple(
        docs, nshards, router_seed, delete_seed
    )
    operator, word_nums = query
    text = f" {operator} ".join(_word(n) for n in word_nums)
    expected = oracle.search_boolean(text)
    assert sharded.search_streamed(text).doc_ids == expected, text
    assert single.search_streamed(text).doc_ids == expected, text


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    weights=st.dictionaries(
        st.integers(min_value=1, max_value=14).map(_word),
        st.floats(min_value=0.25, max_value=4.0, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    nshards=nshards,
    router_seed=router_seed,
    delete_seed=delete_seed,
)
def test_sharded_vector_matches_oracle(
    docs, weights, nshards, router_seed, delete_seed
):
    sharded, single, oracle = build_triple(
        docs, nshards, router_seed, delete_seed
    )
    expected = oracle.search_vector(weights, top_k=20)
    got = sharded.search_vector(weights, top_k=20)
    # Byte-identical: same documents, same order, same float scores —
    # the ranker sees the same merged postings, df, and global ndocs.
    assert [(s.doc_id, s.score) for s in got] == [
        (s.doc_id, s.score) for s in expected
    ]
    assert got == single.search_vector(weights, top_k=20)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    docs=doc_words,
    nshards=nshards,
    router_seed=router_seed,
)
def test_fetch_postings_matches_single_volume(docs, nshards, router_seed):
    sharded, single, _ = build_triple(docs, nshards, router_seed, 0)
    for n in range(1, 15):
        word = _word(n)
        assert (
            sharded.fetch_postings(word)[0] == single.fetch_postings(word)[0]
        )
