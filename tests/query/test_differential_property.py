"""Differential property tests: every evaluator vs. the brute-force oracle.

The satellite claim: for the same query over the same corpus,
``search_streamed``, ``search_boolean``, and the
:class:`~repro.query.reference.BruteForceIndex` reference model must
return identical document sets — and the streamed evaluator's
``blocks_read`` must never exceed the block count the materialized
evaluator would decode for the same words.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.query import BruteForceIndex, materialized_blocks
from repro.query import streaming as streaming_query
from repro.textindex import TextDocumentIndex

def _word(n: int) -> str:
    """Purely alphabetic word names — the tokenizer splits on digits."""
    return f"w{chr(ord('a') + n - 1)}"


# Small vocabulary + tiny buckets: documents collide on words constantly,
# lists overflow into the long-list path, queries hit both structures.
doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    min_size=1,
    max_size=50,
)
# Query words range past the vocabulary so unknown words are exercised.
flat_query = st.tuples(
    st.sampled_from(["AND", "OR"]),
    st.lists(st.integers(min_value=1, max_value=14), min_size=1, max_size=4),
)
delete_seed = st.integers(min_value=0, max_value=6)


def build_pair(docs, delete_seed):
    """The index under test and the oracle, fed the same stream."""
    index = TextDocumentIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=24,
            block_postings=4,
            ndisks=2,
            nblocks_override=100_000,
        )
    )
    oracle = BruteForceIndex()
    for doc_id, words in enumerate(docs):
        text = " ".join(_word(w) for w in sorted(words))
        assert index.add_document(text) == doc_id
        oracle.add_document(doc_id, [_word(w) for w in words])
        if doc_id % 7 == 6:
            index.flush_batch()
    index.flush_batch()
    if delete_seed:
        for doc_id in range(0, len(docs), delete_seed + 1):
            index.delete_document(doc_id)
            oracle.delete_document(doc_id)
    return index, oracle


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(docs=doc_words, query=flat_query, delete_seed=delete_seed)
def test_streamed_boolean_and_oracle_agree(docs, query, delete_seed):
    index, oracle = build_pair(docs, delete_seed)
    operator, word_nums = query
    words = [_word(n) for n in word_nums]
    text = f" {operator} ".join(words)

    streamed = index.search_streamed(text)
    boolean = index.search_boolean(text)
    expected = oracle.search_boolean(text)

    assert streamed.doc_ids == expected, text
    assert boolean.doc_ids == expected, text
    # Both evaluators return sorted, duplicate-free ids — set equality
    # above plus this pins the full answer contract.
    assert streamed.doc_ids == sorted(set(streamed.doc_ids))


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(docs=doc_words, query=flat_query, delete_seed=delete_seed)
def test_streamed_blocks_bounded_by_materialized(docs, query, delete_seed):
    index, _ = build_pair(docs, delete_seed)
    operator, word_nums = query
    words = [_word(n) for n in word_nums]

    word_ids = [
        wid
        for wid in (index.vocabulary.lookup(w) for w in words)
        if wid is not None
    ]
    if operator == "AND" and len(word_ids) < len(words):
        # The facade answers an unknown conjunct with zero I/O; the bound
        # holds trivially.
        return
    if operator == "OR" or len(word_ids) == 1:
        _, stats = streaming_query.streamed_or(index.index, word_ids)
    else:
        _, stats = streaming_query.streamed_and(index.index, word_ids)

    bound = materialized_blocks(index, words)
    assert stats.blocks_read <= bound, (stats.blocks_read, bound)


# A recursive generator for full boolean expressions (parens, NOT).
word_atom = st.integers(min_value=1, max_value=14).map(lambda n: _word(n))
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


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(docs=doc_words, expr=boolean_expr, delete_seed=delete_seed)
def test_general_boolean_matches_oracle(docs, expr, delete_seed):
    index, oracle = build_pair(docs, delete_seed)
    assert index.search_boolean(expr).doc_ids == oracle.search_boolean(expr)
