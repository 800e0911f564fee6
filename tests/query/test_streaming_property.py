"""Property tests: streamed merges equal set semantics on random indexes."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.query.streaming import streamed_and, streamed_or

doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=10), min_size=1, max_size=5),
    min_size=1,
    max_size=40,
)
queries = st.lists(
    st.integers(min_value=1, max_value=12), min_size=1, max_size=4
)


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(docs=doc_words, query=queries)
def test_streamed_merges_match_set_algebra(docs, query):
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=24,
            block_postings=4,
            ndisks=2,
            nblocks_override=100_000,
            policy=Policy(style=Style.NEW, limit=Limit.Z),
        )
    )
    reference: dict[int, set[int]] = {}
    for doc_id, words in enumerate(docs):
        index.add_document(sorted(words), doc_id=doc_id)
        for w in words:
            reference.setdefault(w, set()).add(doc_id)
        if doc_id % 7 == 6:
            index.flush_batch()
    index.flush_batch()

    want_and = set.intersection(
        *(reference.get(w, set()) for w in query)
    ) if query else set()
    want_or = set.union(*(reference.get(w, set()) for w in query))

    got_and, _ = streamed_and(index, query)
    got_or, _ = streamed_or(index, query)
    assert got_and == sorted(want_and)
    assert got_or == sorted(want_or)
