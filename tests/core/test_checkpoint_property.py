"""Property-based checkpoint tests: random states roundtrip exactly."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import checkpoint
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Alloc, Limit, Policy, Style

policies = st.sampled_from(
    [
        Policy(style=Style.NEW, limit=Limit.ZERO),
        Policy(style=Style.NEW, limit=Limit.Z),
        Policy.adaptive_new(),
        Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
        Policy(
            style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=1.2
        ),
    ]
)

batches_strategy = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=10),  # word
            st.lists(
                st.integers(min_value=0, max_value=10),
                min_size=1,
                max_size=4,
            ),  # extra words per doc
        ),
        min_size=1,
        max_size=6,
    ),
    min_size=1,
    max_size=5,
)


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(policy=policies, batches=batches_strategy)
def test_random_states_roundtrip(policy, batches):
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=24,
            block_postings=4,
            ndisks=2,
            nblocks_override=100_000,
            store_contents=True,
            policy=policy,
        )
    )
    doc_id = 0
    for batch in batches:
        for word, extras in batch:
            index.add_document([word] + extras, doc_id=doc_id)
            doc_id += 1
        index.flush_batch()
    restored = checkpoint.clone(index)

    assert restored.stats() == index.stats()
    words = set(index.directory.words()) | set(index.buckets.words())
    for word in words:
        assert restored.fetch(word)[0] == index.fetch(word)[0]
    for a, b in zip(index.array.disks, restored.array.disks):
        assert list(a.freelist.intervals()) == list(b.freelist.intervals())
    # Continued ingestion behaves identically on both copies.
    index.add_document([0, 1], doc_id=doc_id)
    restored.add_document([0, 1], doc_id=doc_id)
    index.flush_batch()
    restored.flush_batch()
    assert restored.fetch(0)[0] == index.fetch(0)[0]
