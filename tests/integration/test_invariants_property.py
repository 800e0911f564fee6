"""Property-based whole-index invariants under random batched workloads.

Invariants checked after every batch, for randomly drawn policies:

1. A word never has both a short and a long list (§2: "a word w never has
   both a short list and a long list associated with it").
2. No bucket exceeds its capacity after overflow resolution.
3. Postings are conserved: ingested == buckets + long lists.
4. Directory chunks never overlap on disk and all lie in allocated space.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Alloc, Limit, Policy, Style

from ..counted import add_counts

policies = st.sampled_from(
    [
        Policy(style=Style.NEW, limit=Limit.ZERO),
        Policy(style=Style.NEW, limit=Limit.Z),
        Policy(
            style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=2.0
        ),
        Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
        Policy(style=Style.WHOLE, limit=Limit.ZERO),
        Policy(
            style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=1.2
        ),
    ]
)

# Batches of (word, count) pairs; small word space forces collisions,
# heavy counts force migrations.
batches_strategy = st.lists(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=12),
            st.integers(min_value=1, max_value=40),
        ),
        min_size=1,
        max_size=8,
    ),
    min_size=1,
    max_size=6,
)


def check_invariants(index, ingested):
    # 1. exclusive structures
    for word in index.directory.words():
        assert not index.buckets.contains(word)
    # 2. bucket capacity
    for bucket in index.buckets.buckets:
        assert bucket.size <= bucket.capacity
    # 3. conservation
    on_disk = index.directory.total_postings + index.buckets.total_postings
    assert on_disk == ingested
    # 4. chunk geometry
    seen = []
    for entry in index.directory.entries():
        for chunk in entry.chunks:
            assert chunk.npostings <= chunk.capacity(
                index.config.block_postings
            )
            for other in seen:
                assert not chunk.block_range().overlaps(other)
            seen.append(chunk.block_range())


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(policy=policies, batches=batches_strategy)
def test_index_invariants_hold_after_every_batch(policy, batches):
    index = DualStructureIndex(
        IndexConfig(
            nbuckets=2,
            bucket_size=32,
            block_postings=8,
            ndisks=2,
            nblocks_override=100_000,
            policy=policy,
        )
    )
    ingested = 0
    for batch in batches:
        merged: dict[int, int] = {}
        for word, count in batch:
            merged[word] = merged.get(word, 0) + count
        add_counts(index, sorted(merged.items()))
        ingested += sum(merged.values())
        index.flush_batch()
        check_invariants(index, ingested)
