"""Property test: :func:`check_index` holds after every flush.

Random document batches under random Table-2 policies, drawn as
documents or as word-occurrence pairs (the paper's size-only batch
update, loaded as documents by ``tests/counted.py``).  The single
property is the one the whole-index checker formalizes: after any flush,
the dual structure satisfies every invariant of §2–§3 — structure
exclusivity, bucket capacity, chunk geometry, allocation partition,
posting conservation, and stats accounting.

This complements ``tests/integration/test_invariants_property.py``, which
asserts a hand-picked subset of invariants inline; here the production
checker itself is the oracle, so any invariant added to it is
automatically property-tested.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.invariants import check_index
from repro.core.policy import Alloc, Limit, Policy, Style

from ..counted import add_counts

# The Table-2 policy space: every style x limit, plus allocation variants.
policies = st.sampled_from(
    [
        Policy(style=Style.NEW, limit=Limit.ZERO),
        Policy(style=Style.NEW, limit=Limit.Z),
        Policy(style=Style.NEW, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=2.0),
        Policy(style=Style.FILL, limit=Limit.ZERO, extent_blocks=2),
        Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
        Policy(style=Style.WHOLE, limit=Limit.ZERO),
        Policy(style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=1.2),
    ]
)

# A small word space forces bucket collisions and long-list migrations.
document = st.lists(
    st.integers(min_value=0, max_value=15), min_size=1, max_size=25
)
document_batches = st.lists(
    st.lists(document, min_size=1, max_size=10), min_size=1, max_size=5
)

count_batch = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=1, max_value=40),
    ),
    min_size=1,
    max_size=20,
)
count_batches = st.lists(count_batch, min_size=1, max_size=5)

SETTINGS = settings(
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)


@SETTINGS
@given(policy=policies, batches=document_batches)
def test_content_mode_invariants_after_every_flush(policy, batches):
    index = DualStructureIndex(
        IndexConfig(
            policy=policy, nbuckets=4, bucket_size=24
        )
    )
    for batch in batches:
        for doc in batch:
            index.add_document(doc)
        index.flush_batch()
        check_index(index).raise_if_failed()


@SETTINGS
@given(policy=policies, batches=count_batches)
def test_invariants_after_every_flush_of_counted_batches(policy, batches):
    index = DualStructureIndex(
        IndexConfig(policy=policy, nbuckets=4, bucket_size=24)
    )
    for batch in batches:
        add_counts(index, batch)
        index.flush_batch()
        check_index(index).raise_if_failed()


@SETTINGS
@given(policy=policies, batches=document_batches)
def test_crash_safe_mode_preserves_invariants(policy, batches):
    """crash_safe bookkeeping (snapshots + recovery points) must not
    perturb the on-disk structures."""
    index = DualStructureIndex(
        IndexConfig(
            policy=policy,
            nbuckets=4,
            bucket_size=24,
            crash_safe=True,
        )
    )
    for batch in batches:
        for doc in batch:
            index.add_document(doc)
        index.flush_batch()
        check_index(index).raise_if_failed()
