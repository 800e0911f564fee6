"""Property-based tests: bucket-manager invariants under random traffic."""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.buckets import BucketManager
from repro.core.postings import CountPostings

from ..counted import insert as insert_one


class BucketMachine(RuleBasedStateMachine):
    """Random inserts preserve capacity bounds and conserve postings."""

    def __init__(self):
        super().__init__()
        self.manager = BucketManager(nbuckets=3, bucket_size=40)
        self.migrated: dict[int, int] = {}
        self.inserted_postings = 0

    @rule(
        word=st.integers(min_value=1, max_value=30),
        count=st.integers(min_value=1, max_value=25),
    )
    def insert(self, word, count):
        # Mirror the real pipeline: words already promoted bypass buckets.
        if word in self.migrated:
            self.migrated[word] += count
            return
        self.inserted_postings += count
        for mword, payload in insert_one(self.manager, word, CountPostings(count)):
            self.migrated[mword] = self.migrated.get(mword, 0) + len(payload)

    @invariant()
    def buckets_never_over_capacity(self):
        for bucket in self.manager.buckets:
            assert bucket.size <= bucket.capacity

    @invariant()
    def postings_conserved(self):
        in_buckets = self.manager.total_postings
        # Migrated counts include post-promotion traffic; subtract the
        # postings that never entered the buckets.
        promoted_after = sum(self.migrated.values())
        assert in_buckets <= self.inserted_postings
        assert in_buckets + promoted_after >= self.inserted_postings

    @invariant()
    def words_live_in_their_hash_bucket(self):
        for i, bucket in enumerate(self.manager.buckets):
            for word in bucket.lists:
                assert self.manager.bucket_of(word) == i

    @invariant()
    def no_word_in_two_places(self):
        bucket_words = set(self.manager.words())
        assert not (bucket_words & set(self.migrated))


TestBucketMachine = BucketMachine.TestCase
TestBucketMachine.settings = settings(
    max_examples=40, stateful_step_count=50, deadline=None
)


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=30),
        ),
        max_size=60,
    )
)
def test_eviction_always_picks_a_longest_list(pairs):
    manager = BucketManager(nbuckets=1, bucket_size=50)
    for word, count in pairs:
        bucket = manager.buckets[0]
        before = {w: len(p) for w, p in bucket.lists.items()}
        before[word] = before.get(word, 0) + count
        migrations = insert_one(manager, word, CountPostings(count))
        if migrations:
            evicted_len = len(migrations[0][1])
            assert evicted_len == max(before.values())
        # Re-sync for next step: drop evicted words from our mirror.
        for mword, _ in migrations:
            before.pop(mword, None)
