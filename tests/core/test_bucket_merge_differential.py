"""Differential: ``BucketManager.merge`` against the per-word loop it replaced.

``tests/reference_buckets.py`` keeps the classify → insert → evict loop
verbatim.  Both run the same batches on twin structures — tiny buckets so
evictions cascade, every payload kind, watched and unwatched buckets, and
hash functions that stray outside the bucket range — and must agree on
everything observable: the returned tallies, each bucket's lists, the
``to_long`` call sequence, the Figure-1 histories and step counter, the
delta journal's dirty sets, the exception raised and its message, and the
state an undo-log rollback leaves behind.

From a bucket within its capacity one eviction always suffices (the
longest list is at least as long as what the insert added), so the
scenarios may start with buckets filled past capacity behind the
manager's back; the first insert into one evicts in a cascade.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from .. import reference_buckets as ref
from repro.core.buckets import BucketManager
from repro.core.delta import DeltaJournal
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.policy import Limit, Policy, Style
from repro.core.positional import PositionalPosting, PositionalPostings, Region
from repro.core.postings import CountPostings, DocPostings
from repro.pipeline.compute_buckets import ComputeBucketsProcess
from repro.storage import faults
from repro.storage.faults import FaultPlan
from repro.text.batchupdate import BatchUpdate

KINDS = ("count", "docs", "positional")


def payload(kind, batch_no, n):
    """``n`` postings of batch ``batch_no``.  Every list of a batch starts
    at the same doc id, so a word listed twice in one batch collides."""
    ids = range(batch_no * 100, batch_no * 100 + n)
    if kind == "count":
        return CountPostings(n)
    if kind == "docs":
        return DocPostings(ids)
    return PositionalPostings(
        PositionalPosting(doc, (1, 4), Region.BODY) for doc in ids
    )


def make_hash(nbuckets, stray):
    """Modular, except ``stray`` (when drawn) hashes outside the range."""
    if stray is None:
        return None
    return lambda word: nbuckets if word == stray else word % nbuckets


scenarios = st.fixed_dictionaries(
    {
        "kind": st.sampled_from(KINDS),
        "nbuckets": st.integers(1, 4),
        "bucket_size": st.integers(1, 12),
        "watch": st.sets(st.integers(0, 3), max_size=2),
        "stray": st.none() | st.integers(1, 10),
        "prefill": st.dictionaries(
            st.integers(11, 20), st.integers(0, 6), max_size=6
        ),
        "batches": st.lists(
            st.lists(
                st.tuples(st.integers(1, 10), st.integers(0, 6)), max_size=10
            ),
            min_size=1,
            max_size=5,
        ),
    }
)


def twin_managers(s):
    managers = []
    for _ in range(2):
        manager = BucketManager(
            s["nbuckets"], s["bucket_size"], make_hash(s["nbuckets"], s["stray"])
        )
        manager.journal = DeltaJournal()
        for bucket_id in s["watch"]:
            if bucket_id < s["nbuckets"]:
                manager.watch(bucket_id)
        managers.append(manager)
    return managers


def prefill(s, manager):
    """Fill buckets past capacity without evicting (doc ids of batch 0)."""
    for word, n in s["prefill"].items():
        bucket_id = manager.hash_fn(word)
        if 0 <= bucket_id < manager.nbuckets:
            manager.buckets[bucket_id].insert(word, payload(s["kind"], 0, n))


def outcome(call):
    """``call()``'s result, or the exception's type and message."""
    try:
        return call()
    except Exception as exc:  # noqa: BLE001 — compared, not swallowed
        return type(exc), str(exc)


def bucket_state(manager):
    return (
        [(dict(b.lists), b.npostings) for b in manager.buckets],
        {b: list(h) for b, h in manager._watched.items()},
        manager._step,
    )


class LongStore:
    """A long-list stand-in.  ``calls`` is every ``to_long`` call and
    every ``before_word`` call, in order; a payload is noted as the
    caller's own object or one from a bucket."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.words = set()
        self.calls = []

    def before_word(self):
        self.calls.append("before_word")

    def to_long(self, word, payload):
        self.words.add(word)
        came_from = "input" if any(payload is p for p in self.inputs) else "bucket"
        self.calls.append((word, payload.copy(), came_from))


@settings(max_examples=150, deadline=None)
@given(scenarios)
def test_merge_matches_the_per_word_loop(s):
    old, new = twin_managers(s)
    for manager in (old, new):
        prefill(s, manager)
    old_long, new_long = LongStore([]), LongStore([])
    given_lists = []
    for batch_no, pairs in enumerate(s["batches"], 1):
        old_items = [(w, payload(s["kind"], batch_no, n)) for w, n in pairs]
        new_items = [(w, p.copy()) for w, p in old_items]
        given_lists += [(p, p.copy()) for _, p in new_items]
        old_long.inputs = [p for _, p in old_items]
        new_long.inputs = [p for _, p in new_items]
        got_old = outcome(
            lambda: ref.flush_loop(
                old,
                old_items,
                old_long.words,
                old_long.to_long,
                old_long.before_word,
            )
        )
        got_new = outcome(
            lambda: new.merge(
                new_items,
                new_long.words.__contains__,
                new_long.to_long,
                new_long.before_word,
            )
        )
        assert got_new == got_old
        assert new_long.calls == old_long.calls
        assert bucket_state(new) == bucket_state(old)
        assert new.journal.dirty_buckets == old.journal.dirty_buckets
        assert new.journal.dirty_words == old.journal.dirty_words
        # The caller's lists are copied in, never adopted or changed.
        for given, as_given in given_lists:
            assert given == as_given
        if isinstance(got_new[0], type):
            break


def twin_indexes(s):
    config = IndexConfig(
        nbuckets=s["nbuckets"],
        bucket_size=s["bucket_size"],
        crash_safe=True,
        store_contents=s["kind"] == "docs",
        positional=s["kind"] == "positional",
    )
    indexes = [DualStructureIndex(config), DualStructureIndex(config)]
    for index in indexes:
        # Journal from the start, as a published volume does, so every
        # batch's dirty sets are compared below.
        index.begin_journal()
        hash_fn = make_hash(s["nbuckets"], s["stray"])
        if hash_fn is not None:
            index.buckets.hash_fn = hash_fn
        prefill(s, index.buckets)
    return indexes


def index_state(index):
    return (
        [(dict(b.lists), b.npostings) for b in index.buckets.buckets],
        dict(index.longlists.directory._entries),
        vars(index.longlists.counters),
        [disk._blocks for disk in index.array.disks],
        index.buckets._step,
    )


@settings(max_examples=60, deadline=None)
@given(scenarios, st.lists(st.booleans(), min_size=5, max_size=5))
def test_undo_rollback_matches_the_per_word_loop(s, rollbacks):
    old, new = twin_indexes(s)
    for batch_no, pairs in enumerate(s["batches"], 1):
        items = [(w, payload(s["kind"], batch_no, n)) for w, n in pairs]
        old._undo.arm()
        got_old = outcome(
            lambda: ref.flush_loop(
                old.buckets,
                [(w, p.copy()) for w, p in items],
                old.longlists.directory,
                old.longlists.append,
                lambda: None,
            )
        )
        new._undo.arm()
        got_new = outcome(
            lambda: new.buckets.merge(
                [(w, p.copy()) for w, p in items],
                new.longlists.directory.__contains__,
                new.longlists.append,
                None,
            )
        )
        assert got_new == got_old
        assert index_state(new) == index_state(old)
        if new.delta is not None:
            assert new.delta.dirty_buckets == old.delta.dirty_buckets
            assert new.delta.dirty_words == old.delta.dirty_words
            assert new.delta.dirty_blocks == old.delta.dirty_blocks
        if isinstance(got_new[0], type) or rollbacks[batch_no - 1]:
            old._undo.rollback()
            new._undo.rollback()
        else:
            old._undo.seal()
            new._undo.seal()
        assert index_state(new) == index_state(old)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 30),
    st.sets(st.integers(0, 3), max_size=2),
    st.lists(
        st.dictionaries(st.integers(1, 25), st.integers(1, 9), max_size=12),
        max_size=6,
    ),
)
def test_compute_buckets_matches_the_per_word_loop(
    nbuckets, bucket_size, watch, days
):
    watch = [b for b in watch if b < nbuckets]
    old = ComputeBucketsProcess(nbuckets, bucket_size, watch_buckets=watch)
    new = ComputeBucketsProcess(nbuckets, bucket_size, watch_buckets=watch)
    for day, counts in enumerate(days):
        update = BatchUpdate(day, sorted(counts.items()))
        assert new.process_update(update) == ref.process_update(old, update)
        assert new._long_words == old._long_words
        assert bucket_state(new.manager) == bucket_state(old.manager)


class RecordingPlan(FaultPlan):
    """A plan that never fires and records every crash point reached."""

    def __post_init__(self):
        super().__post_init__()
        self.order = []

    def reach(self, name):
        self.order.append(name)
        super().reach(name)


@pytest.mark.parametrize("style", list(Style), ids=lambda s: s.value)
def test_flush_reaches_the_crash_points_the_loop_did(style):
    """One crash-safe ``flush_batch`` per batch of a hot workload: the
    crash points reached, in order, are those of the per-word loop —
    ``index.before-word-append`` once per batch word, interleaved with
    the ``longlists.*`` points of each append exactly as before."""
    config = IndexConfig(
        policy=Policy(style=style, limit=Limit.Z),
        store_contents=True,
        nbuckets=4,
        bucket_size=16,
        crash_safe=True,
    )
    old, new = DualStructureIndex(config), DualStructureIndex(config)
    old.buckets.merge = lambda items, is_long, to_long, before_word: (
        ref.flush_loop(
            old.buckets, items, old.longlists.directory, to_long, before_word
        )
    )
    rng = random.Random(1994)
    reached_longlists = False
    for _ in range(6):
        docs = [[rng.randrange(12) for _ in range(30)] for _ in range(20)]
        orders = []
        for index in (old, new):
            for doc in docs:
                index.add_document(doc)
            nwords = len(index.memory)
            with faults.injected(RecordingPlan()) as plan:
                result = index.flush_batch()
            orders.append((plan.order, result))
        (old_order, old_result), (new_order, new_result) = orders
        assert new_order == old_order
        assert new_result == old_result
        assert new_order.count("index.before-word-append") == nwords
        reached_longlists |= any(p.startswith("longlists.") for p in new_order)
    assert reached_longlists
    assert new.buckets._step == old.buckets._step
    for word in range(12):
        assert new.fetch(word)[0] == old.fetch(word)[0]
