"""Property test: crashed-and-recovered ≡ never crashed, structurally.

The undo log (``core/undo.py``) replaces a whole-index recovery point
with pre-images of what one flush dirties.  The properties, for random
batches under each update style, with bucket growth, positional
payloads and deletion sweeps between flushes, and a
crash at a drawn arrival of a drawn crash point of the final flush:

(a) after ``recover(replay=False)`` the index is structurally what it
    was just before ``flush_batch`` — a canonical dump of every durable
    structure compares equal, iteration orders included;
(b) after ``recover(replay=True)`` it is structurally a ``copy.deepcopy``
    twin taken before the flush and flushed without a fault — counters
    and trace lengths included;
(c) ``check_index`` is clean and a full checkpoint clone (the mechanism
    the undo log replaced, kept as the oracle) answers like the twin's.
"""

import copy
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.deletion import DeletionManager
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.invariants import check_index
from repro.core.positional import Region
from repro.core.rebalance import GrowthPolicy
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash

from .. import checkpoints
from .test_crash_recovery import POLICIES

VOCAB = 14

document = st.lists(
    st.integers(min_value=0, max_value=VOCAB - 1), min_size=1, max_size=20
)
batch = st.lists(document, min_size=1, max_size=8)
batches = st.lists(batch, min_size=2, max_size=5)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


def dump(index) -> dict:
    """Every durable structure, copied, in its own iteration order."""
    longlists, flusher, trace = index.longlists, index.flusher, index.trace
    directory_region = flusher._directory_region
    return {
        "buckets": [
            ([(w, p.copy()) for w, p in b.lists.items()], b.npostings)
            for b in index.buckets.buckets
        ],
        "directory": [
            (e.word, [astuple(c) for c in e.chunks])
            for e in longlists.directory.entries()
        ],
        "blocks": [sorted(d._blocks.items()) for d in index.array.disks],
        "free": [list(d.freelist.intervals()) for d in index.array.disks],
        "regions": (
            [astuple(c) for c in flusher._bucket_regions],
            directory_region and astuple(directory_region),
        ),
        "counters": (astuple(longlists.counters), astuple(flusher.counters)),
        "update_sizes": list(longlists._update_sizes.items()),
        "release": [astuple(c) for c in longlists.release],
        "next_disk": index.array._next_disk,
        "batches": index._batches,
        "nbuckets": (index.config.nbuckets, index.buckets.nbuckets),
        "growth_events": index.grower and len(index.grower.events),
        "trace": (trace.nops, trace.nbatches),
    }


def assert_same_dump(got: dict, want: dict, what: str) -> None:
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, f"{what}: {differing} differ"


def load(index, docs, positional: bool) -> None:
    """Put one batch of documents into the in-memory index."""
    for doc in docs:
        if positional:
            index.add_document_occurrences(
                (w, pos, Region.TITLE if pos == 0 else Region.BODY)
                for pos, w in enumerate(doc)
            )
        else:
            index.add_document(doc)


def lists_of(index) -> list:
    return [index.fetch(w)[0] for w in range(VOCAB)]


@settings(
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    policy=st.sampled_from([p for _, p in POLICIES]),
    grow=st.booleans(),
    positional=st.booleans(),
    batches=batches,
    sweep=st.booleans(),
    data=st.data(),
)
def test_crash_and_recover_is_structurally_a_clean_run(
    policy, grow, positional, batches, sweep, data
):
    index = DualStructureIndex(
        IndexConfig(
            policy=policy,
            positional=positional,
            nbuckets=4,
            bucket_size=16,
            block_postings=4,
            grow_buckets=grow,
            growth=GrowthPolicy(occupancy_threshold=0.5),
            crash_safe=True,
        )
    )
    deletions = DeletionManager(index)
    for docs in batches[:-1]:
        load(index, docs, positional)
        index.flush_batch()
        if sweep:
            # A sweep between flushes rewrites lists outside any flush
            # and leaves its retired chunks on RELEASE for the next one.
            victims = data.draw(
                st.sets(st.integers(0, index.ndocs - 1), max_size=3)
            )
            for doc_id in victims:
                deletions.delete(doc_id)
            deletions.sweep_all()
    boundary_ndocs = index.ndocs
    load(index, batches[-1], positional)
    before = dump(index)

    # Copied before the flush: an armed log holds the ABSENT sentinel,
    # whose identity a deepcopy would not preserve.
    twin, rolled = copy.deepcopy(index), copy.deepcopy(index)
    with faults.injected(FaultPlan()) as probe:
        twin.flush_batch()
    point = data.draw(st.sampled_from(sorted(probe.point_hits)))
    hit = data.draw(st.integers(1, probe.point_hits[point]))

    for victim in (index, rolled):
        with faults.injected(FaultPlan(crash_at=point, crash_at_hit=hit)):
            with pytest.raises(InjectedCrash):
                victim.flush_batch()

    assert rolled.recover(replay=False) is None
    assert_same_dump(dump(rolled), before, f"rollback from {point}#{hit}")
    assert len(rolled.memory) == 0 and rolled.ndocs == boundary_ndocs
    check_index(rolled).raise_if_failed()

    assert index.recover(replay=True) is not None
    assert_same_dump(dump(index), dump(twin), f"replay from {point}#{hit}")
    assert index.ndocs == twin.ndocs
    check_index(index).raise_if_failed()
    assert lists_of(checkpoints.clone(index)) == lists_of(
        checkpoints.clone(twin)
    )
