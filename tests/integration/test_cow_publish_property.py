"""Property-based differential test for incremental COW publication.

For arbitrary sequences of batches, deletions, deletion sweeps, bucket
growth, flush crashes followed by ``recover(replay=True)`` on a
``crash_safe`` writer, and crashes injected at the
``checkpoint.cow-publish`` barrier, a snapshot assembled by
:func:`checkpoint.clone_incremental` (chained across generations, each
sharing structure with the previous snapshot) must answer every query
identically — including ``read_ops`` — to the full-clone oracle taken
at the same instant, and save to the oracle's bytes.  Earlier
generations must keep answering, and saving, what they did when
published: a snapshot shares the writer's short-list payloads, so the
writer may extend one in place only while it owns it
(``BucketManager.owned``).  The freeze barrier polices managers, not
payloads; this test guards the ownership rule.
"""

import io

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import CheckpointError
from repro.core.index import IndexConfig
from repro.service.loadgen import CRASH_CYCLE
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.textindex import TextDocumentIndex

# Letters-only names: the tokenizer splits tokens at digit boundaries.
WORDS = ["w" + chr(ord("a") + i) for i in range(15)]

QUERIES = (
    [w for w in WORDS]
    + [
        "wa AND wb",
        "wa OR wc OR we",
        "(wb AND wc) OR wd",
        "NOT wa",
        "wb AND NOT wc",
    ]
)

doc_strategy = st.lists(
    st.integers(min_value=0, max_value=len(WORDS) - 1),
    min_size=1,
    max_size=8,
)

#: The crash points a flush passes (the others are on the publish path).
FLUSH_CRASHES = [point for point in CRASH_CYCLE if point.startswith("index.")]

cycle_strategy = st.fixed_dictionaries(
    {
        "docs": st.lists(doc_strategy, min_size=1, max_size=5),
        "delete": st.booleans(),
        "crash": st.booleans(),
        "flush_crash": st.one_of(st.none(), st.sampled_from(FLUSH_CRASHES)),
        "sweep": st.booleans(),
        "grow": st.sampled_from((False, False, False, True)),
    }
)


def plain_cycle(docs, flush_crash=None):
    return dict(
        docs=docs,
        delete=False,
        crash=False,
        flush_crash=flush_crash,
        sweep=False,
        grow=False,
    )


def make_writer(crash_safe):
    return TextDocumentIndex(
        IndexConfig(
            nbuckets=4,
            bucket_size=32,
            block_postings=4,
            ndisks=2,
            nblocks_override=200_000,
            crash_safe=crash_safe,
        )
    )


def answers(index):
    return {q: index.search_boolean(q) for q in QUERIES}


def saved(index):
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    crash_safe=st.booleans(),
    cycles=st.lists(cycle_strategy, min_size=1, max_size=6),
)
# A replay after a rollback extends the payloads the last snapshot shares.
@example(
    crash_safe=True,
    cycles=[
        plain_cycle([[0, 1, 2], [0, 4]]),
        plain_cycle([[0, 1, 2]], flush_crash="index.before-release"),
    ],
)
# Six batches of one hot word: the queries read its long list, which
# must leave the saved bytes of a snapshot as they were.
@example(
    crash_safe=False,
    cycles=[
        plain_cycle(docs)
        for docs in (
            [[0]],
            [[0], [0], [0], [0, 5]],
            [[0], [0, 3], [0, 4]],
            [[0], [0], [0, 1], [0, 1]],
            [[0], [0], [0], [0, 1], [0, 6]],
            [[0], [0, 1], [0, 1], [0, 1], [0, 1, 2, 7, 8]],
        )
    ],
)
def test_cow_chain_matches_full_clone_oracle(crash_safe, cycles):
    writer = make_writer(crash_safe)
    prev = writer.clone()
    writer.index.delta.clear()
    history = []  # (snapshot, expected answers, saved bytes) per generation

    for cycle in cycles:
        if cycle["sweep"]:
            writer.sweep_deletions()
        if cycle["grow"]:
            writer.index.grow_bucket_space()
        for doc in cycle["docs"]:
            writer.add_document(" ".join(WORDS[w] for w in doc))
        if cycle["delete"] and writer.ndocs:
            writer.delete_document((writer.ndocs - 1) // 2)
        point = cycle["flush_crash"] if crash_safe else None
        if point is None:
            writer.flush_batch()
        else:
            with faults.injected(FaultPlan(crash_at=point, crash_at_hit=1)):
                with pytest.raises(InjectedCrash):
                    writer.flush_batch()
            writer.recover(replay=True)
        delta = writer.index.delta

        if cycle["crash"] and not delta.requires_full:
            # A crash at the publish barrier must leave nothing half
            # published: the retry below starts from the same delta.
            faults.install(
                FaultPlan(crash_at="checkpoint.cow-publish", crash_at_hit=1)
            )
            try:
                with pytest.raises(InjectedCrash):
                    writer.clone_incremental(prev, delta)
            finally:
                faults.uninstall()

        try:
            snapshot = writer.clone_incremental(prev, delta)
        except CheckpointError:
            snapshot = writer.clone()  # growth or recovery: requires_full
        oracle = writer.clone()

        expected = answers(oracle)
        got = answers(snapshot)
        for q in QUERIES:
            assert got[q].doc_ids == expected[q].doc_ids, q
            assert got[q].read_ops == expected[q].read_ops, q
        want = saved(oracle)
        assert saved(snapshot) == want

        history.append((snapshot, expected, want))
        prev = snapshot
        delta.clear()

    # Older generations are immutable: later flushes and publishes must
    # not have leaked into any previously published snapshot.
    for snapshot, expected, want in history:
        for q in QUERIES:
            again = snapshot.search_boolean(q)
            assert again.doc_ids == expected[q].doc_ids, q
            assert again.read_ops == expected[q].read_ops, q
        assert saved(snapshot) == want
