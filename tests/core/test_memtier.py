"""Unit tests for the immediate-access memory tier (DESIGN.md §14).

The tier is the writer's own pending batch read under a watermark, so
every test here drives a real writer through the
:class:`~repro.service.runtime.ShardRuntime` both hosts use.
"""

import random
import sys
import threading

import pytest

from repro.core.index import IndexConfig
from repro.core.memtier import MemTier
from repro.core.sharded import ShardedTextIndex
from repro.query import twotier
from repro.query.reference import BruteForceIndex
from repro.service.runtime import ShardRuntime
from repro.service.server import QueryService, ServiceStats
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.textindex import TextDocumentIndex


def config() -> IndexConfig:
    return IndexConfig(
        nbuckets=4,
        bucket_size=16,
        block_postings=8,
        ndisks=2,
        nblocks_override=100_000,
        store_contents=True,
        crash_safe=True,
    )


def tier(writer=None) -> ShardRuntime:
    """A runtime over a real writer with the tier attached, as both
    hosts build it."""
    writer = writer or TextDocumentIndex(config())
    runtime = ShardRuntime(
        writer,
        ServiceStats(),
        publish_mode="cow",
        check_invariants=False,
        buffer_cache_blocks=0,
    )
    runtime.memtier = MemTier(writer, runtime.published)
    return runtime


def flush(runtime: ShardRuntime) -> None:
    runtime.flush()
    runtime.publish()


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


class TestMemTier:
    def test_watermark_slices_out_unpublished_tail(self):
        runtime = tier()
        runtime.add_document("wa wb")
        runtime.add_document("wa")
        # The writer holds doc 2 whole; the watermark has not moved yet.
        runtime.writer.add_document("wa wc")
        view = runtime.memtier.view()
        assert view.postings("wa") == [0, 1]
        assert view.postings("wc") == []
        assert view.postings("missing") == []
        runtime.memtier.advance(2)
        assert runtime.memtier.view().postings("wa") == [0, 1, 2]
        assert view.postings("wa") == [0, 1]

    def test_add_is_immediately_visible(self):
        runtime = tier()
        runtime.add_document("Alpha beta alpha")
        view = runtime.memtier.view()
        assert view.postings("alpha") == [0]  # lowercased, deduped
        assert view.postings("beta") == [0]
        assert view.ndocs == 1
        assert view.buffered_docs == 1

    def test_doc_ids_must_ascend_past_the_watermark(self):
        runtime = tier()
        runtime.add_document("wa", doc_id=5)
        epoch = runtime.memtier.epoch
        with pytest.raises(ValueError):
            runtime.add_document("wb", doc_id=5)
        with pytest.raises(ValueError):
            runtime.add_document("wb", doc_id=4)
        view = runtime.memtier.view()
        assert (view.visible, view.epoch) == (5, epoch)
        assert view.postings("wb") == []

    def test_tombstones_ride_the_view_unfiltered(self):
        runtime = tier()
        runtime.add_document("wa")
        runtime.delete_document(0)
        view = runtime.memtier.view()
        # The merge layer filters; the tier just records.
        assert view.postings("wa") == [0]
        assert view.tombstones == frozenset({0})

    def test_old_views_survive_later_mutations(self):
        runtime = tier()
        runtime.add_document("wa")
        old = runtime.memtier.view()
        runtime.add_document("wa")
        runtime.add_document("wa")
        runtime.delete_document(0)
        assert old.postings("wa") == [0]
        assert old.tombstones == frozenset()
        assert runtime.memtier.view().postings("wa") == [0, 1, 2]
        flush(runtime)
        runtime.add_document("wa wb")
        assert old.postings("wa") == [0]
        assert old.postings("wb") == []
        assert twotier.fetch_postings(old, "wa") == ([0], 0)

    def test_rebase_drops_covered_and_keeps_the_rest(self):
        runtime = tier()
        for _ in range(4):
            runtime.add_document("wa")
        runtime.delete_document(1)
        runtime.delete_document(3)
        flush(runtime)
        # The publish covered the whole batch and both deletions.
        view = runtime.memtier.view()
        assert view.postings("wa") == []
        assert view.tombstones == frozenset()
        assert view.base_ndocs == 4
        assert view.is_empty()
        assert runtime.memtier.stats()["rebases"] == 1
        assert runtime.memtier.stats()["buffered_postings"] == 0
        # What the writer buffers after the boundary is the tier.
        runtime.add_document("wa")
        runtime.delete_document(4)
        view = runtime.memtier.view()
        assert view.postings("wa") == [4]
        assert view.tombstones == frozenset({4})
        assert view.ndocs == 5
        assert twotier.fetch_postings(view, "wa") == ([0, 2], 1)

    def test_rebase_preserves_old_view_contents(self):
        runtime = tier()
        runtime.add_document("wa")
        runtime.add_document("wb")
        old = runtime.memtier.view()
        flush(runtime)
        # The old view still answers from the retired batch.
        assert old.postings("wa") == [0]
        assert old.postings("wb") == [1]
        new = runtime.memtier.view()
        for word in ("wa", "wb"):
            assert twotier.fetch_postings(old, word)[0] == (
                twotier.fetch_postings(new, word)[0]
            )

    def test_view_ndocs_tracks_the_merged_universe(self):
        runtime = tier()
        for _ in range(10):
            runtime.add_document("wa")
        flush(runtime)
        assert runtime.memtier.view().ndocs == 10
        assert runtime.memtier.view().is_empty()
        runtime.add_document("wa", doc_id=12)  # sparse ids (sharded ingest)
        view = runtime.memtier.view()
        assert view.ndocs == 13
        assert view.buffered_docs == 3

    def test_sharded_writer_merges_its_volumes(self):
        runtime = tier(ShardedTextIndex(config(), shards=3))
        for _ in range(9):
            runtime.add_document("wa")
        view = runtime.memtier.view()
        assert len(view.batch) == 3
        assert view.postings("wa") == list(range(9))
        flush(runtime)
        runtime.add_document("wa wb")
        assert runtime.memtier.view().postings("wa") == [9]
        assert view.postings("wa") == list(range(9))

    def test_a_write_waits_for_the_publish_of_a_flushed_batch(
        self, no_flush_retries
    ):
        """A flushed batch whose publish failed is retired from the
        writer but not yet in any base: the tier still reads it, and a
        write it could not show is refused until the publish lands."""
        runtime = tier()
        runtime.add_document("wa")
        runtime.flush()
        with faults.injected(FaultPlan(crash_at="checkpoint.cow-publish")):
            with pytest.raises(InjectedCrash):
                runtime.publish()
        with pytest.raises(RuntimeError, match="failed flush"):
            runtime.add_document("wa")
        assert runtime.memtier.view().postings("wa") == [0]
        runtime.publish()
        runtime.add_document("wa")
        view = runtime.memtier.view()
        assert twotier.fetch_postings(view, "wa")[0] == [0, 1]

    def test_concurrent_readers_never_see_torn_state(self):
        """Readers hammer view() while the writer ingests and publishes;
        every captured answer over both tiers must be a prefix of the
        ingest stream holding every document added before the capture —
        the flush and rebase included."""
        runtime = tier()
        ndocs = 300
        added = [0]
        errors: list[str] = []
        stop = threading.Event()

        def read_loop():
            while not stop.is_set():
                floor = added[0]
                docs, _ = twotier.fetch_postings(
                    runtime.memtier.view(), "wa"
                )
                if docs != list(range(len(docs))) or len(docs) < floor:
                    errors.append(f"torn answer {docs!r} below {floor}")
                    return

        readers = [threading.Thread(target=read_loop) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for doc_id in range(ndocs):
                runtime.add_document(f"wa w{chr(97 + doc_id % 7)}")
                added[0] = doc_id + 1
                if doc_id % 50 == 49:
                    flush(runtime)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in readers:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in readers)
        assert not errors, errors[:3]
        view = runtime.memtier.view()
        assert twotier.fetch_postings(view, "wa")[0] == list(range(ndocs))


# -- the one new invariant: a view held across the flush ---------------------

WORDS = ["w" + c for c in "abcdefghij"]
BOOLEAN = ["wa AND wb", "wc OR wd", "wa AND NOT we", "NOT wf"]
STREAMED = ["wa AND wb AND wc", "wd OR we", "wj"]
VECTOR = [{"wa": 1.0, "wb": 2.0}, {"wj": 3.0, "wc": 1.0}]


def _texts(seed: int) -> list[str]:
    rng = random.Random(seed)
    return [
        " ".join(rng.choice(WORDS) for _ in range(rng.randint(3, 24)))
        for _ in range(20)
    ]


def _assert_like_oracle(view, oracle) -> None:
    base = view.base
    for query in BOOLEAN:
        answer = twotier.search_boolean(view, query)
        assert answer.doc_ids == oracle.search_boolean(query), query
        assert answer.read_ops == base.search_boolean(query).read_ops
    for query in STREAMED:
        answer = twotier.search_streamed(view, query)
        assert answer.doc_ids == oracle.search_streamed(query), query
        assert answer.read_ops == base.search_streamed(query).read_ops
    for weights in VECTOR:
        ranked, read_ops = twotier.search_vector_counted(view, weights)
        want = oracle.search_vector(weights)
        assert [(d.doc_id, d.score) for d in ranked] == [
            (d.doc_id, d.score) for d in want
        ], weights
        assert read_ops == base.search_vector_counted(weights)[1]


@pytest.mark.parametrize(
    "point",
    [None, "index.before-word-append", "index.before-recovery-point"],
)
def test_a_view_held_between_retirement_and_rebase_answers_exactly(point):
    """Between the flush retiring the batch and the rebase — on a clean
    flush, and at a crash and after its rollback and replay — an
    immediate view answers like the oracle in every mode and charges the
    snapshot tier's read ops, then and after the writer moves on."""
    service = QueryService(config(), cache_capacity=0, read_tier="immediate")
    oracle = BruteForceIndex()

    def ingest(texts):
        for text in texts:
            oracle.add_document(service.add_document(text), text.split())

    ingest(_texts(1))
    service.flush_and_publish()
    ingest(_texts(2))
    for victim in (3, 25):
        service.delete_document(victim)
        oracle.delete_document(victim)

    held = []
    install = service._install

    def hold(index, cow, delta):
        assert len(service.writer_index.index.memory) == 0  # retired
        held.append(service.memtier.view())
        return install(index, cow, delta)

    class ViewAtCrash(FaultPlan):
        def _crash(self, what):
            held.append(service.memtier.view())
            super()._crash(what)

    service._install = hold
    if point is None:
        service.flush_and_publish()
    else:
        with faults.injected(ViewAtCrash(crash_at=point)):
            service.flush_and_publish()
        assert service.stats.flush_recoveries == 1
    del service._install
    assert len(held) == (1 if point is None else 2)
    frozen = oracle.freeze()
    for view in held:
        assert view.base_ndocs == 20 and view.buffered_docs == 20
        _assert_like_oracle(view, frozen)
    ingest(_texts(3))
    service.flush_and_publish()
    for view in held:
        _assert_like_oracle(view, frozen)
    _assert_like_oracle(service.memtier.view(), oracle)
