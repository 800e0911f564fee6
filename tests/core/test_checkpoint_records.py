"""Restore equivalence of base + redo-record chains (DESIGN.md §19).

A shard worker answers a checkpoint with a redo record — the post-image
of what the batches since its last answer dirtied — when the caller
names that answer's token, and with a full base otherwise.  The battery
drives an in-process :class:`ShardWorker` through random sequences of
adds, deletes, flushes, deletion sweeps, bucket growth, long-list
migrations (small buckets overflow) and crashes recovered on a
``crash_safe`` volume, on both read tiers, and plays the gateway's part
by hand: after every checkpoint it adopts the answer and asserts that
``save(restore(base, chain))`` is the writer's own ``save``, byte for
byte.  It also pins the token rule (a stale or discarded token, growth
or recovery yields a base), that a record encodes exactly the dirty
words' short lists — O(batch) without a clock — and that a truncated
record raises :class:`CheckpointError`.  The short-list entries a worker
keeps across its checkpoints change no byte of any answer, and spare
every encoding but that of the postings appended since.
"""

from __future__ import annotations

import io
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.delta import DeltaJournal
from repro.core.index import IndexConfig
from repro.core.policy import Alloc, Limit, Policy, Style
from repro.service.worker import ShardWorker, WorkerSpec
from repro.storage import faults
from repro.storage.faults import FaultPlan
from repro.textindex import TextDocumentIndex

POLICIES = [
    Policy(style=Style.NEW, limit=Limit.Z),
    Policy(style=Style.FILL, limit=Limit.Z, extent_blocks=2),
    Policy(style=Style.WHOLE, limit=Limit.Z, alloc=Alloc.PROPORTIONAL, k=1.2),
]

CRASH_POINTS = [
    "index.flush-begin",
    "index.before-word-append",
    "index.before-shadow-flush",
    "index.before-release",
    "index.before-clear",
]

WORDS = [f"w{i}" for i in range(40)]


def config(policy: Policy, crash_safe: bool) -> IndexConfig:
    return IndexConfig(
        nbuckets=4,
        bucket_size=24,
        block_postings=4,
        ndisks=2,
        nblocks_override=20_000,
        policy=policy,
        grow_buckets=True,
        crash_safe=crash_safe,
    )


def save(index: TextDocumentIndex) -> bytes:
    buf = io.BytesIO()
    index.save(buf)
    return buf.getvalue()


class Gateway:
    """The gateway's half of the protocol: base, chain and token."""

    def __init__(self, worker: ShardWorker) -> None:
        self.worker = worker
        self.base: bytes | None = None
        self.chain: list[bytes] = []
        self.token: int | None = None

    def checkpoint(self, since):
        reply = self.worker.checkpoint(since)
        if reply.record:
            self.chain.append(reply.blob)
        else:
            self.base, self.chain = reply.blob, []
        self.token = reply.token
        return reply

    def restored(self) -> bytes:
        return save(TextDocumentIndex.restore(self.base, self.chain))


def dirty_short_lists(worker: ShardWorker) -> list:
    """The short lists a record cut now must carry, and nothing else."""
    words = worker._since.dirty_words | worker.writer.delta.dirty_words
    buckets = worker.writer.index.buckets
    return [
        payload
        for payload in (buckets.get(word) for word in words)
        if payload is not None
    ]


ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("add"),
            st.lists(st.sampled_from(WORDS), min_size=1, max_size=8),
        ),
        st.tuples(st.just("delete"), st.integers(0, 200)),
        st.tuples(st.just("flush"), st.just(None)),
        st.tuples(st.just("sweep"), st.just(None)),
        st.tuples(st.just("grow"), st.just(None)),
        st.tuples(st.just("crash"), st.sampled_from(CRASH_POINTS)),
        st.tuples(st.just("discard"), st.just(None)),
        st.tuples(st.just("checkpoint"), st.just(None)),
    ),
    min_size=4,
    max_size=40,
)


@pytest.mark.parametrize("read_tier", ["snapshot", "immediate"])
@pytest.mark.parametrize("crash_safe", [False, True])
@settings(
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(policy=st.sampled_from(POLICIES), script=ops)
def test_restore_is_byte_identical_at_every_checkpoint(
    read_tier, crash_safe, policy, script
):
    worker = ShardWorker(
        WorkerSpec(
            shard_id=0,
            index_config=config(policy, crash_safe),
            read_tier=read_tier,
        )
    )
    gateway = Gateway(worker)
    written = []
    real_list_entries = checkpoint._list_entries

    def counting_list_entries(seen, encoded, lists, words):
        written.extend(lists[word] for word in words)
        return real_list_entries(seen, encoded, lists, words)

    with mock.patch.object(
        checkpoint, "_list_entries", counting_list_entries
    ):
        _run(worker, gateway, script, crash_safe, written)


def _run(worker, gateway, script, crash_safe, written) -> None:
    writer = worker.writer
    # Growth or a recovery since the last adopted answer voids a chain.
    tainted = False
    for op, arg in script:
        if op == "add":
            worker.add_document(" ".join(arg))
        elif op == "delete":
            if writer.ndocs:
                worker.delete_document(arg % writer.ndocs)
        elif op == "sweep":
            writer.sweep_deletions()
        elif op == "grow":
            worker.flush(grow=True)
            tainted = True
        elif op == "crash":
            if not crash_safe:
                continue
            recoveries = worker.stats.flush_recoveries
            with faults.injected(FaultPlan(crash_at=arg)):
                worker.flush()
            tainted |= worker.stats.flush_recoveries > recoveries
        elif op == "discard":
            # The gateway drops this answer (a sibling died during the
            # RPC): the next round names a token the worker no longer
            # holds, so it must answer a base.
            worker.flush()
            worker.checkpoint(gateway.token)
            reply = gateway.checkpoint(gateway.token)
            assert not reply.record
            assert gateway.restored() == save(writer)
            tainted = False
            continue
        if op not in ("flush", "grow", "crash", "checkpoint"):
            continue
        if op != "checkpoint":
            worker.flush()
        elif len(writer.index.memory):
            continue  # a checkpoint is taken at a batch boundary
        expected_record = gateway.token is not None and not tainted
        expected_payloads = dirty_short_lists(worker)
        written.clear()
        reply = gateway.checkpoint(gateway.token)
        assert reply.record is expected_record, (op, tainted)
        if reply.record:
            assert sorted(map(id, written)) == sorted(
                map(id, expected_payloads)
            )
        assert gateway.restored() == save(writer)
        tainted = False


def _worker_with_chain(crash_safe: bool = False):
    worker = ShardWorker(
        WorkerSpec(
            shard_id=0,
            index_config=config(POLICIES[0], crash_safe),
        )
    )
    gateway = Gateway(worker)
    for day in range(6):
        for k in range(5):
            worker.add_document(" ".join(WORDS[: 3 + (day + k) % 11]))
        if day == 3:
            worker.delete_document(2)
        worker.flush()
        gateway.checkpoint(gateway.token)
    assert len(gateway.chain) == 5
    return worker, gateway


class TestTokenRule:
    def test_a_fresh_process_and_a_foreign_token_answer_bases(self):
        worker, gateway = _worker_with_chain()
        assert not worker.checkpoint(None).record
        assert not worker.checkpoint(gateway.token).record  # not its last
        restored = ShardWorker(
            WorkerSpec(
                shard_id=0,
                index_config=config(POLICIES[0], False),
                restore=(gateway.base, *gateway.chain),
            )
        )
        assert not restored.checkpoint(gateway.token).record

    def test_growth_answers_a_base(self):
        worker, gateway = _worker_with_chain()
        worker.flush(grow=True)
        assert not gateway.checkpoint(gateway.token).record
        assert gateway.restored() == save(worker.writer)

    def test_recovery_answers_a_base(self):
        worker, gateway = _worker_with_chain(crash_safe=True)
        worker.add_document("w1 w2 w3")
        with faults.injected(FaultPlan(crash_at="index.before-release")):
            worker.flush()
        assert worker.stats.flush_recoveries == 1
        assert not gateway.checkpoint(gateway.token).record
        assert gateway.restored() == save(worker.writer)

    def test_every_answer_carries_a_fresh_token(self):
        worker, gateway = _worker_with_chain()
        tokens = {worker.checkpoint(None).token for _ in range(20)}
        assert len(tokens) == 20

    def test_unpublished_mutations_ride_the_record(self):
        """A deletion after the last flush is in the record even though
        no publish has folded it into the since-checkpoint journal."""
        worker, gateway = _worker_with_chain()
        worker.delete_document(7)
        reply = gateway.checkpoint(gateway.token)
        assert reply.record
        assert 7 in TextDocumentIndex.restore(
            gateway.base, gateway.chain
        ).deletions.deleted
        assert gateway.restored() == save(worker.writer)


class TestOrder:
    def test_a_swept_bucket_word_is_restored_at_the_end(self):
        """A sweep removes a short list and puts it back: the word moves
        to the end of its bucket, ahead of words the record never names
        — the tail of the record's delta, re-appended in order."""
        worker = ShardWorker(
            WorkerSpec(
                shard_id=0,
                index_config=IndexConfig(
                    nbuckets=1, bucket_size=1000
                ),
            )
        )
        gateway = Gateway(worker)
        worker.add_document("alpha beta gamma")
        worker.add_document("alpha delta")
        worker.flush()
        gateway.checkpoint(None)
        lists = worker.writer.index.buckets.buckets[0].lists
        first = next(iter(lists))
        worker.delete_document(0)
        worker.writer.sweep_deletions()
        worker.flush()
        assert next(reversed(lists)) == first  # moved to the end
        reply = gateway.checkpoint(gateway.token)
        assert reply.record
        assert gateway.restored() == save(worker.writer)


class TestRecordFormat:
    def test_every_truncation_raises_checkpoint_error(self):
        _, gateway = _worker_with_chain()
        record = gateway.chain[-1]
        for cut in range(len(record)):
            with pytest.raises(CheckpointError):
                TextDocumentIndex.restore(
                    gateway.base, [*gateway.chain[:-1], record[:cut]]
                )

    def test_a_record_applies_only_where_it_was_cut(self):
        _, gateway = _worker_with_chain()
        with pytest.raises(CheckpointError, match="does not chain"):
            TextDocumentIndex.restore(gateway.base, gateway.chain[1:])
        with pytest.raises(CheckpointError, match="not a text-index"):
            TextDocumentIndex.restore(gateway.base, [gateway.base])

    def test_a_record_is_o_batch_not_o_index(self):
        """One small batch after many: the record is a fraction of the
        base, and the same size whatever came before it."""
        worker, gateway = _worker_with_chain()
        for day in range(30):
            for k in range(6):
                worker.add_document(f"d{day}x{k} " + " ".join(WORDS[:6]))
            worker.flush()
            gateway.checkpoint(None)
        worker.add_document("w0 w1")
        worker.flush()
        reply = gateway.checkpoint(gateway.token)
        assert reply.record
        assert len(reply.blob) * 4 < len(gateway.base)
        assert gateway.restored() == save(worker.writer)


def cold_answer(worker: ShardWorker, since) -> bytes:
    """What ``worker.checkpoint(since)`` answers, written with no kept
    short-list entries: every list encoded from its first id."""
    dirty = DeltaJournal()
    dirty.absorb(worker._since)
    dirty.absorb(worker.writer.delta)
    buf = io.BytesIO()
    if since is not None and since == worker._token and not dirty.requires_full:
        worker.writer.save_record(buf, dirty, worker._mark, {})
    else:
        worker.writer.save_base(buf, {})
    return buf.getvalue()


adds = st.tuples(
    st.just("add"), st.lists(st.sampled_from(WORDS), min_size=1, max_size=8)
)
memo_ops = st.lists(
    st.one_of(
        adds,
        adds,
        st.tuples(st.just("delete"), st.integers(0, 200)),
        st.tuples(st.just("delete and sweep"), st.integers(0, 200)),
        st.tuples(st.just("flush"), st.just(None)),
        st.tuples(st.just("grow"), st.just(None)),
        st.tuples(st.just("crash"), st.sampled_from(CRASH_POINTS)),
        st.tuples(st.just("respawn"), st.just(None)),
        st.tuples(st.just("checkpoint"), st.sampled_from(["chain", "base"])),
    ),
    min_size=4,
    max_size=40,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    read_tier=st.sampled_from(["snapshot", "immediate"]),
    policy=st.sampled_from(POLICIES),
    script=memo_ops,
)
def test_kept_entries_write_what_cleared_ones_write(read_tier, policy, script):
    """Appends, deletions and sweeps, evictions (small buckets), growth,
    recovered crashes and a respawn from the restore point: every base
    and record a worker answers with its kept entries is the one it
    writes with none."""
    spec = WorkerSpec(
        shard_id=0, index_config=config(policy, True), read_tier=read_tier
    )
    worker = ShardWorker(spec)
    gateway = Gateway(worker)
    for op, arg in script:
        if op == "add":
            worker.add_document(" ".join(arg))
        elif op.startswith("delete"):
            if worker.writer.ndocs:
                worker.delete_document(arg % worker.writer.ndocs)
            if op == "delete and sweep":
                worker.writer.sweep_deletions()
        elif op == "flush":
            worker.flush()
        elif op == "grow":
            worker.flush(grow=True)
        elif op == "crash":
            # Crash safety is the host's: a respawned writer has none.
            if worker.writer.crash_safe:
                with faults.injected(FaultPlan(crash_at=arg)):
                    worker.flush()
        elif op == "respawn":
            if gateway.base is not None:
                worker = gateway.worker = ShardWorker(
                    replace(spec, restore=(gateway.base, *gateway.chain))
                )
        else:
            worker.flush()
            since = gateway.token if arg == "chain" else None
            want = cold_answer(worker, since)
            assert gateway.checkpoint(since).blob == want
            assert gateway.restored() == save(worker.writer)


class TestKeptEntries:
    def test_only_appended_postings_are_encoded(self):
        """A second base with no write in between encodes no short list;
        a record encodes each dirty list's postings appended since, and
        a new word's list whole."""
        worker = ShardWorker(
            WorkerSpec(
                shard_id=0,
                index_config=IndexConfig(
                    nbuckets=4, bucket_size=1000
                ),
            )
        )
        words = "alpha beta gamma delta epsilon zeta eta theta iota".split()
        for k in range(6):
            worker.add_document(" ".join(words[: 4 + k]))
        worker.flush()
        gateway = Gateway(worker)
        gateway.checkpoint(None)
        calls = []
        real_encode_gaps = checkpoint.encode_gaps
        real_encode_doc_ids = checkpoint.encode_doc_ids

        def encode_gaps(last, ids):
            calls.append((last, list(ids)))
            return real_encode_gaps(last, ids)

        def encode_doc_ids(ids):
            ids = list(ids)
            calls.append(("doc ids", ids))
            return real_encode_doc_ids(ids)

        with mock.patch.multiple(
            checkpoint, encode_gaps=encode_gaps, encode_doc_ids=encode_doc_ids
        ):
            assert not gateway.checkpoint(None).record
            assert calls == []

            writer = worker.writer
            word = writer.vocabulary.lookup
            lists = writer.index.buckets
            last = {w: lists.get(word(w)).doc_ids[-1] for w in words[:2]}
            a = worker.add_document("alpha beta fresh")
            b = worker.add_document("beta")
            worker.flush()
            assert gateway.checkpoint(gateway.token).record
        gaps = sorted(call for call in calls if call[0] != "doc ids")
        assert gaps == sorted(
            [(last["alpha"], [a]), (last["beta"], [a, b]), (-1, [a])]
        )
        assert gateway.restored() == save(worker.writer)

    def test_a_swept_list_that_regrows_is_encoded_again(self):
        """A sweep takes an id out of the middle of a kept list and an
        add brings it back to its kept length: the last id no longer
        matches, so the list is encoded whole."""
        worker = ShardWorker(
            WorkerSpec(
                shard_id=0,
                index_config=IndexConfig(
                    nbuckets=1, bucket_size=1000
                ),
            )
        )
        for _ in range(3):
            worker.add_document("alpha")
        worker.flush()
        gateway = Gateway(worker)
        gateway.checkpoint(None)
        worker.delete_document(0)
        worker.writer.sweep_deletions()
        worker.add_document("alpha")
        worker.flush()
        want = cold_answer(worker, gateway.token)
        reply = gateway.checkpoint(gateway.token)
        assert reply.record
        assert reply.blob == want
        assert gateway.restored() == save(worker.writer)
