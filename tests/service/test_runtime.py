"""One shard state machine, two hosts: the same documents and the same
fault plan through a :class:`QueryService` and through a
:class:`ShardWorker` must end in the same published state *and* the same
recovery ledger — both drive :class:`~repro.service.runtime.ShardRuntime`.

Before the runtime existed the two carried their own copies of flush →
recover → publish, and the copies had diverged: a crash injected at
``checkpoint.cow-publish`` was retried by the service but escaped the
worker's ``flush()`` with the writer flushed and the old snapshot still
published.  The differentials never saw it because they compare answers
on paths where the fault does not fire in the worker's publish.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import signal

import pytest

from repro.core.index import IndexConfig
from repro.service.gateway import AsyncShardGateway
from repro.service.loadgen import CRASH_CYCLE
from repro.service.runtime import RuntimeStats
from repro.service.server import QueryService, ServiceError
from repro.service.worker import ShardWorker, WorkerSpec
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash, TransientIOError
from repro.textindex import TextDocumentIndex

# A hot workload: ten words, long documents, four small buckets — lists
# overflow into long-list chunks within a batch, so every crash point is
# on the path and the disks see enough traffic for transient faults.
_rng = random.Random(1994)
WORDS = ["w" + c for c in "abcdefghij"]
FIRST, SECOND = (
    [" ".join(_rng.choice(WORDS) for _ in range(24)) for _ in range(20)]
    for _ in range(2)
)
QUERIES = ["wa AND wb", "wc OR wd", "NOT we"]

#: What the runtime counts on whichever stats object its host hands it.
LEDGER = [f.name for f in dataclasses.fields(RuntimeStats)]


def config(fault_plan: FaultPlan | None = None) -> IndexConfig:
    return IndexConfig(
        nbuckets=4,
        bucket_size=16,
        block_postings=8,
        ndisks=2,
        nblocks_override=100_000,
        crash_safe=True,
        fault_plan=fault_plan,
    )


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


class ServiceHost:
    def __init__(self, disk_plan: FaultPlan | None):
        self.service = QueryService(config(disk_plan))
        self.add = self.service.add_document
        self.delete = self.service.delete_document
        self.flush = self.service.flush_and_publish
        self.grow = self.service.writer_index.index.grow_bucket_space

    def postings(self, word: str) -> list[int]:
        return self.service.snapshot().fetch_postings(word)[0]

    def boolean(self, query: str) -> list[int]:
        return self.service.search_boolean(query).doc_ids

    def ledger(self) -> dict:
        return dataclasses.asdict(self.service.stats)


class WorkerHost:
    def __init__(self, disk_plan: FaultPlan | None):
        self.worker = ShardWorker(
            WorkerSpec(shard_id=0, index_config=config(disk_plan))
        )
        self.writer = self.worker.writer
        self.add = self.worker.add_document
        self.delete = self.worker.delete_document
        self.flush = self.worker.flush
        self.grow = self.writer.index.grow_bucket_space

    def postings(self, word: str) -> list[int]:
        return self.worker.runtime.published.fetch_postings(word)[0]

    def boolean(self, query: str) -> list[int]:
        ndocs = self.writer.ndocs
        dead = self.writer.deletions.deleted
        docs, _ = self.worker.eval_boolean(query, ndocs)
        return [d for d in docs if d not in dead]  # the gateway's filter

    def ledger(self) -> dict:
        return dataclasses.asdict(self.worker.stats)


def unfaulted_twin() -> TextDocumentIndex:
    twin = TextDocumentIndex(config())
    for text in FIRST:
        twin.add_document(text)
    twin.flush_batch()
    for text in SECOND:
        twin.add_document(text)
    twin.delete_document(1)
    twin.flush_batch()
    return twin


def drive(
    host,
    crash_plan: FaultPlan | None,
    predecessor: str = "cow",
    grow: bool = False,
) -> None:
    """One batch (so a cow publish has a predecessor to share), then one
    batch flushed with the plan armed.  ``predecessor="clone"`` crashes
    the first batch's flush once, so its publish falls back to the full
    clone and the armed batch shares with that.  ``grow`` grows the
    buckets between the batches, which voids the journal's coverage: the
    armed batch's publish falls back to the full clone."""
    for text in FIRST:
        host.add(text)
    if predecessor == "clone":
        with faults.injected(FaultPlan(crash_at="index.flush-begin")):
            host.flush()
    else:
        host.flush()
    if grow:
        host.grow()
    for text in SECOND:
        host.add(text)
    host.delete(1)
    if crash_plan is not None:
        faults.install(crash_plan)
    try:
        host.flush()
    finally:
        faults.uninstall()


def assert_answers_like(host, twin: TextDocumentIndex, who: str) -> None:
    for word in WORDS:
        assert host.postings(word) == twin.fetch_postings(word)[0], (
            who,
            word,
        )
    for query in QUERIES:
        assert host.boolean(query) == twin.search_boolean(query).doc_ids, (
            who,
            query,
        )


def ledger_of(host) -> dict:
    ledger = host.ledger()
    return {name: ledger[name] for name in LEDGER}


class TransientAt(FaultPlan):
    """A plan whose named point raises a retryable I/O error instead of
    a crash.  (The disks' own ``transient_rate`` fires only in their
    timed ``service()`` path, which serving-side flushes do not take.)"""

    def _crash(self, what: str) -> None:
        self.fired = what
        raise TransientIOError(what)


@pytest.mark.parametrize("predecessor", ["cow", "clone"])
@pytest.mark.parametrize("plan_type", [FaultPlan, TransientAt])
@pytest.mark.parametrize("fault", CRASH_CYCLE)
def test_hosts_agree_under_every_fault(fault, plan_type, predecessor):
    twin = unfaulted_twin()
    ledgers = []
    for host_type in (ServiceHost, WorkerHost):
        plan = plan_type(crash_at=fault, crash_at_hit=1)
        host = host_type(None)
        # Only a full clone serializes, so that point is reached
        # through a fallback publish.
        grow = fault == "checkpoint.mid-save"
        drive(host, plan, predecessor, grow)  # returns, whatever fired
        assert plan.fired == f"crash point {fault} (hit 1)", (
            host_type.__name__
        )
        assert_answers_like(host, twin, host_type.__name__)
        ledgers.append(ledger_of(host))
    service, worker = ledgers
    assert service == worker
    assert service["cow_fallbacks"] >= (predecessor == "clone")


@pytest.mark.parametrize("predecessor", ["cow", "clone"])
def test_hosts_agree_with_a_transient_rate_plan_on_the_disks(predecessor):
    twin = unfaulted_twin()
    ledgers = []
    for host_type in (ServiceHost, WorkerHost):
        disk_plan = FaultPlan(seed=7, transient_rate=0.2)
        host = host_type(disk_plan)
        drive(host, None, predecessor)
        assert disk_plan.writes > 0, host_type.__name__
        assert_answers_like(host, twin, host_type.__name__)
        ledgers.append(ledger_of(host))
    service, worker = ledgers
    assert service == worker


def test_cow_publish_crash_is_retried_in_both_hosts():
    """The divergence the runtime closed, spelled out."""
    for host_type in (ServiceHost, WorkerHost):
        host = host_type(None)
        drive(host, FaultPlan(crash_at="checkpoint.cow-publish"))
        ledger = host.ledger()
        assert ledger["publish_retries"] == 1, host_type.__name__
        assert ledger["cow_publishes"] == 2, host_type.__name__
        assert 20 in host.postings("wa"), host_type.__name__


def test_fallback_events_tell_recovery_from_growth(events):
    """A publish the rollback forced and one bucket growth forced both
    fall back to the full clone, for different reasons: each publish
    event carries its volume's own cause."""
    for host_type in (ServiceHost, WorkerHost):
        events.clear()
        host = host_type(None)
        drive(host, FaultPlan(crash_at="index.flush-begin"))
        host.grow()
        host.add("wa wb")
        host.flush()
        causes = [f["causes"] for name, f in events if name == "publish"]
        assert len(causes) == 3, host_type.__name__
        assert causes[0] == [None], host_type.__name__
        assert causes[1][0].startswith("crash recovery"), causes
        assert causes[2][0].startswith("bucket growth"), causes


def test_exhausted_budget_keeps_each_hosts_error_type(no_flush_retries):
    service = QueryService(config())
    service.add_document("apple")
    with faults.injected(FaultPlan(crash_at="index.flush-begin")):
        with pytest.raises(ServiceError, match="flush failed 1 times"):
            service.flush_and_publish()
    worker = ShardWorker(WorkerSpec(shard_id=0, index_config=config()))
    worker.add_document("apple")
    with faults.injected(FaultPlan(crash_at="index.flush-begin")):
        with pytest.raises(InjectedCrash):
            worker.flush()


@pytest.mark.parametrize("read_tier", ["snapshot", "immediate"])
@pytest.mark.parametrize(
    "point", ["index.flush-begin", "index.before-recovery-point"]
)
@pytest.mark.parametrize("host", ["service", "worker"])
def test_exhausted_budget_resumes_at_the_next_flush(
    host, point, read_tier, no_flush_retries, events
):
    """An exhausted budget leaves the writer awaiting recovery.  The next
    flush rolls back and replays; until it has run a write is refused
    with the host's error type (a rollback would drop or renumber it),
    and the immediate tier keeps showing the failed batch.  The event
    trail names the wedge, the crash point that caused it, the rollback
    and the fallback publish that ends it."""
    if host == "service":
        service = QueryService(config(), read_tier=read_tier)
        add, delete = service.add_document, service.delete_document
        flush, stats = service.flush_and_publish, service.stats
        refused = ServiceError

        def published(word):
            return service.snapshot().fetch_postings(word)[0]

        def immediate(word):
            return service.search_streamed(word).doc_ids

    else:
        worker = ShardWorker(
            WorkerSpec(shard_id=0, index_config=config(), read_tier=read_tier)
        )
        add, delete = worker.add_document, worker.delete_document
        flush, stats = worker.flush, worker.stats
        refused = RuntimeError

        def published(word):
            return worker.runtime.published.fetch_postings(word)[0]

        def immediate(word):
            return worker.search_streamed(word)[0]

    add("apple")
    with faults.injected(FaultPlan(crash_at=point)):
        with pytest.raises((ServiceError, InjectedCrash)):
            flush()
    with pytest.raises(refused, match="failed flush"):
        add("banana")
    with pytest.raises(refused, match="failed flush"):
        delete(0)
    if read_tier == "immediate":
        assert immediate("apple") == [0]
    flush()
    assert published("apple") == [0]
    assert stats.flush_recoveries == 1
    assert add("banana") == 1
    flush()
    assert published("banana") == [1]
    assert [name for name, _ in events] == [
        "writes.refused",
        "flush.recovery",
        "undo.rollback",
        "flush",
        "publish",
        "writes.resumed",
        "flush",
        "publish",
    ]
    refusal, recovery = events[0][1], events[1][1]
    assert point in refusal["fault"]
    assert recovery["fault"] == refusal["fault"]
    assert events[4][1]["causes"][0].startswith("crash recovery")
    assert events[7][1]["mode"] == "cow"
    if host == "worker":
        assert all(
            fields["shard"] == 0
            for name, fields in events
            if name != "undo.rollback"
        )


def test_kill_on_crash_dies_at_the_first_crash():
    """The worker's hook fires before any recovery: no reply, the
    connection drops, and the process was SIGKILLed."""

    async def main():
        gateway = AsyncShardGateway(
            config(),
            shards=1,
            fault_plans={(0, 0): FaultPlan(crash_at="index.flush-begin")},
            kill_on_crash=True,
        )
        await gateway.start()
        try:
            replica = gateway._sets[0].replicas[0]
            await gateway._locked_rpc(
                replica, "add_document", ("apple banana", None)
            )
            with pytest.raises(AsyncShardGateway._DEATH):
                await gateway._locked_rpc(replica, "flush", (False,))
            process = replica.worker.process
            process.join(timeout=10.0)
            assert process.exitcode == -signal.SIGKILL
        finally:
            await gateway.close()

    asyncio.run(main())


def test_respawn_spec_keeps_every_other_field():
    """A failover respawn drops the restore blob, the fault plan and the
    kill switch — and nothing else, including fields added later."""
    dropped = {"restore": None, "fault_plan": None, "kill_on_crash": False}
    marks = {f.name: object() for f in dataclasses.fields(WorkerSpec)}
    respawn = WorkerSpec(**marks).respawn_spec()
    for name, mark in marks.items():
        if name in dropped:
            assert getattr(respawn, name) == dropped[name], name
        else:
            assert getattr(respawn, name) is mark, name
