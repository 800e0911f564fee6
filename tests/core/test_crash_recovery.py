"""Exhaustive crash-recovery sweep over every registered crash point.

The paper's restartability claim (§1, §3): shadow flushes plus the RELEASE
list mean an aborted incremental update can be restarted from the last
flush.  These tests kill the process (an :class:`InjectedCrash`) at every
named crash point on the update path, run :meth:`DualStructureIndex.recover`,
and require that

* :func:`check_index` reports zero invariant violations afterwards, and
* the recovered index answers a fixed query set identically to an index
  built cleanly from the completed batches (including the re-applied
  aborted batch when ``replay=True``).

The sweep enumerates ``registered_crash_points()`` rather than a hand-kept
list, so adding a new crash point automatically extends the test; the
final coverage assertion fails if any registered point never fired under
any policy — a crash point the sweep cannot reach is a hole in the
recovery story.
"""

import random

import pytest

from repro.core import checkpoint
from repro.core.index import DualStructureIndex, IndexConfig
from repro.core.invariants import check_index
from repro.core.policy import Limit, Policy, Style
from repro.storage import faults
from repro.storage.faults import FaultPlan, InjectedCrash
from repro.textindex import TextDocumentIndex

from .. import checkpoints

# A deliberately hot workload: a tiny vocabulary and long documents push
# every word through bucket overflow into the long-list machinery within a
# few batches, so even the WHOLE-only crash points (whole-list read,
# RELEASE-list freeing) are reachable.
VOCAB = 12
DOCS_PER_BATCH = 20
WORDS_PER_DOC = 30
NBATCHES = 10
QUERY_WORDS = tuple(range(VOCAB))

# One policy per Table-2 style; together they drive every crash point.
POLICIES = [
    ("new", Policy(style=Style.NEW, limit=Limit.Z)),
    ("whole", Policy(style=Style.WHOLE, limit=Limit.Z)),
    ("fill", Policy(style=Style.FILL, limit=Limit.Z)),
]


def synthetic_batches(nbatches=NBATCHES, seed=1994):
    rng = random.Random(seed)
    return [
        [
            [rng.randrange(VOCAB) for _ in range(WORDS_PER_DOC)]
            for _ in range(DOCS_PER_BATCH)
        ]
        for _ in range(nbatches)
    ]


BATCHES = synthetic_batches()


def make_index(policy, crash_safe=True):
    return DualStructureIndex(
        IndexConfig(
            policy=policy,
            nbuckets=4,
            bucket_size=16,
            crash_safe=crash_safe,
        )
    )


def answers(index):
    """The fixed query set: every vocabulary word's full posting list."""
    return {w: index.fetch(w)[0].doc_ids for w in QUERY_WORDS}


def clean_answers(policy):
    """Query answers after each batch of an uninterrupted run."""
    index = make_index(policy, crash_safe=False)
    per_batch = []
    for batch in BATCHES:
        for doc in batch:
            index.add_document(doc)
        index.flush_batch()
        per_batch.append(answers(index))
    return per_batch


@pytest.fixture(autouse=True)
def no_leaked_plan():
    """Every test must leave the global fault plan uninstalled."""
    yield
    faults.uninstall()


def crash_then_recover(policy, point, crash_at_hit=1):
    """Feed batches until ``point`` fires, then recover with replay.

    Returns ``(index, crashed_batch)``; ``crashed_batch`` is ``None`` when
    the point is unreachable under this policy (it lies on a code path the
    policy never takes).
    """
    index = make_index(policy)
    for batch_no, batch in enumerate(BATCHES):
        for doc in batch:
            index.add_document(doc)
        faults.install(FaultPlan(crash_at=point, crash_at_hit=crash_at_hit))
        try:
            index.flush_batch()
        except InjectedCrash:
            faults.uninstall()
            result = index.recover(replay=True)
            assert result is not None, "replay must re-flush the batch"
            return index, batch_no
        finally:
            faults.uninstall()
    return index, None


class TestExhaustiveSweep:
    @pytest.mark.parametrize(
        "pname,policy", POLICIES, ids=[p[0] for p in POLICIES]
    )
    def test_every_reachable_point_recovers(self, pname, policy):
        baselines = clean_answers(policy)
        fired = set()
        for point in faults.registered_crash_points():
            index, crashed_batch = crash_then_recover(policy, point)
            if crashed_batch is None:
                continue
            fired.add(point)
            report = check_index(index)
            assert report.ok, f"{pname}/{point}: {report}"
            assert answers(index) == baselines[crashed_batch], (
                f"{pname}/{point}: recovered index answers differ from a "
                f"clean build of batches 0..{crashed_batch}"
            )
        # Record per-policy coverage for the union assertion below.
        _FIRED_BY_POLICY[pname] = fired
        assert fired, f"no crash point fired under policy {pname}"

    def test_union_coverage_is_exhaustive(self, tmp_path):
        """Every registered crash point must fire under some policy.

        Runs after the per-policy sweeps (pytest executes the class in
        definition order); any policy result missing means the sweep above
        failed already.  Publication-path points — the incremental
        clone's and the checkpoint serializer's, which no flush runs —
        and the snapshot file's replace live outside ``flush_batch`` and
        are exercised here directly.
        """
        assert set(_FIRED_BY_POLICY) == {p[0] for p in POLICIES}
        union = set().union(*_FIRED_BY_POLICY.values())
        union |= _exercise_cow_publish_point()
        union |= _exercise_checkpoint_save_points()
        union |= _exercise_atomic_save_point(tmp_path)
        missing = set(faults.registered_crash_points()) - union
        assert not missing, (
            f"crash points never exercised by any policy: {sorted(missing)}"
        )


_FIRED_BY_POLICY: dict[str, set] = {}


def _exercise_cow_publish_point():
    """Fire ``checkpoint.cow-publish`` and prove the publish is safely
    retryable: nothing was published when the crash hit, so a second
    attempt from the same delta must succeed and answer identically to
    the full-clone oracle."""
    index = make_index(POLICIES[0][1], crash_safe=False)
    for doc in BATCHES[0]:
        index.add_document(doc)
    index.flush_batch()
    prev = checkpoints.clone(index)
    index.delta.clear()
    for doc in BATCHES[1]:
        index.add_document(doc)
    index.flush_batch()
    faults.install(
        FaultPlan(crash_at="checkpoint.cow-publish", crash_at_hit=1)
    )
    try:
        with pytest.raises(InjectedCrash):
            checkpoint.clone_incremental(index, prev, index.delta)
    finally:
        faults.uninstall()
    retried = checkpoint.clone_incremental(index, prev, index.delta)
    oracle = checkpoints.clone(index)
    assert {w: retried.fetch(w)[0].doc_ids for w in QUERY_WORDS} == {
        w: oracle.fetch(w)[0].doc_ids for w in QUERY_WORDS
    }
    return {"checkpoint.cow-publish"}


def _exercise_checkpoint_save_points():
    """Fire each serializer point inside ``checkpoints.clone(index)``: the
    writer is untouched, so a second clone succeeds and answers like it."""
    index = make_index(POLICIES[0][1])
    for batch in BATCHES[:2]:
        for doc in batch:
            index.add_document(doc)
        index.flush_batch()
    before = answers(index)
    points = {
        "checkpoint.begin-save",
        "checkpoint.mid-save",
        "checkpoint.end-save",
    }
    for point in sorted(points):
        with faults.injected(FaultPlan(crash_at=point)):
            with pytest.raises(InjectedCrash):
                checkpoints.clone(index)
        assert answers(index) == before
        check_index(index).raise_if_failed()
        assert answers(checkpoints.clone(index)) == before
    return points


def _exercise_atomic_save_point(tmp_path):
    """Fire ``atomic.before-replace`` in a save over an existing
    snapshot: the old snapshot stays, byte for byte."""
    index = TextDocumentIndex(make_index(POLICIES[0][1]).config)
    path = tmp_path / "snapshot.dstx"
    index.save(path)
    old = path.read_bytes()
    for doc in BATCHES[0]:
        index.add_document(" ".join(f"w{word}" for word in doc))
    index.flush_batch()
    with faults.injected(FaultPlan(crash_at="atomic.before-replace")):
        with pytest.raises(InjectedCrash):
            index.save(path)
    assert path.read_bytes() == old
    return {"atomic.before-replace"}


class TestCrashDepth:
    """Crash points inside loops, at later-than-first arrivals."""

    # With a 12-word vocabulary, hit 9 lands the crash deep inside the
    # per-word append loop of one flush.
    @pytest.mark.parametrize("hit", [1, 9])
    def test_mid_word_loop_crash(self, hit):
        policy = Policy(style=Style.NEW, limit=Limit.Z)
        baselines = clean_answers(policy)
        index, crashed_batch = crash_then_recover(
            policy, "index.before-word-append", crash_at_hit=hit
        )
        assert crashed_batch is not None
        check_index(index).raise_if_failed()
        assert answers(index) == baselines[crashed_batch]

    @pytest.mark.parametrize("hit", [2, 3])
    def test_repeated_fill_extent_crash(self, hit):
        policy = Policy(style=Style.FILL, limit=Limit.Z)
        baselines = clean_answers(policy)
        index, crashed_batch = crash_then_recover(
            policy, "longlists.fill-extent", crash_at_hit=hit
        )
        assert crashed_batch is not None
        check_index(index).raise_if_failed()
        assert answers(index) == baselines[crashed_batch]


class TestRecoverySemantics:
    def test_recover_without_replay_rolls_back(self):
        """``replay=False`` restores the last completed flush exactly."""
        policy = Policy(style=Style.NEW, limit=Limit.Z)
        baselines = clean_answers(policy)
        index = make_index(policy)
        for batch in BATCHES[:3]:
            for doc in batch:
                index.add_document(doc)
            index.flush_batch()
        for doc in BATCHES[3]:
            index.add_document(doc)
        faults.install(FaultPlan(crash_at="flush.begin"))
        with pytest.raises(InjectedCrash):
            index.flush_batch()
        faults.uninstall()
        assert index.recover(replay=False) is None
        check_index(index).raise_if_failed()
        assert answers(index) == baselines[2]
        assert index.memory.npostings == 0

    def test_recover_requires_crash_safe(self):
        index = make_index(Policy(style=Style.NEW, limit=Limit.Z),
                           crash_safe=False)
        with pytest.raises(RuntimeError):
            index.recover()

    def test_crash_during_recovery_point_save_loses_nothing(self):
        """A crash with batch N on disk but the boundary not yet sealed
        replays N from the N-1 state — the undo log is dropped only once
        the batch is complete, so the unsealed boundary is never adopted."""
        policy = Policy(style=Style.WHOLE, limit=Limit.Z)
        baselines = clean_answers(policy)
        index, crashed_batch = crash_then_recover(
            policy, "index.before-recovery-point"
        )
        assert crashed_batch is not None
        check_index(index).raise_if_failed()
        assert answers(index) == baselines[crashed_batch]

    def test_repeated_crashes_same_run(self):
        """Crash, recover, keep ingesting, crash again, recover again."""
        policy = Policy(style=Style.NEW, limit=Limit.Z)
        baselines = clean_answers(policy)
        index = make_index(policy)
        crash_batches = {2: "flush.after-bucket-writes", 5: "index.before-clear"}
        for batch_no, batch in enumerate(BATCHES[:8]):
            for doc in batch:
                index.add_document(doc)
            point = crash_batches.get(batch_no)
            if point is None:
                index.flush_batch()
                continue
            faults.install(FaultPlan(crash_at=point))
            with pytest.raises(InjectedCrash):
                index.flush_batch()
            faults.uninstall()
            index.recover(replay=True)
            check_index(index).raise_if_failed()
        assert answers(index) == baselines[7]


class TestSweepThenAbortedFlush:
    """A restart boundary taken at flush *end* predates a deletion sweep
    that runs afterwards: rolling back to it un-sweeps the lists while
    the filter set the sweep discarded stays discarded, and the deleted
    documents come back.  The undo log arms at flush *begin*."""

    # before-release: RELEASE still holds the chunks the sweep retired.
    @pytest.mark.parametrize(
        "point", ["index.before-shadow-flush", "index.before-release"]
    )
    @pytest.mark.parametrize(
        "pname,policy", POLICIES, ids=[p[0] for p in POLICIES]
    )
    def test_swept_documents_stay_deleted(self, pname, policy, point):
        index = TextDocumentIndex(
            IndexConfig(
                policy=policy,
                nbuckets=4,
                bucket_size=16,
                crash_safe=True,
            )
        )
        for i in range(30):
            index.add_document(f"alpha beta w{i % 7}")
        index.flush_batch()
        index.delete_document(3)
        index.sweep_deletions()
        assert index.deletions.ndeleted == 0
        assert index.index.longlists.release  # the sweep retired chunks
        index.add_document("alpha gamma")
        with faults.injected(FaultPlan(crash_at=point)):
            with pytest.raises(InjectedCrash):
                index.flush_batch()
        assert index.recover(replay=True) is not None
        check_index(index.index).raise_if_failed()
        survivors = [d for d in range(31) if d != 3]
        assert index.search_boolean("alpha").doc_ids == survivors
        assert index.search_boolean("beta").doc_ids == survivors[:-1]
        assert index.search_boolean("gamma").doc_ids == [30]

    def test_flush_over_an_unrecovered_abort_is_refused(self):
        index = make_index(POLICIES[0][1])
        for doc in BATCHES[0]:
            index.add_document(doc)
        with faults.injected(FaultPlan(crash_at="flush.begin")):
            with pytest.raises(InjectedCrash):
                index.flush_batch()
        with pytest.raises(RuntimeError, match=r"recover\(\)"):
            index.flush_batch()
        assert index.recover(replay=True) is not None
        check_index(index).raise_if_failed()
        assert answers(index) == clean_answers(POLICIES[0][1])[0]


class TestCleanRunInvariants:
    @pytest.mark.parametrize(
        "pname,policy", POLICIES, ids=[p[0] for p in POLICIES]
    )
    def test_twenty_batch_clean_run(self, pname, policy):
        """Zero invariant violations after every batch of a clean run."""
        batches = synthetic_batches(nbatches=20, seed=81)
        index = make_index(policy)
        for batch in batches:
            for doc in batch:
                index.add_document(doc)
            index.flush_batch()
            report = check_index(index)
            assert report.ok, f"{pname}: {report}"
