"""The concurrency stress battery.

Acceptance claim of the serving subsystem: with >= 4 reader threads
querying snapshots while the writer flushes >= 20 batches under fault
injection (rotating crash points plus transient disk faults), every
published snapshot passes ``core.invariants.check_index`` and every query
answer matches the driver's brute-force mirror as frozen for the snapshot
that served it — zero invariant violations, zero stale-read divergences.
The mirror is the driver's alone: a service that loses documents cannot
lose them from the model it is checked against (``TestOracleIndependence``).
"""

import random
from dataclasses import replace

import pytest

from repro.core.index import IndexConfig
from repro.service import LoadConfig, LoadGenerator, QueryService
from repro.storage import faults
from repro.storage.faults import FaultPlan
from repro.textindex import TextDocumentIndex

STRESS_CONFIG = LoadConfig(
    readers=4,
    flush_cycles=20,
    docs_per_batch=15,
    vocabulary=100,
    seed=42,
    verify=True,
    check_invariants=True,
    delete_every=7,
    crash_every=3,
    transient_rate=0.02,
    pace_s=0.0005,
    differential=True,
)


@pytest.fixture(autouse=True)
def no_leaked_plan():
    yield
    faults.uninstall()


class TestConcurrentStress:
    @pytest.mark.parametrize("publish_mode", ["clone", "cow"])
    def test_readers_vs_faulty_writer(self, publish_mode):
        config = replace(STRESS_CONFIG, publish_mode=publish_mode)
        report = LoadGenerator(config).run()

        # Zero stale-read divergences: every answer matched the mirror
        # frozen for the exact snapshot that served it, and (differential)
        # after every publish the service answered the probe set
        # identically to the live mirror.  A stale query-cache hit would
        # show up here as a divergence — the cache is consulted per
        # snapshot.
        assert report.divergences == 0, report.divergence_examples
        assert report.config["differential_checks"] == config.flush_cycles

        # Every flush published, despite injected crashes and transient
        # faults; every published snapshot passed the invariant checker
        # (a violation raises InvariantError and kills the run).
        service = report.service
        assert service["publishes"] == config.flush_cycles
        assert (
            service["invariant_checks"]
            == config.flush_cycles + 1  # + the initial empty snapshot
        )

        # The fault plans actually fired: the writer recovered at least
        # once (crash_every=3 installs a crash on 6 of the 20 cycles).
        assert service["flush_recoveries"] >= 1

        if publish_mode == "cow":
            # Incremental publication actually ran; recovery cycles fall
            # back to the full clone (requires_full), hence both counters.
            assert service["cow_publishes"] >= 1
            assert (
                service["cow_publishes"] + service["full_clone_publishes"]
                == config.flush_cycles
            )
        else:
            assert service["cow_publishes"] == 0

        # All reader threads survived and did real work.
        assert report.queries > 0
        assert service["documents_ingested"] == (
            config.flush_cycles * config.docs_per_batch
        )
        assert service["documents_deleted"] > 0

    def test_stress_without_faults_is_also_clean(self):
        """The same workload minus fault injection — separates "snapshot
        isolation is broken" from "recovery is broken" on a failure."""
        config = LoadConfig(
            readers=4,
            flush_cycles=8,
            docs_per_batch=15,
            vocabulary=100,
            seed=43,
            verify=True,
            check_invariants=True,
            delete_every=7,
            pace_s=0.0005,
        )
        report = LoadGenerator(config).run()
        assert report.divergences == 0, report.divergence_examples
        assert report.service["publishes"] == config.flush_cycles
        assert report.service["flush_recoveries"] == 0
        assert report.queries > 0


class _LossyService(QueryService):
    """Acknowledges every document and indexes six in seven: the
    seventh keeps its id and loses its words."""

    def add_document(self, text, doc_id=None):
        self.seen = getattr(self, "seen", 0) + 1
        return super().add_document(
            "" if self.seen % 7 == 0 else text, doc_id
        )


class TestOracleIndependence:
    """The oracle is fed by the driver, not by the service it checks:
    with the model inside ``QueryService.add_document`` (and the clone
    oracle cloning the service's own writer) this service reported zero
    divergences under both checks."""

    @pytest.mark.parametrize(
        "checks",
        [
            {"verify": True, "differential": False},
            {"verify": False, "differential": True},
        ],
        ids=["verify", "differential"],
    )
    def test_a_service_that_drops_documents_diverges(self, checks):
        config = LoadConfig(
            readers=2,
            flush_cycles=6,
            docs_per_batch=14,
            vocabulary=30,
            seed=43,
            pace_s=0.002,
            **checks,
        )
        service = _LossyService(
            config.index_config(), cache_capacity=config.cache_capacity
        )
        report = LoadGenerator(config, service=service).run()
        assert report.divergences > 0
        assert any("mirror" in e for e in report.divergence_examples)


FIXED_QUERIES_BOOLEAN = [
    "wa AND wb",
    "wa OR wi",
    "(wb AND wc) OR wq",
    "wa AND NOT wd",
    "wan OR wao",
]
FIXED_QUERIES_STREAMED = ["wa AND wb", "wa OR wc OR wi", "we AND wf AND wb"]
FIXED_QUERIES_VECTOR = [
    {"wa": 2.0, "wb": 1.0},
    {"wc": 1.0, "wi": 3.0, "wq": 1.0},
]


class TestServingVsOfflineEquivalence:
    def test_final_snapshot_matches_fresh_offline_build(self):
        """Satellite: feed the same document stream to (a) the service —
        incrementally, across many publishes, under fault injection —
        and (b) a fresh offline index built in one batch.  A fixed query
        set must answer identically against the final served snapshot."""
        config = LoadConfig(
            seed=7,
            vocabulary=80,
            crash_every=2,
            transient_rate=0.03,
        )
        service = QueryService(
            config.index_config(),
            cache_capacity=config.cache_capacity,
            check_invariants=True,
        )
        generator = LoadGenerator(config, service=service)
        rng = random.Random(1994)
        texts: list[str] = []
        deletions: list[int] = []

        for cycle in range(12):
            for _ in range(10):
                text = generator._document(rng)
                texts.append(text)
                doc_id = service.add_document(text)
                if doc_id and doc_id % 11 == 0:
                    victim = rng.randrange(doc_id)
                    if victim not in deletions:
                        deletions.append(victim)
                        service.delete_document(victim)
            if cycle % 2 == 1:  # crash roughly every other publish
                faults.install(
                    FaultPlan(
                        crash_at="index.before-shadow-flush", crash_at_hit=1
                    )
                )
            try:
                service.flush_and_publish()
            finally:
                faults.uninstall()
        assert service.stats.flush_recoveries >= 1

        offline = TextDocumentIndex(
            IndexConfig(
                nbuckets=64,
                bucket_size=256,
                block_postings=16,
                ndisks=2,
                nblocks_override=500_000,
                store_contents=True,
            )
        )
        for text in texts:
            offline.add_document(text)
        offline.flush_batch()
        for victim in sorted(set(deletions)):
            offline.delete_document(victim)

        snapshot = service.snapshot()
        assert snapshot.ndocs == len(texts)
        for q in FIXED_QUERIES_BOOLEAN:
            assert (
                service.search_boolean(q, snapshot).doc_ids
                == offline.search_boolean(q).doc_ids
            ), q
        for q in FIXED_QUERIES_STREAMED:
            assert (
                service.search_streamed(q, snapshot).doc_ids
                == offline.search_streamed(q).doc_ids
            ), q
        for weights in FIXED_QUERIES_VECTOR:
            got = service.search_vector(weights, top_k=10, snapshot=snapshot)
            want = offline.search_vector(weights, top_k=10)
            assert [(d.doc_id, d.score) for d in got] == [
                (d.doc_id, d.score) for d in want
            ], weights
