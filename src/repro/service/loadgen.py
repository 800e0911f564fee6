"""Mixed read/update load generation against the query service.

The paper's workload is "daily batches of NetNews articles absorbed while
queries keep arriving"; :class:`LoadGenerator` reproduces that shape in
miniature: one writer ingests documents and publishes a snapshot per
flush cycle while N reader threads issue a seeded mix of boolean,
streamed, and vector queries against whatever snapshot is current.

Every query latency lands in a per-thread
:class:`~repro.pipeline.profiling.LatencyRecorder`, merged into
p50/p95/p99 afterwards, and the run's report — the services' counter
dataclasses through :func:`dataclasses.asdict` — is archived as
``BENCH_serving.json`` by ``repro serve-bench``.

The oracle is the generator's own: one brute-force mirror
(:class:`~repro.query.reference.BruteForceIndex`) fed by the writer thread
with exactly what it hands the service — the service under test never
sees it, so a service that loses a document cannot also lose it from the
model it is checked against.  With ``verify=True`` the mirror is frozen
under the next snapshot id just before every publish and each answer is
checked against the copy frozen for the snapshot that served it; a
mismatch is a *stale-read divergence* (a reader observed writer state
that was never a published batch boundary) and fails the run's report.
With ``differential=True`` the writer thread probes served answers
against the live mirror: right after each flush on the snapshot tier,
mid-buffer on the immediate tier, on every host.  With
``crash_every > 0`` the generator installs a crash plan before every Nth
flush (under background merges, for the next merge to meet), cycling
through the registered flush/checkpoint crash points, so publication is
exercised across writer crashes and recoveries on either read tier.

Two arrival disciplines drive the readers:

* ``arrival="closed"`` (default): each reader issues its next query the
  moment the previous one returns — the classic closed loop, whose
  latency percentiles silently exclude the time a slow system makes the
  *next* request wait (coordinated omission).
* ``arrival="open"``: a deterministic Poisson schedule of
  ``arrival_queries`` arrivals at ``arrival_rate_qps`` is precomputed
  from the seed, and every recorded latency is ``completion −
  scheduled_arrival`` — queue wait included, so an overloaded system
  shows its true tail instead of throttling the load that measures it.

With ``doc_skew > 0`` the writer pins explicit doc ids whose hash lands
on a Zipf-drawn target shard, concentrating document mass on the low
shards; with ``rebalance=True`` (gateway only) the gateway's planner
answers that skew with online shard splits at flush boundaries, and
the report's ``gateway.rebalance`` section records them.

With ``gateway=True`` the service is a multi-process
:class:`~repro.service.gateway.GatewayService` (one worker process per
shard); per-query verification is unavailable across the process
boundary (``verify=False`` is required) and correctness is covered by
the boundary differential probes.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import asdict, dataclass, field, fields
from typing import Iterator

from ..core.index import IndexConfig
from ..core.rebalance import GrowthPolicy, RebalancePolicy
from ..core.shard import shard_of
from ..pipeline.profiling import LatencyRecorder
from ..query.reference import BruteForceIndex
from ..storage import atomic_write, faults
from ..storage.faults import FaultPlan
from .gateway import GatewayOverloaded, GatewayService, ShardDeadlineExceeded
from .runtime import RuntimeStats
from .server import BackgroundMerger, QueryService

#: Crash points cycled through by ``crash_every`` (update + publish paths).
CRASH_CYCLE = (
    "index.flush-begin",
    "index.before-word-append",
    "index.before-shadow-flush",
    "index.before-release",
    "index.before-clear",
    "checkpoint.mid-save",
    "checkpoint.cow-publish",
    "index.before-recovery-point",
)

#: The query kinds a reader draws from, and the fraction of each.
KINDS = ("boolean", "streamed", "vector")
MIX = (0.4, 0.4, 0.2)
#: Words per generated document, inclusive bounds.
WORDS_PER_DOC = (4, 12)
#: Ranking depth of every generated vector query.
TOP_K = 10


def _word_name(i: int) -> str:
    """Letters-only synthetic word: "wa", "wb", ... "wz", "waa", ...

    The tokenizer splits tokens at digit boundaries, so digit-suffixed
    names ("w1") would be indexed as "w" + "1" and every generated query
    would look up words that do not exist — answering over the empty set.
    """
    suffix = ""
    while i > 0:
        i, r = divmod(i - 1, 26)
        suffix = chr(ord("a") + r) + suffix
    return "w" + suffix


@dataclass(frozen=True)
class LoadConfig:
    """Shape of one serving-benchmark run (all randomness is seeded)."""

    readers: int = 4
    flush_cycles: int = 20
    docs_per_batch: int = 20
    vocabulary: int = 120
    seed: int = 0
    cache_capacity: int = 256
    verify: bool = True
    check_invariants: bool = True
    #: Every Nth ingested document triggers one random deletion (0 = never).
    delete_every: int = 0
    #: Install a crash plan before every Nth cycle's flush (0 = never).
    crash_every: int = 0
    #: Transient-I/O fault rate injected into the writer's disks.
    transient_rate: float = 0.0
    #: Seconds the writer sleeps between cycles so readers interleave.
    pace_s: float = 0.0
    #: Block budget of the shared decoded-chunk cache (0 = disabled).
    buffer_cache_blocks: int = 128
    #: Probe served answers against the generator's brute-force mirror
    #: from the writer thread: after every flush on the snapshot tier,
    #: mid-buffer on the immediate tier (differential testing).
    differential: bool = False
    #: Probe queries per kind for each differential check.
    differential_probes: int = 4
    #: Document-hash shards (1 = the single-volume code path).
    shards: int = 1
    #: Serve through one worker process per shard behind the asyncio
    #: scatter-gather gateway instead of in-process scatter.
    gateway: bool = False
    #: Worker processes per shard (gateway only; >1 adds read failover).
    replicas: int = 1
    #: Build the volumes with bucket-space growth enabled.
    grow_buckets: bool = False
    #: Reader arrival discipline: "closed" or "open" (see module doc).
    arrival: str = "closed"
    #: Open-loop offered rate (arrivals per second).
    arrival_rate_qps: float = 500.0
    #: Open-loop total scheduled arrivals.
    arrival_queries: int = 2000
    #: "snapshot" serves published boundaries only; "immediate" merges
    #: the memory tier in so ingested documents are visible pre-flush.
    read_tier: str = "snapshot"
    #: Drain the memory tier with a background merge thread instead of
    #: the writer's per-cycle flush (immediate tier, in-process only).
    background_merge: bool = False
    #: Per-cycle ingest-to-first-hit probes (one extra document per
    #: cycle).  None probes only when ``read_tier == "immediate"``;
    #: True forces probing (how the snapshot arm of BENCH_memtier
    #: measures its flush-cycle visibility floor); False disables.
    visibility_probes: bool | None = None
    #: Zipf exponent skewing document *placement* across shards: the
    #: writer pins explicit doc ids whose epoch-0 hash lands on a
    #: Zipf-drawn target shard (shard 0 hottest).  0 = off — writer
    #: assigned sequential ids, byte-identical to the unskewed path.
    doc_skew: float = 0.0
    #: Let the gateway split hot shards online when per-shard live-doc
    #: skew exceeds the planner bound (gateway only; either read tier).
    rebalance: bool = False
    #: Planner bound: split when max/mean imbalance exceeds this.
    rebalance_threshold: float = 1.5

    def __post_init__(self) -> None:
        # Ranges of the run's own shape, and the rules that span two
        # fields.  A value one layer consumes (read_tier, shards,
        # replicas) is range-checked by the constructor that branches on
        # it, when the generator builds its service.
        if self.readers <= 0 or self.flush_cycles <= 0:
            raise ValueError("readers and flush_cycles must be > 0")
        if self.docs_per_batch <= 0 or self.vocabulary <= 0:
            raise ValueError("docs_per_batch and vocabulary must be > 0")
        if self.arrival not in ("closed", "open"):
            raise ValueError("arrival must be 'closed' or 'open'")
        if self.arrival == "open" and (
            self.arrival_rate_qps <= 0 or self.arrival_queries <= 0
        ):
            raise ValueError(
                "open arrivals need arrival_rate_qps and "
                "arrival_queries > 0"
            )
        if self.gateway and self.verify:
            raise ValueError(
                "gateway mode cannot pin per-query reference snapshots "
                "across the process boundary; set verify=False "
                "(boundary differential probes still cover correctness)"
            )
        if self.replicas > 1 and not self.gateway:
            raise ValueError(
                "replication runs worker processes behind the gateway; "
                "set gateway=True for replicas > 1"
            )
        if self.gateway and self.crash_every:
            raise ValueError(
                "gateway mode injects crashes per worker via fault "
                "plans (see the chaos battery), not crash_every"
            )
        if self.read_tier == "immediate" and self.verify:
            raise ValueError(
                "immediate-tier answers reflect the live memory tier, "
                "not a pinned reference snapshot; set verify=False "
                "(mid-buffer differential probes against the "
                "brute-force mirror cover correctness)"
            )
        if self.background_merge:
            if self.read_tier != "immediate":
                raise ValueError(
                    "background_merge requires read_tier='immediate'"
                )
            if self.gateway:
                raise ValueError(
                    "background_merge drives the in-process "
                    "BackgroundMerger; gateway workers merge on flush"
                )
        if self.doc_skew < 0.0:
            raise ValueError("doc_skew must be >= 0")
        if self.rebalance and not self.gateway:
            raise ValueError(
                "online rebalancing runs in the gateway's split "
                "protocol; set gateway=True for rebalance"
            )
        if self.rebalance_threshold <= 1.0:
            raise ValueError("rebalance_threshold must be > 1.0")

    @property
    def injects_faults(self) -> bool:
        return self.crash_every > 0 or self.transient_rate > 0.0

    def index_config(self) -> IndexConfig:
        """A small content-mode index; crash-safe when faults are on."""
        plan = (
            FaultPlan(transient_rate=self.transient_rate)
            if self.transient_rate > 0.0
            else None
        )
        return IndexConfig(
            nbuckets=64,
            bucket_size=256,
            block_postings=16,
            ndisks=2,
            nblocks_override=500_000,
            store_contents=True,
            crash_safe=self.injects_faults,
            fault_plan=plan,
            grow_buckets=self.grow_buckets,
            # Not GrowthPolicy's own default (0.85): every archived
            # --grow-buckets run grew at this occupancy.
            growth=GrowthPolicy(occupancy_threshold=0.75),
        )


@dataclass(frozen=True)
class Arrival:
    """One query a reader serves: a scheduled open-loop arrival, or —
    with no schedule (``at_s`` is None) — the next turn of a closed loop."""

    at_s: float | None  # offset from the run's start
    kind: str  # "boolean" | "streamed" | "vector"
    query: object  # the query string or weight map


def open_loop_arrivals(
    rate_qps: float,
    count: int,
    seed: int,
    mix: tuple[float, float, float],
    make_query,
) -> list[Arrival]:
    """A deterministic Poisson arrival schedule.

    Inter-arrival gaps are exponential with mean ``1/rate_qps``; kinds
    are drawn from ``mix``; ``make_query(kind, rng)`` builds each
    payload.  Everything — times, kinds, payloads — is a pure function
    of the seed, so two runs offered the same schedule are comparable
    sample-for-sample.
    """
    rng = random.Random(seed * 65537 + 11)
    t = 0.0
    arrivals: list[Arrival] = []
    for _ in range(count):
        t += rng.expovariate(rate_qps)
        kind = rng.choices(KINDS, weights=mix)[0]
        arrivals.append(Arrival(t, kind, make_query(kind, rng)))
    return arrivals


@dataclass
class ServingReport:
    """Machine-readable outcome of one load-generation run."""

    config: dict
    wall_seconds: float
    queries: int
    throughput_qps: float
    latency: dict[str, dict]
    cache: dict
    service: dict
    divergences: int
    divergence_examples: list[str] = field(default_factory=list)
    buffer_cache: dict = field(default_factory=dict)
    open_loop: dict = field(default_factory=dict)
    gateway: dict = field(default_factory=dict)
    #: Time-to-visibility probe digest (seconds from ingest to first hit).
    visibility: dict = field(default_factory=dict)
    #: Memory-tier counters (immediate tier only).
    memtier: dict = field(default_factory=dict)

    def write_json(self, path) -> None:
        report = asdict(self)
        report["divergence_examples"] = self.divergence_examples[:5]
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        with atomic_write(path) as fp:
            fp.write(text.encode("utf-8"))


class _ReaderState:
    """One reader thread's private state: its seeded RNG and recorders.

    The RNG lives here (not in the reader loop, not shared) so each
    thread's query stream is deterministic for a given ``(seed,
    reader_id)`` regardless of interleaving — shared ``random.Random``
    instances are lock-protected but produce schedule-dependent
    sequences.
    """

    def __init__(self, seed: int, reader_id: int) -> None:
        self.rng = random.Random(seed * 7919 + reader_id)
        self.recorders = {kind: LatencyRecorder() for kind in KINDS}
        self.divergences: list[str] = []
        self.shed = 0
        self.deadline_exceeded = 0


def _issue(target, kind: str, query, snapshot=None):
    """``search_<kind>`` on anything that answers queries — the service
    or a brute-force mirror — pinned to ``snapshot`` when one is given."""
    pin = {} if snapshot is None else {"snapshot": snapshot}
    if kind == "vector":
        return target.search_vector(query, top_k=TOP_K, **pin)
    return getattr(target, f"search_{kind}")(query, **pin)


def _answer_key(kind: str, answer):
    """What two answers to one query are compared by: ``(doc_id, score)``
    pairs for a ranking, the doc-id list otherwise (the brute-force
    mirror returns that list bare)."""
    if kind == "vector":
        return [(d.doc_id, d.score) for d in answer]
    return getattr(answer, "doc_ids", answer)


class LoadGenerator:
    """Drive a mixed reader/writer workload and measure it."""

    def __init__(
        self,
        config: LoadConfig | None = None,
        service: QueryService | None = None,
    ) -> None:
        self.config = cfg = config or LoadConfig()
        self._owns_service = service is None
        if service is not None:
            self.service = service
        elif cfg.gateway:
            self.service = GatewayService(
                cfg.index_config(),
                shards=cfg.shards,
                replicas=cfg.replicas,
                check_invariants=cfg.check_invariants,
                buffer_cache_blocks=cfg.buffer_cache_blocks,
                read_tier=cfg.read_tier,
                rebalance=cfg.rebalance,
                rebalance_policy=RebalancePolicy(
                    max_imbalance=cfg.rebalance_threshold
                )
                if cfg.rebalance
                else None,
            )
        else:
            self.service = QueryService(
                cfg.index_config(),
                cache_capacity=cfg.cache_capacity,
                check_invariants=cfg.check_invariants,
                buffer_cache_blocks=cfg.buffer_cache_blocks,
                shards=cfg.shards,
                read_tier=cfg.read_tier,
            )
        self._words = [_word_name(i) for i in range(1, cfg.vocabulary + 1)]
        # Skewed placement state: the next candidate explicit doc id and
        # the ids actually ingested (delete victims must be real docs —
        # the id gaps the scan leaves behind were never added).
        self._skew_next = 0
        self._skew_live: list[int] = []
        if cfg.doc_skew > 0.0:
            self._skew_weights = [
                1.0 / (rank + 1) ** cfg.doc_skew for rank in range(cfg.shards)
            ]
        # The oracle: a brute-force model of every operation the writer
        # thread hands the service, kept here and never shown to the
        # service (a run that checks nothing keeps none).  ``_frozen``
        # holds its copy per published snapshot id for pinned ``verify``.
        self._mirror = (
            BruteForceIndex() if cfg.verify or cfg.differential else None
        )
        self._frozen: dict[int, BruteForceIndex] = {}

    # -- deterministic generators -----------------------------------------

    def _skewed_doc_id(self, rng: random.Random) -> int:
        """Next explicit doc id, placed on a Zipf-drawn target shard.

        Draws the target from the epoch-0 shard set (shard 0 hottest),
        then scans candidate ids forward until the stable doc-id hash
        lands there — the same ``shard_of`` the router's epoch-0 table
        degenerates to, so where a document goes is decided entirely by
        the *workload*, not by the serving topology.  After an online
        split the hot slice's ids redistribute, but the id stream itself
        is unchanged: rebalanced and epoch-0 arms see identical ingests.
        """
        cfg = self.config
        target = rng.choices(
            range(cfg.shards), weights=self._skew_weights
        )[0]
        doc_id = self._skew_next
        while shard_of(doc_id, cfg.shards) != target:
            doc_id += 1
        self._skew_next = doc_id + 1
        return doc_id

    def _skewed_word(self, rng: random.Random) -> str:
        """Zipf-ish draw: low word ids are hot, mirroring the corpus."""
        k = min(int(rng.paretovariate(0.8)), len(self._words))
        return self._words[k - 1]

    def _document(self, rng: random.Random) -> str:
        lo, hi = WORDS_PER_DOC
        return " ".join(
            self._skewed_word(rng) for _ in range(rng.randint(lo, hi))
        )

    def _boolean_query(self, rng: random.Random) -> str:
        a, b, c = (self._skewed_word(rng) for _ in range(3))
        return rng.choice(
            [
                f"{a} AND {b}",
                f"{a} OR {b}",
                f"({a} AND {b}) OR {c}",
                f"{a} AND NOT {b}",
            ]
        )

    def _streamed_query(self, rng: random.Random) -> str:
        op = rng.choice(["AND", "OR"])
        words = [self._skewed_word(rng) for _ in range(rng.randint(2, 3))]
        return f" {op} ".join(words)

    def _vector_query(self, rng: random.Random) -> dict[str, float]:
        return {
            self._skewed_word(rng): float(rng.randint(1, 3))
            for _ in range(rng.randint(2, 5))
        }

    def _make_query(self, kind: str, rng: random.Random):
        if kind == "boolean":
            return self._boolean_query(rng)
        if kind == "streamed":
            return self._streamed_query(rng)
        return self._vector_query(rng)

    def open_schedule(self) -> list[Arrival]:
        """This run's deterministic open-loop arrival schedule."""
        cfg = self.config
        return open_loop_arrivals(
            cfg.arrival_rate_qps,
            cfg.arrival_queries,
            cfg.seed,
            MIX,
            self._make_query,
        )

    # -- reader threads ----------------------------------------------------

    def _closed_loop(
        self, stop: threading.Event, rng: random.Random
    ) -> Iterator[Arrival]:
        """A closed loop is an arrival source with no schedule: the next
        query exists the moment its reader comes back for one."""
        while not stop.is_set():
            kind = rng.choices(KINDS, weights=MIX)[0]
            yield Arrival(None, kind, self._make_query(kind, rng))

    @staticmethod
    def _share_of(schedule: Iterator[Arrival], lock) -> Iterator[Arrival]:
        """One reader's share of the open-loop schedule: whichever
        arrival is next each time it comes back, until the schedule is
        drained (readers serve every arrival, writer done or not)."""
        while True:
            with lock:
                arrival = next(schedule, None)
            if arrival is None:
                return
            yield arrival

    def _verify(self, arrival: Arrival, got, snapshot, state) -> None:
        frozen = self._frozen.get(snapshot.snapshot_id)
        if frozen is None:
            state.divergences.append(
                f"snapshot {snapshot.snapshot_id}: the writer froze no "
                "mirror for it"
            )
            return
        kind, query = arrival.kind, arrival.query
        want = _issue(frozen, kind, query)
        if _answer_key(kind, got) != _answer_key(kind, want):
            state.divergences.append(
                f"snapshot {snapshot.snapshot_id} {kind} {query!r}: "
                f"served {got!r}, mirror {want!r}"
            )

    def _reader_loop(
        self, reader_id: int, source, t0: float, state: _ReaderState
    ) -> None:
        try:
            self._reader_queries(source, t0, state)
        except Exception as exc:  # noqa: BLE001 - must surface in the report
            # A dead reader thread must fail the run loudly, not shrink it.
            state.divergences.append(f"reader {reader_id} died: {exc!r}")

    def _reader_queries(self, source, t0: float, state: _ReaderState) -> None:
        """Serve arrivals until the source ends.

        A scheduled arrival is waited for and its latency sample is
        ``completion − scheduled_arrival``: when the service (or this
        reader pool) falls behind, the backlog wait lands *in* the
        measurement instead of silently delaying the offered load — the
        open-loop answer to coordinated omission.  An unscheduled one is
        timed from the moment it is issued.
        """
        for arrival in source:
            if arrival.at_s is not None:
                wait = t0 + arrival.at_s - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            # Pin the snapshot: the answer must be verified against the
            # mirror frozen for exactly the state that served it.
            snapshot = self.service.snapshot()
            issued = (
                time.perf_counter()
                if arrival.at_s is None
                else t0 + arrival.at_s
            )
            try:
                got = _issue(
                    self.service, arrival.kind, arrival.query, snapshot
                )
            except GatewayOverloaded:
                state.shed += 1  # a typed overload outcome, not a bug
                continue
            except ShardDeadlineExceeded:
                state.deadline_exceeded += 1
                continue
            state.recorders[arrival.kind].record(
                time.perf_counter() - issued
            )
            if self.config.verify:
                self._verify(arrival, got, snapshot, state)

    # -- the writer + the run ---------------------------------------------

    def _ingest(self, text: str, doc_id: int | None) -> int:
        """One document to the service and, word for word, to the mirror."""
        doc_id = self.service.add_document(text, doc_id)
        if self._mirror is not None:
            self._mirror.add_document(doc_id, text.split())
        return doc_id

    def _delete(self, doc_id: int) -> None:
        self.service.delete_document(doc_id)
        if self._mirror is not None:
            self._mirror.delete_document(doc_id)

    def _maybe_crash_plan(self, cycle: int) -> bool:
        """Install a crash plan for this cycle; True when one is active."""
        if not self.config.crash_every:
            return False
        if cycle == 0 or cycle % self.config.crash_every:
            return False
        point = CRASH_CYCLE[
            (cycle // self.config.crash_every - 1) % len(CRASH_CYCLE)
        ]
        faults.install(FaultPlan(crash_at=point, crash_at_hit=1))
        return True

    def _differential_check(
        self, cycle: int, divergences: list[str]
    ) -> None:
        """Probe served answers against the mirror on the writer thread.

        The snapshot tier runs it right after a flush, while the writer
        sits at the batch boundary, so the mirror and what was just
        published coincide — in process or behind the gateway's workers.
        The immediate tier runs it *mid-buffer*, before any flush:
        served answers are defined over everything ingested, so they
        must match the mirror even while documents sit unpublished in
        the memory tier."""
        snapshot = self.service.snapshot()
        rng = random.Random(self.config.seed * 104729 + cycle)
        for kind in KINDS:
            for _ in range(self.config.differential_probes):
                query = self._make_query(kind, rng)
                got = _answer_key(
                    kind, _issue(self.service, kind, query, snapshot)
                )
                want = _answer_key(kind, _issue(self._mirror, kind, query))
                if got != want:
                    divergences.append(
                        f"cycle {cycle} differential {kind} {query!r}: "
                        f"served {got!r}, mirror {want!r}"
                    )

    def run(self) -> ServingReport:
        """Execute the workload; returns the measured report."""
        try:
            return self._run()
        finally:
            if self._owns_service:
                closer = getattr(self.service, "close", None)
                if closer is not None:
                    closer()

    def _run(self) -> ServingReport:
        cfg = self.config
        stop = threading.Event()
        states = [_ReaderState(cfg.seed, i) for i in range(cfg.readers)]
        arrivals = self.open_schedule() if cfg.arrival == "open" else []
        schedule, schedule_lock = iter(arrivals), threading.Lock()
        if cfg.verify:
            self._frozen[self.service.snapshot().snapshot_id] = (
                self._mirror.freeze()
            )
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._reader_loop,
                args=(
                    i,
                    self._share_of(schedule, schedule_lock)
                    if cfg.arrival == "open"
                    else self._closed_loop(stop, state.rng),
                    start,
                    state,
                ),
                name=f"reader-{i}",
                daemon=True,
            )
            for i, state in enumerate(states)
        ]
        writer_rng = random.Random(cfg.seed)
        deleted = 0
        ingested = 0
        differential_divergences: list[str] = []
        differential_checks = 0
        visibility = LatencyRecorder()
        visibility_misses = 0
        probing = (
            cfg.visibility_probes
            if cfg.visibility_probes is not None
            else cfg.read_tier == "immediate"
        )
        merger = None
        if cfg.background_merge:
            merger = BackgroundMerger(
                self.service, min_buffered=cfg.docs_per_batch
            ).start()
        for thread in threads:
            thread.start()
        try:
            for cycle in range(cfg.flush_cycles):
                # Time-to-visibility probe: one document carrying a
                # unique word, ingested at the top of the cycle and
                # timed until a query first returns it.  The immediate
                # tier answers right away; the snapshot tier cannot
                # answer before this cycle's publish — its floor is the
                # rest of the flush cycle (ingest + flush + publish).
                probe_seen = None
                if probing:
                    probe_word = "probe" + _word_name(cycle + 1)
                    probe_t0 = time.perf_counter()
                    probe_id = self._ingest(probe_word, None)
                    # The probe's writer-assigned id advances the global
                    # watermark; the skewed id scan must not fall below it.
                    self._skew_next = max(self._skew_next, probe_id + 1)
                    if cfg.read_tier == "immediate":
                        got = self.service.search_streamed(probe_word)
                        if probe_id in got.doc_ids:
                            probe_seen = time.perf_counter() - probe_t0
                for _ in range(cfg.docs_per_batch):
                    text = self._document(writer_rng)
                    if cfg.doc_skew > 0.0:
                        doc_id = self._ingest(
                            text, self._skewed_doc_id(writer_rng)
                        )
                        self._skew_live.append(doc_id)
                        ingested += 1
                        # Skewed ids jump, so the trigger counts ingests
                        # and victims come from ids actually added (the
                        # scan's id gaps were never documents).
                        due = (
                            cfg.delete_every
                            and ingested % cfg.delete_every == 0
                            and len(self._skew_live) > 1
                        )
                        victim = (
                            self._skew_live.pop(
                                writer_rng.randrange(
                                    len(self._skew_live) - 1
                                )
                            )
                            if due
                            else None
                        )
                    else:
                        doc_id = self._ingest(text, None)
                        due = (
                            cfg.delete_every
                            and doc_id
                            and (doc_id + 1) % cfg.delete_every == 0
                        )
                        victim = writer_rng.randrange(doc_id) if due else None
                    if victim is not None:
                        self._delete(victim)
                        deleted += 1
                if cfg.differential and cfg.read_tier == "immediate":
                    # Mid-buffer: nothing flushed yet this cycle, but
                    # served answers must already include everything.
                    self._differential_check(cycle, differential_divergences)
                    differential_checks += 1
                # Under background merges a plan stays installed until a
                # merge reaches its point or the next plan replaces it.
                crashing = self._maybe_crash_plan(cycle)
                if not cfg.background_merge:
                    if cfg.verify:
                        # Frozen before the publish, under the id it will
                        # carry: no reader can pin a snapshot whose
                        # mirror is not there yet.
                        self._frozen[
                            self.service.snapshot().snapshot_id + 1
                        ] = self._mirror.freeze()
                    try:
                        self.service.flush_and_publish()
                    finally:
                        if crashing:
                            faults.uninstall()
                if cfg.differential and cfg.read_tier != "immediate":
                    self._differential_check(cycle, differential_divergences)
                    differential_checks += 1
                if probing and probe_seen is None:
                    got = self.service.search_streamed(probe_word)
                    if probe_id in got.doc_ids:
                        probe_seen = time.perf_counter() - probe_t0
                if probe_seen is not None:
                    visibility.record(probe_seen)
                elif probing:
                    # Legitimate under crash plans (the batch republishes
                    # on a later cycle); counted, not failed.
                    visibility_misses += 1
                if cfg.pace_s:
                    time.sleep(cfg.pace_s)
        finally:
            if merger is not None:
                merger.stop()
            if cfg.crash_every:
                faults.uninstall()
            stop.set()
            for thread in threads:
                thread.join(timeout=120.0)
        wall = time.perf_counter() - start

        overall = LatencyRecorder()
        per_kind = {kind: LatencyRecorder() for kind in KINDS}
        divergences: list[str] = []
        for state in states:
            for kind, recorder in state.recorders.items():
                per_kind[kind].merge(recorder)
                overall.merge(recorder)
            divergences.extend(state.divergences)
        divergences.extend(differential_divergences)
        latency = {
            kind: recorder.summary() for kind, recorder in per_kind.items()
        }
        latency["overall"] = overall.summary()
        # Publish latency is its own series: writer-side, not part of the
        # query percentiles, but the batch-size scaling story
        # (BENCH_publish) is read off exactly this summary.
        latency["publish"] = self.service.publish_latency.summary()
        open_loop: dict = {}
        if cfg.arrival == "open":
            open_loop = {
                "scheduled": len(arrivals),
                "completed": overall.count,
                "shed": sum(state.shed for state in states),
                "deadline_exceeded": sum(
                    state.deadline_exceeded for state in states
                ),
                "offered_rate_qps": cfg.arrival_rate_qps,
                "schedule_seconds": round(arrivals[-1].at_s, 6),
            }
        visibility_report = {
            "tier": cfg.read_tier,
            "misses": visibility_misses,
            **visibility.summary(),
        }
        memtier_report: dict = {}
        if cfg.read_tier == "immediate" and not cfg.gateway:
            memtier_report = self.service.memtier_stats()
            if merger is not None:
                memtier_report["merger"] = merger.stats()
        gateway_stats: dict = {}
        buffer_cache: dict = {}
        service = asdict(self.service.stats)
        if cfg.gateway:
            gateway_stats = self.service.gateway_stats()
            # The workers publish; the facade only counts documents and
            # queries.
            for f in fields(RuntimeStats):
                service[f.name] = gateway_stats[f.name]
            for worker in self.service.buffer_stats():
                for key, value in worker.items():
                    buffer_cache[key] = buffer_cache.get(key, 0) + value
        elif self.service.buffer_counters is not None:
            buffer_cache = asdict(self.service.buffer_counters)
        return ServingReport(
            config={
                **asdict(cfg),
                "deleted": deleted,
                "differential_checks": differential_checks,
            },
            wall_seconds=wall,
            queries=overall.count,
            throughput_qps=overall.count / wall if wall > 0 else 0.0,
            latency=latency,
            # The gateway keeps no parent-side result cache (workers are
            # the authority), so its runs report none.
            cache={} if cfg.gateway else asdict(self.service.cache.stats()),
            service=service,
            divergences=len(divergences),
            divergence_examples=divergences,
            buffer_cache=buffer_cache,
            open_loop=open_loop,
            gateway=gateway_stats,
            visibility=visibility_report,
            memtier=memtier_report,
        )
