"""Mixed read/update load generation against the query service.

The paper's workload is "daily batches of NetNews articles absorbed while
queries keep arriving"; :class:`LoadGenerator` reproduces that shape in
miniature: one writer ingests documents and publishes a snapshot per
flush cycle while N reader threads issue a seeded mix of boolean,
streamed, and vector queries against whatever snapshot is current.

Measurements ride the :mod:`repro.pipeline.profiling` plumbing — stage
spans (``serve.ingest`` / ``serve.flush`` / ``serve.publish``) accumulate
in the service's :class:`StageTimings`, and every query latency lands in a
per-thread :class:`LatencyRecorder`, merged into p50/p95/p99 afterwards —
and are archived as ``BENCH_serving.json`` by ``repro serve-bench``.

With ``verify=True`` every answer is checked against the brute-force
reference model frozen into the snapshot that served it; a mismatch is a
*stale-read divergence* (a reader observed writer state that was never a
published batch boundary) and fails the run's report.  With
``crash_every > 0`` the generator installs a crash plan before every Nth
flush, cycling through the registered flush/checkpoint crash points, so
publication is exercised across writer crashes and recoveries.

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
boundary differential probes against a parent-side brute-force mirror.
"""

from __future__ import annotations

import json
import random
import threading
import time
from dataclasses import dataclass, field

from ..core.index import IndexConfig
from ..pipeline.profiling import LatencyRecorder
from ..storage import faults
from ..storage.faults import FaultPlan
from .server import QueryService

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
    top_k: int = 10
    cache_capacity: int = 256
    verify: bool = True
    check_invariants: bool = True
    #: Every Nth ingested document triggers one random deletion (0 = never).
    delete_every: int = 0
    #: Install a crash plan before every Nth flush (0 = never).
    crash_every: int = 0
    #: Transient-I/O fault rate injected into the writer's disks.
    transient_rate: float = 0.0
    fault_seed: int = 0
    #: Seconds the writer sleeps between cycles so readers interleave.
    pace_s: float = 0.0
    #: How snapshots are published: "cow" (incremental copy-on-write)
    #: or "clone" (full checkpoint clone, the oracle).
    publish_mode: str = "cow"
    #: Block budget of the shared decoded-chunk cache (0 = disabled).
    buffer_cache_blocks: int = 128
    #: After every publish, compare the served snapshot against a fresh
    #: full-clone oracle over a probe query set (differential testing).
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
    #: skew exceeds the planner bound (gateway only; the gateway refuses
    #: it on the immediate tier).
    rebalance: bool = False
    #: Planner bound: split when max/mean imbalance exceeds this.
    rebalance_threshold: float = 1.5

    def __post_init__(self) -> None:
        if self.readers <= 0 or self.flush_cycles <= 0:
            raise ValueError("readers and flush_cycles must be > 0")
        if self.docs_per_batch <= 0 or self.vocabulary <= 0:
            raise ValueError("docs_per_batch and vocabulary must be > 0")
        if self.publish_mode not in ("clone", "cow"):
            raise ValueError("publish_mode must be 'clone' or 'cow'")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
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
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
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
        if self.read_tier not in ("snapshot", "immediate"):
            raise ValueError(
                "read_tier must be 'snapshot' or 'immediate'"
            )
        if self.read_tier == "immediate" and self.verify:
            raise ValueError(
                "immediate-tier answers reflect the live memory tier, "
                "not a pinned reference snapshot; set verify=False "
                "(mid-buffer differential probes against the "
                "brute-force mirror cover correctness)"
            )
        if self.read_tier == "immediate" and self.crash_every:
            raise ValueError(
                "crash recovery rebuilds the writer from durable "
                "state, not the memory tier; use transient_rate for "
                "immediate-tier fault injection"
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
            FaultPlan(
                seed=self.fault_seed, transient_rate=self.transient_rate
            )
            if self.transient_rate > 0.0
            else None
        )
        from ..core.rebalance import GrowthPolicy

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
    """One scheduled open-loop arrival."""

    at_s: float  # offset from the run's start
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
    stage_seconds: dict[str, float]
    divergences: int
    divergence_examples: list[str] = field(default_factory=list)
    buffer_cache: dict = field(default_factory=dict)
    open_loop: dict = field(default_factory=dict)
    gateway: dict = field(default_factory=dict)
    #: Time-to-visibility probe digest (seconds from ingest to first hit).
    visibility: dict = field(default_factory=dict)
    #: Memory-tier counters (immediate tier only).
    memtier: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "wall_seconds": round(self.wall_seconds, 6),
            "queries": self.queries,
            "throughput_qps": round(self.throughput_qps, 3),
            "latency": self.latency,
            "cache": self.cache,
            "buffer_cache": self.buffer_cache,
            "service": self.service,
            "stage_seconds": self.stage_seconds,
            "divergences": self.divergences,
            "divergence_examples": self.divergence_examples[:5],
            "open_loop": self.open_loop,
            "gateway": self.gateway,
            "visibility": self.visibility,
            "memtier": self.memtier,
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(self.as_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")


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


def _issue(target, kind: str, query, top_k: int, snapshot=None):
    """``search_<kind>`` on anything that answers queries — the service,
    a published snapshot, an oracle — pinned to ``snapshot`` when one is
    given."""
    pin = {} if snapshot is None else {"snapshot": snapshot}
    if kind == "vector":
        return target.search_vector(query, top_k=top_k, **pin)
    return getattr(target, f"search_{kind}")(query, **pin)


def _answer_key(kind: str, answer):
    """What two answers to one query are compared by: ``(doc_id, score)``
    pairs for a ranking, the doc-id list otherwise (the brute-force
    reference returns that list bare)."""
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
        self.config = config or LoadConfig()
        self._owns_service = service is None
        if service is not None:
            self.service = service
        elif self.config.gateway:
            from ..core.rebalance import RebalancePolicy
            from .gateway import GatewayService

            self.service = GatewayService(
                self.config.index_config(),
                shards=self.config.shards,
                replicas=self.config.replicas,
                publish_mode=self.config.publish_mode,
                check_invariants=self.config.check_invariants,
                buffer_cache_blocks=self.config.buffer_cache_blocks,
                read_tier=self.config.read_tier,
                rebalance=self.config.rebalance,
                rebalance_policy=RebalancePolicy(
                    max_imbalance=self.config.rebalance_threshold
                )
                if self.config.rebalance
                else None,
            )
        else:
            self.service = QueryService(
                self.config.index_config(),
                cache_capacity=self.config.cache_capacity,
                check_invariants=self.config.check_invariants,
                track_reference=self.config.verify,
                publish_mode=self.config.publish_mode,
                buffer_cache_blocks=self.config.buffer_cache_blocks,
                shards=self.config.shards,
                read_tier=self.config.read_tier,
            )
        self._words = [
            _word_name(i) for i in range(1, self.config.vocabulary + 1)
        ]
        # Skewed placement state: the next candidate explicit doc id and
        # the ids actually ingested (delete victims must be real docs —
        # the id gaps the scan leaves behind were never added).
        self._skew_next = 0
        self._skew_live: list[int] = []
        if self.config.doc_skew > 0.0:
            s = self.config.doc_skew
            self._skew_weights = [
                1.0 / (rank + 1) ** s for rank in range(self.config.shards)
            ]
        # Parent-side mirror for mirror-based differential probes:
        # gateway workers cannot hand the parent a clone oracle, and
        # immediate-tier answers are defined over *everything ingested*
        # (no batch boundary to clone at) — both compare against a
        # brute-force model of every ingested operation instead.
        self._mirror = None
        if self.config.differential and (
            self.config.gateway or self.config.read_tier == "immediate"
        ):
            from ..query.reference import BruteForceIndex

            self._mirror = BruteForceIndex()

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
        from ..core.shard import shard_of

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

    def _verify(self, kind, query, got, snapshot, state) -> None:
        reference = snapshot.reference
        if reference is None:
            return
        want = _issue(reference, kind, query, self.config.top_k)
        if _answer_key(kind, got) != _answer_key(kind, want):
            state.divergences.append(
                f"snapshot {snapshot.snapshot_id} {kind} {query!r}: "
                f"served {got!r}, reference {want!r}"
            )

    def _reader_loop(
        self, reader_id: int, stop: threading.Event, state: _ReaderState
    ) -> None:
        try:
            self._reader_queries(reader_id, stop, state)
        except Exception as exc:  # noqa: BLE001 - must surface in the report
            # A dead reader thread must fail the run loudly, not shrink it.
            state.divergences.append(f"reader {reader_id} died: {exc!r}")

    def _reader_queries(
        self, reader_id: int, stop: threading.Event, state: _ReaderState
    ) -> None:
        rng = state.rng
        while not stop.is_set():
            kind = rng.choices(KINDS, weights=MIX)[0]
            # Pin the snapshot: the answer must be verified against the
            # exact reference model frozen with the state that served it.
            snapshot = self.service.snapshot()
            query = self._make_query(kind, rng)
            with state.recorders[kind].span():
                got = _issue(
                    self.service, kind, query, self.config.top_k, snapshot
                )
            if self.config.verify:
                self._verify(kind, query, got, snapshot, state)

    # -- open-loop readers -------------------------------------------------

    def _open_reader_loop(
        self,
        reader_id: int,
        arrivals: list[Arrival],
        cursor: list[int],
        cursor_lock: threading.Lock,
        t0: float,
        state: _ReaderState,
    ) -> None:
        try:
            self._open_reader_queries(
                arrivals, cursor, cursor_lock, t0, state
            )
        except Exception as exc:  # noqa: BLE001 - must surface in report
            state.divergences.append(f"reader {reader_id} died: {exc!r}")

    def _open_reader_queries(
        self,
        arrivals: list[Arrival],
        cursor: list[int],
        cursor_lock: threading.Lock,
        t0: float,
        state: _ReaderState,
    ) -> None:
        """Serve scheduled arrivals until the schedule is drained.

        Each latency sample is ``completion − scheduled_arrival``: when
        the service (or this reader pool) falls behind, the backlog wait
        lands *in* the measurement instead of silently delaying the
        offered load — the open-loop answer to coordinated omission.
        """
        from .gateway import GatewayOverloaded, ShardDeadlineExceeded

        while True:
            with cursor_lock:
                i = cursor[0]
                if i >= len(arrivals):
                    return
                cursor[0] = i + 1
            arrival = arrivals[i]
            now = time.perf_counter() - t0
            if now < arrival.at_s:
                time.sleep(arrival.at_s - now)
            snapshot = self.service.snapshot()
            try:
                got = _issue(
                    self.service,
                    arrival.kind,
                    arrival.query,
                    self.config.top_k,
                    snapshot,
                )
            except GatewayOverloaded:
                state.shed += 1  # a typed overload outcome, not a bug
                continue
            except ShardDeadlineExceeded:
                state.deadline_exceeded += 1
                continue
            state.recorders[arrival.kind].record(
                time.perf_counter() - t0 - arrival.at_s
            )
            if self.config.verify:
                self._verify(
                    arrival.kind, arrival.query, got, snapshot, state
                )

    # -- the writer + the run ---------------------------------------------

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
        """Probe served answers against an oracle on the writer thread.

        Without a mirror (in-process, snapshot tier) it runs right after
        a publish, while the writer sits at the batch boundary: the
        served snapshot against a fresh full checkpoint clone — the
        known-good publication path, so any difference indicts the
        incremental (cow) snapshot.  With the parent-side brute-force
        mirror of every ingested operation there are two callers.
        Gateway snapshot mode runs it right after a flush, so the mirror
        and the workers' published snapshots coincide.  Immediate mode
        runs it *mid-buffer*, before any flush — served answers are
        defined over everything ingested, so they must match the mirror
        even while documents sit unpublished in the memory tier."""
        snapshot = self.service.snapshot()
        if self._mirror is not None:
            served, pin = self.service, snapshot
            expected, label = self._mirror, "mirror"
        else:
            served, pin = snapshot, None
            expected, label = self.service.writer_index.clone(), "oracle"
        top_k = self.config.top_k
        rng = random.Random(self.config.seed * 104729 + cycle)
        for kind in KINDS:
            for _ in range(self.config.differential_probes):
                query = self._make_query(kind, rng)
                got = _answer_key(
                    kind, _issue(served, kind, query, top_k, pin)
                )
                want = _answer_key(
                    kind, _issue(expected, kind, query, top_k)
                )
                if got != want:
                    divergences.append(
                        f"cycle {cycle} differential {kind} {query!r}: "
                        f"served {got!r}, {label} {want!r}"
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
        arrivals: list[Arrival] = []
        cursor = [0]
        cursor_lock = threading.Lock()
        if cfg.arrival == "open":
            arrivals = self.open_schedule()
        start = time.perf_counter()
        if cfg.arrival == "open":
            threads = [
                threading.Thread(
                    target=self._open_reader_loop,
                    args=(i, arrivals, cursor, cursor_lock, start,
                          states[i]),
                    name=f"reader-{i}",
                    daemon=True,
                )
                for i in range(cfg.readers)
            ]
        else:
            threads = [
                threading.Thread(
                    target=self._reader_loop,
                    args=(i, stop, states[i]),
                    name=f"reader-{i}",
                    daemon=True,
                )
                for i in range(cfg.readers)
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
            from .server import BackgroundMerger

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
                    probe_id = self.service.add_document(probe_word)
                    # The probe's writer-assigned id advances the global
                    # watermark; the skewed id scan must not fall below it.
                    self._skew_next = max(self._skew_next, probe_id + 1)
                    if self._mirror is not None:
                        self._mirror.add_document(probe_id, [probe_word])
                    if cfg.read_tier == "immediate":
                        got = self.service.search_streamed(probe_word)
                        if probe_id in got.doc_ids:
                            probe_seen = time.perf_counter() - probe_t0
                for _ in range(cfg.docs_per_batch):
                    text = self._document(writer_rng)
                    if cfg.doc_skew > 0.0:
                        doc_id = self._skewed_doc_id(writer_rng)
                        self.service.add_document(text, doc_id)
                        self._skew_live.append(doc_id)
                    else:
                        doc_id = self.service.add_document(text)
                    ingested += 1
                    if self._mirror is not None:
                        self._mirror.add_document(doc_id, text.split())
                    if cfg.doc_skew > 0.0:
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
                        due = (
                            cfg.delete_every
                            and doc_id
                            and (doc_id + 1) % cfg.delete_every == 0
                        )
                        victim = writer_rng.randrange(doc_id) if due else None
                    if victim is not None:
                        self.service.delete_document(victim)
                        if self._mirror is not None:
                            self._mirror.delete_document(victim)
                        deleted += 1
                if cfg.differential and cfg.read_tier == "immediate":
                    # Mid-buffer: nothing flushed yet this cycle, but
                    # served answers must already include everything.
                    self._differential_check(cycle, differential_divergences)
                    differential_checks += 1
                if not cfg.background_merge:
                    crashing = self._maybe_crash_plan(cycle)
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
            stop.set()
            # Open-loop readers exit when the schedule drains (they must
            # serve every scheduled arrival, writer done or not).
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
            shed = sum(state.shed for state in states)
            deadline = sum(state.deadline_exceeded for state in states)
            open_loop = {
                "scheduled": len(arrivals),
                "completed": overall.count,
                "shed": shed,
                "deadline_exceeded": deadline,
                "offered_rate_qps": cfg.arrival_rate_qps,
                "schedule_seconds": round(arrivals[-1].at_s, 6)
                if arrivals
                else 0.0,
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
        if cfg.gateway:
            gateway_stats = self.service.gateway_stats()
            for worker in self.service.buffer_stats():
                for key, value in worker.items():
                    if isinstance(value, (int, float)):
                        buffer_cache[key] = buffer_cache.get(key, 0) + value
        elif self.service.buffer_counters is not None:
            buffer_cache = self.service.buffer_counters.as_dict()
        return ServingReport(
            config={
                "readers": cfg.readers,
                "flush_cycles": cfg.flush_cycles,
                "docs_per_batch": cfg.docs_per_batch,
                "vocabulary": cfg.vocabulary,
                "seed": cfg.seed,
                "verify": cfg.verify,
                "delete_every": cfg.delete_every,
                "deleted": deleted,
                "crash_every": cfg.crash_every,
                "transient_rate": cfg.transient_rate,
                "publish_mode": cfg.publish_mode,
                "buffer_cache_blocks": cfg.buffer_cache_blocks,
                "differential": cfg.differential,
                "differential_checks": differential_checks,
                "shards": cfg.shards,
                "gateway": cfg.gateway,
                "arrival": cfg.arrival,
                "arrival_rate_qps": cfg.arrival_rate_qps,
                "arrival_queries": cfg.arrival_queries,
                "read_tier": cfg.read_tier,
                "background_merge": cfg.background_merge,
                "replicas": cfg.replicas,
                "grow_buckets": cfg.grow_buckets,
                "doc_skew": cfg.doc_skew,
                "rebalance": cfg.rebalance,
                "rebalance_threshold": cfg.rebalance_threshold,
            },
            wall_seconds=wall,
            queries=overall.count,
            throughput_qps=overall.count / wall if wall > 0 else 0.0,
            latency=latency,
            # The gateway keeps no parent-side result cache (workers are
            # the authority), so its runs report none.
            cache={}
            if cfg.gateway
            else self.service.cache.stats().as_dict(),
            service=self.service.stats.as_dict(),
            stage_seconds=self.service.timings.as_dict(),
            divergences=len(divergences),
            divergence_examples=divergences,
            buffer_cache=buffer_cache,
            open_loop=open_loop,
            gateway=gateway_stats,
            visibility=visibility_report,
            memtier=memtier_report,
        )
