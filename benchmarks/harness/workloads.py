"""The four workload scripts.

A workload is a *deterministic script*: a fixed list of :class:`Step`\\ s
(one ``add_document``, one ``delete_document``, one flush, one visibility
probe, one query) generated from ``(seed, seconds)`` alone, plus the
factory of the system it drives.  Every builder takes a ``tick``
callable and calls it once per day of rendering: the replica's set-up
clock.  The program under test sees only the
rendered documents and the queries; everything random lives here.

``seconds`` scales the number of daily batches linearly from the frozen
size at :data:`FULL_SECONDS` (the ``run_seconds`` of ``BENCHMARK.json``),
so a run measures for about that long on the machine the sizes were
tuned on and the script stays a pure function of its arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.index import IndexConfig
from repro.core.policy import Policy
from repro.workload.newsgen import render_article, word_for_id
from repro.workload.synthetic import SyntheticNews, SyntheticNewsConfig

#: ``--seconds`` at which the scripts have their frozen sizes.
FULL_SECONDS = 20

#: Word ids are Zipf ranks, so a query class is a rank range: ``freq``
#: words have long, many-chunk lists; ``rare`` ones sit in a bucket or
#: do not exist.
CLASSES = {"freq": (1, 30), "mid": (31, 1000), "rare": (1001, 20000)}

#: One cycle of the query mix: 15/70/15 % classes x 50 % boolean (three
#: operators) / 25 % streamed / 25 % vector, every pairing once.  With
#: this mix p50 lands inside ``mid`` and p99 inside ``freq``.
_CLASS_SLOTS = ("freq",) * 3 + ("mid",) * 14 + ("rare",) * 3
_MODE_SLOTS = (
    ("and",) * 2 + ("or",) * 2 + ("andnot",) * 2
    + ("streamed",) * 3 + ("vector",) * 3
)
_CYCLE = tuple((k, m) for k in _CLASS_SLOTS for m in _MODE_SLOTS)
_VECTOR_WEIGHTS = (0.5, 1.0, 1.5, 2.0, 3.0)
PROBE_DOC_WORDS = 64


@dataclass
class Query:
    """One generated query: ``mode`` picks the ``search_*`` entry point."""

    mode: str  # "boolean" | "streamed" | "vector"
    text: str | None
    weights: dict[str, float] | None
    klass: str  # "freq" | "mid" | "rare"

    @property
    def key(self):
        weights = self.weights and tuple(sorted(self.weights.items()))
        return (self.mode, self.text, weights)


@dataclass
class Step:
    """One segment of a script."""

    kind: str  # "add" | "delete" | "flush" | "probe" | "query"
    day: int
    #: add: the article text; delete/probe: the doc id; query: a Query.
    arg: object = None
    #: add: the document's words (the oracle's mirror); probe: its word.
    words: object = None
    #: query: diagnostic tags, e.g. ("boolean", "mid", "hot").
    tags: tuple[str, ...] = ()
    #: Compare this answer with the brute-force oracle (untimed).
    check: bool = False


@dataclass
class Workload:
    """A script plus the factory of the system it drives."""

    steps: list[Step]
    days: int
    #: Builds the system under test; called inside the set-up segment.
    build: Callable[[], object]
    #: "bare" | "service" | "gateway": which flush call and which
    #: introspection the executor uses.
    stack: str
    #: gateway-read rebuilds its corpus (documents per day, same index
    #: config) on the lower rungs and replays its final list there.
    ladder_queries: list[Query] = field(default_factory=list)
    ladder_docs: list[list[str]] = field(default_factory=list)
    ladder_config: IndexConfig | None = None


class QueryGenerator:
    """Seeded, stratified query source shared by every workload.

    The seed picks the words and nothing else: the sequence of (class,
    mode) slots is the same for every seed (cycles of :data:`_CYCLE`,
    shuffled by a fixed stream) and ranks are dealt from a shuffled deck
    per class, reshuffled when empty.  Two seeds therefore give
    different queries with the same cost profile, which keeps the
    latency percentiles comparable across seeds.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._slot_rng = random.Random(0)
        self._decks: dict[str, list[int]] = {k: [] for k in CLASSES}
        self._slots: list[tuple[str, str]] = []

    def _word(self, klass: str, taken: set[int]) -> str:
        while True:
            deck = self._decks[klass]
            if not deck:
                lo, hi = CLASSES[klass]
                deck.extend(range(lo, hi + 1))
                self._rng.shuffle(deck)
            rank = deck.pop()
            if rank not in taken:
                taken.add(rank)
                return word_for_id(rank)

    def next(self) -> Query:
        if not self._slots:
            self._slots = list(_CYCLE)
            self._slot_rng.shuffle(self._slots)
        klass, mode = self._slots.pop()
        taken: set[int] = set()
        if mode == "vector":
            weights = {
                self._word(klass, taken): self._rng.choice(_VECTOR_WEIGHTS)
                for _ in range(3)
            }
            return Query("vector", None, weights, klass)
        if mode == "streamed":
            text = " AND ".join(self._word(klass, taken) for _ in range(3))
            return Query("streamed", text, None, klass)
        a, b = self._word(klass, taken), self._word(klass, taken)
        operator = {"and": "AND", "or": "OR", "andnot": "AND NOT"}[mode]
        return Query("boolean", f"{a} {operator} {b}", None, klass)

    def batch(self, n: int) -> list[Query]:
        return [self.next() for _ in range(n)]

    def pool(self, n: int) -> list[Query]:
        """``n`` distinct queries."""
        seen: dict = {}
        while len(seen) < n:
            query = self.next()
            seen.setdefault(query.key, query)
        return list(seen.values())


def scaled_days(full_days: int, seconds: float) -> int:
    """Daily batches for a ``--seconds`` budget (never fewer than four,
    so every growth quartile holds a batch)."""
    return max(4, round(full_days * seconds / FULL_SECONDS))


def probe_word(day: int) -> str:
    """A word no generated document contains: ``y`` is in neither the
    consonant nor the vowel alphabet of :func:`word_for_id`."""
    return "y" + word_for_id(day + 1)


def _query_steps(queries, day, check=False, extra=()) -> list[Step]:
    return [
        Step("query", day, q, tags=(q.mode, q.klass) + tuple(extra), check=check)
        for q in queries
    ]


def _ingest_day(
    news: SyntheticNews, day: int, next_id: int, tick, delete_rng=None, live=None
) -> tuple[list[Step], Step, int]:
    """The day's add steps and its probe step.  The day ends with the
    probe document: the unique probe word plus the day's last documents'
    64 most frequent words, so that the cost of adding it (most of the
    immediate tier's time to visibility) does not follow the seed's
    document lengths.  With ``delete_rng`` every 10th add is followed by
    the deletion of a seeded earlier live document, never a probe
    document.  ``tick`` is called once per day: the replica's set-up
    clock."""
    tick()
    steps: list[Step] = []
    docs = news.day_documents(day)
    docs.append(np.unique(np.concatenate(docs[-3:]))[:PROBE_DOC_WORDS])
    probe = probe_word(day)
    for offset, word_ids in enumerate(docs):
        doc_id = next_id
        next_id += 1
        ids = word_ids.tolist()
        words = [word_for_id(w) for w in ids]
        text = render_article(doc_id, ids, day=day)
        is_probe = offset == len(docs) - 1
        if is_probe:
            text += probe + "\n"
            words.append(probe)
        steps.append(Step("add", day, text, words=words))
        if live is not None:
            if doc_id % 10 == 9 and live:
                victim = live.pop(delete_rng.randrange(len(live)))
                steps.append(Step("delete", day, victim))
            if not is_probe:
                live.append(doc_id)
    return steps, Step("probe", day, next_id - 1, words=probe), next_id


def _news(seed: int, days: int, scale: float) -> SyntheticNews:
    return SyntheticNews(SyntheticNewsConfig(days=days, scale=scale, seed=seed))


# -- the four scripts -----------------------------------------------------------


def paper_batch(seed: int, seconds: float, tick) -> Workload:
    """The paper's own scenario on the bare index: daily batches, a
    flush per day, query lists at the growth quartiles."""
    from repro import TextDocumentIndex

    days = scaled_days(34, seconds)
    news = _news(seed, days, scale=2.0)
    queries = QueryGenerator(seed)
    quartile_days = {days * q // 4 - 1 for q in (1, 2, 3)}
    steps: list[Step] = []
    next_id = 0
    for day in range(days):
        adds, probe, next_id = _ingest_day(news, day, next_id, tick)
        steps += adds
        steps.append(Step("flush", day))
        steps.append(probe)
        if day in quartile_days:
            steps += _query_steps(queries.batch(300), day)
        elif day == days - 1:
            steps += _query_steps(queries.batch(1200), day, check=True)

    def build():
        return TextDocumentIndex(
            IndexConfig(policy=Policy.recommended_new(), crash_safe=False)
        )

    return Workload(steps, days, build, "bare")


def serve_inproc(seed: int, seconds: float, tick) -> Workload:
    """Publish-heavy in-process serving: after every publish 300 queries
    from a fixed pool of 2,048 — 85 % of them uniform over its 64 ``hot``
    queries, which fit the 256-entry result cache, the rest uniform over
    the 1,984 ``cold`` ones, which do not.  A publish invalidates most
    of the cache, so about 3 in 4 queries hit: the median is a hit and
    p99 a miss, neither on the boundary."""
    from repro.service import QueryService

    days = scaled_days(40, seconds)
    news = _news(seed, days, scale=0.5)
    pool = QueryGenerator(seed).pool(2048)
    draw = random.Random(seed + 1)
    steps: list[Step] = []
    next_id = 0
    for day in range(days):
        adds, probe, next_id = _ingest_day(news, day, next_id, tick)
        steps += adds
        steps.append(Step("flush", day))
        steps.append(probe)
        for _ in range(300):
            hot = draw.random() < 0.85
            query = pool[draw.randrange(64) if hot else draw.randrange(64, 2048)]
            steps.append(
                Step(
                    "query",
                    day,
                    query,
                    tags=(query.mode, query.klass, "hot" if hot else "cold"),
                    check=day == days - 1,
                )
            )

    def build():
        return QueryService(
            IndexConfig(policy=Policy.recommended_new(), crash_safe=True),
            shards=1,
            publish_mode="cow",
            buffer_cache_blocks=128,
            cache_capacity=256,
        )

    return Workload(steps, days, build, "service")


def gateway_read(seed: int, seconds: float, tick) -> Workload:
    """The read path across the process boundary: two shard workers,
    query lists at the growth quartiles, the final list replayed."""
    from repro.service import GatewayService

    days = scaled_days(28, seconds)
    news = _news(seed, days, scale=0.5)
    queries = QueryGenerator(seed)
    quartile_days = {days * q // 4 - 1 for q in (1, 2, 3)}
    steps: list[Step] = []
    final: list[Query] = []
    docs: list[list[str]] = []
    next_id = 0
    for day in range(days):
        adds, probe, next_id = _ingest_day(news, day, next_id, tick)
        steps += adds
        docs.append([step.arg for step in adds])
        steps.append(Step("flush", day))
        steps.append(probe)
        if day in quartile_days:
            steps += _query_steps(queries.batch(300), day)
        elif day == days - 1:
            final = queries.batch(600)
            steps += _query_steps(final, day, check=True)
            steps += _query_steps(final, day, extra=("replay",))

    # A sixteenth of the default bucket space per shard: each shard
    # holds about a thousand documents, which the default 1024 x 1024
    # units would swallow whole, leaving no long list, no update I/O and
    # no chunk read anywhere in the workload.
    config = IndexConfig(nbuckets=128, bucket_size=512)

    def build():
        return GatewayService(
            config,
            shards=2,
            replicas=1,
            publish_mode="cow",
            buffer_cache_blocks=128,
            coalesce=False,
        )

    return Workload(
        steps, days, build, "gateway",
        ladder_queries=final, ladder_docs=docs, ladder_config=config,
    )


def gateway_write(seed: int, seconds: float, tick) -> Workload:
    """The same gateway used for writes: two replicas of one shard on
    the immediate tier, deletions, probes and queries against the
    unflushed buffer, a flush (fan-out + checkpoint) per day."""
    from repro.service import GatewayService

    days = scaled_days(26, seconds)
    news = _news(seed, days, scale=0.5)
    queries = QueryGenerator(seed)
    delete_rng = random.Random(seed + 2)
    live: list[int] = []
    steps: list[Step] = []
    next_id = 0
    for day in range(days):
        adds, probe, next_id = _ingest_day(
            news, day, next_id, tick, delete_rng=delete_rng, live=live
        )
        steps += adds
        steps.append(probe)
        steps += _query_steps(
            queries.batch(48), day, check=True, extra=("memtier",)
        )
        steps.append(Step("flush", day))

    def build():
        return GatewayService(
            shards=1, replicas=2, read_tier="immediate", publish_mode="cow"
        )

    return Workload(steps, days, build, "gateway")


class Ops:
    """The calls a script makes into the system under test."""

    def __init__(self, system, stack: str) -> None:
        self.system = system
        self.stack = stack

    def add(self, step):
        return self.system.add_document(step.arg)

    def delete(self, step):
        self.system.delete_document(step.arg)

    def flush(self, step):
        if self.stack == "bare":
            return self.system.flush_batch()
        return self.system.flush_and_publish()[0]

    def probe(self, step):
        return self.system.search_boolean(step.words)

    def query(self, step):
        query = step.arg
        if query.mode == "boolean":
            return self.system.search_boolean(query.text)
        if query.mode == "streamed":
            return self.system.search_streamed(query.text)
        return self.system.search_vector(query.weights, top_k=10)

    def boundary(self, before: str, after: str) -> None:
        """The script moved from one kind of segment to another."""

    def finish(self, workload, speed_probe) -> None:
        """The script ended; the system is still open.  ``speed_probe``
        runs (and records) one more probe of the machine's speed."""


def worker_pids(service) -> list[int]:
    """Every replica process of every shard (``ping`` names its pid)."""
    gateway = service.gateway
    return [
        service._run(gateway.ping(shard, replica=replica))["pid"]
        for shard in range(gateway.nshards)
        for replica in range(gateway.replicas)
    ]


WORKLOADS = {
    "paper-batch": paper_batch,
    "serve-inproc": serve_inproc,
    "gateway-read": gateway_read,
    "gateway-write": gateway_write,
}
