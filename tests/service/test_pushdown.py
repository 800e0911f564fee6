"""Query pushdown battery (DESIGN.md §16): every gateway query mode is
answer-level — one member read per shard, shards evaluate, the gateway
merges — and every answer stays byte-identical to the in-process
:class:`ShardedTextIndex` twin and the :class:`BruteForceIndex` oracle,
read ops included.

What is pinned here, rule by rule:

* the ``NOT`` rule — a complementing ``NOT`` answers for the whole
  universe on every shard, so the gateway cuts each shard's answer back
  to its routed slice (random ASTs: bare ``NOT``, ``NOT`` under ``OR``,
  ``NOT NOT``, ``NOT`` on both sides of an ``AND``, unknown words) over
  1–4 shards, with deletions, on the snapshot tier, on the immediate
  tier with unflushed adds and deletes, and under a pinned
  :class:`GatewaySnapshot`;
* the mask-grouped vector reply — summed df, scores accumulated in the
  ranker's own order (compared with ``==``), ties straddling ``top_k``,
  zero and negative weights, unknown terms, 45-term queries;
* no exception — inside a split's overlap window, where two shards
  hold the movers, the vector pushdown carries the routing table so
  each worker counts only its own documents, boolean ``NOT`` stays
  exact, and both still cost one member per shard, on both read tiers;
* the lean scatter's failover — a killed, stale or late first attempt
  on one shard moves exactly the counters the per-member path moved.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.index import IndexConfig
from repro.core.sharded import ShardedTextIndex
from repro.query import boolean as boolean_query
from repro.query import vector as vector_query
from repro.query.boolean import QueryParseError
from repro.query.reference import BruteForceIndex
from repro.service.gateway import AsyncShardGateway
from repro.service.replication import ReplicaState
from repro.textindex import TextDocumentIndex


def small_config() -> IndexConfig:
    return IndexConfig(
        nbuckets=8,
        bucket_size=32,
        block_postings=4,
        ndisks=2,
        nblocks_override=100_000,
    )


def _word(n: int) -> str:
    return f"w{chr(ord('a') + n - 1)}"


#: The shapes the NOT rule distinguishes, always probed.
NOT_SHAPES = [
    "NOT wa",  # bare: complements
    "wa OR NOT wb",  # under OR: complements
    "NOT NOT wa",  # the inner one complements
    "NOT wa AND NOT wb",  # one is a difference, the other complements
    "wa AND NOT wb",  # a difference only: nothing to restrict
    "(NOT wa) AND wb",
    "wb AND NOT (wa OR NOT wc)",  # a complement inside a difference
    "NOT wz",  # unknown word: the whole universe
    "wz OR NOT (wa AND wb)",
]

words = st.sampled_from([_word(n) for n in range(1, 9)] + ["wz"])
boolean_queries = st.recursive(
    words,
    lambda inner: st.one_of(
        inner.map(lambda q: f"NOT {q}"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]} AND {p[1]})"),
        st.tuples(inner, inner).map(lambda p: f"({p[0]} OR {p[1]})"),
    ),
    max_leaves=5,
)
vector_queries = st.dictionaries(
    words,
    st.sampled_from([0.0, -1.5, -0.5, 0.5, 1.0, 2.0]),
    min_size=1,
    max_size=6,
)
doc_words = st.lists(
    st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=4),
    min_size=6,
    max_size=20,
)

gateway_settings = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _twin(shards: int, seed: int):
    """The in-process twin (one volume is not a ``ShardedTextIndex``)."""
    if shards == 1:
        return TextDocumentIndex(small_config())
    return ShardedTextIndex(small_config(), shards=shards, router_seed=seed)


def _scored(ranked):
    return [(d.doc_id, d.score) for d in ranked]


async def _compare(gateway, local, oracle, booleans, vectors, top_ks):
    for query in booleans:
        got = await gateway.search_boolean(query)
        want = local.search_boolean(query)
        assert got.doc_ids == want.doc_ids, query
        assert got.read_ops == want.read_ops, query
        assert got.doc_ids == oracle.search_boolean(query), query
    for weights in vectors:
        for top_k in top_ks:
            got, got_ops = await gateway.search_vector_counted(
                weights, top_k=top_k
            )
            want, want_ops = local.search_vector_counted(
                weights, top_k=top_k
            )
            assert _scored(got) == _scored(want), (weights, top_k)
            assert got_ops == want_ops, (weights, top_k)
            ref = oracle.search_vector(weights, top_k=top_k)
            assert _scored(got) == _scored(ref), (weights, top_k)


@gateway_settings
@given(
    docs=doc_words,
    shards=st.integers(min_value=1, max_value=4),
    seed=st.sampled_from([0, 1, 97]),
    read_tier=st.sampled_from(["snapshot", "immediate"]),
    booleans=st.lists(boolean_queries, min_size=4, max_size=8),
    vectors=st.lists(vector_queries, min_size=2, max_size=4),
)
def test_pushdown_matches_twin_and_oracle(
    docs, shards, seed, read_tier, booleans, vectors
):
    """Snapshot tier: compared at flush boundaries.  Immediate tier: the
    last third of the stream (adds and deletes) is never flushed — the
    unflushed in-process twin answers, and charges, exactly the same."""

    async def main():
        gateway = AsyncShardGateway(
            small_config(),
            shards=shards,
            router_seed=seed,
            read_tier=read_tier,
        )
        await gateway.start()
        try:
            local = _twin(shards, seed)
            oracle = BruteForceIndex()
            last_flush = 2 * len(docs) // 3
            for doc_id, words_ in enumerate(docs):
                text = " ".join(_word(w) for w in sorted(words_))
                assert await gateway.add_document(text) == doc_id
                local.add_document(text)
                oracle.add_document(doc_id, text.split())
                if doc_id % 4 == 3:
                    victim = doc_id - 2
                    await gateway.delete_document(victim)
                    local.delete_document(victim)
                    oracle.delete_document(victim)
                if doc_id == last_flush // 2 or doc_id == last_flush:
                    await gateway.flush()
                    local.flush_batch()
            if read_tier == "snapshot":
                await gateway.flush()
                local.flush_batch()
            await _compare(
                gateway,
                local,
                oracle,
                NOT_SHAPES + booleans,
                vectors,
                (1, 3, 50),
            )
        finally:
            await gateway.close()

    asyncio.run(main())


def test_pinned_gateway_snapshot_keeps_its_universe():
    """A pinned :class:`GatewaySnapshot` fixes the universe (``ndocs``,
    deletion set), not shard state: ``NOT`` complements against the old
    ``ndocs`` and idf divides by it, over the lists as they are now."""

    async def main():
        gateway = AsyncShardGateway(small_config(), shards=3, router_seed=1)
        await gateway.start()
        try:
            oracle = BruteForceIndex()

            async def ingest(start, stop):
                for doc_id in range(start, stop):
                    text = " ".join(
                        _word(1 + (doc_id * k) % 7) for k in (1, 2, 3)
                    )
                    assert await gateway.add_document(text) == doc_id
                    oracle.add_document(doc_id, text.split())

            await ingest(0, 10)
            await gateway.delete_document(4)
            oracle.delete_document(4)
            _, pinned = await gateway.flush()
            await ingest(10, 18)
            await gateway.delete_document(7)
            oracle.delete_document(7)
            await gateway.flush()
            assert pinned.ndocs == 10 and pinned.deleted == {4}
            for query in NOT_SHAPES:
                got = await gateway.search_boolean(query, snapshot=pinned)
                want = [
                    d
                    for d in boolean_query.evaluate(
                        query, oracle.fetch, pinned.ndocs
                    )
                    if d not in pinned.deleted
                ]
                assert got.doc_ids == want, query
                latest = await gateway.search_boolean(query)
                assert latest.doc_ids == oracle.search_boolean(query), query
            weights = {"wa": 2.0, "wb": -1.0, "wc": 0.5}
            got = await gateway.search_vector(
                weights, top_k=6, snapshot=pinned
            )
            want = vector_query.rank(
                weights, oracle.fetch, pinned.ndocs, top_k=6
            )
            assert _scored(got) == _scored(want)
        finally:
            await gateway.close()

    asyncio.run(main())


# -- the mask-grouped vector reply ----------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    docs=st.lists(
        st.sets(st.integers(min_value=0, max_value=11), max_size=5),
        min_size=1,
        max_size=30,
    ),
    owners=st.lists(st.integers(min_value=0, max_value=3), min_size=30,
                    max_size=30),
    weights=st.dictionaries(
        st.integers(min_value=0, max_value=13).map(lambda n: f"t{n:02d}"),
        st.sampled_from([0.0, -2.0, -0.25, 0.25, 1.0, 3.0]),
        min_size=1,
        max_size=14,
    ),
    top_k=st.sampled_from([1, 2, 5, 100]),
)
def test_rank_candidates_equals_rank_over_any_partition(
    docs, owners, weights, top_k
):
    """The pure half of the vector rule, without processes: partition the
    documents over shards any way at all; ranking the shards' grouped
    candidates equals ranking the merged lists — ``==`` on floats."""
    lists: dict[str, list[int]] = {}
    shard_lists: list[dict[str, list[int]]] = [{} for _ in range(4)]
    for doc_id, terms in enumerate(docs):
        for term in sorted(terms):
            word = f"t{term:02d}"
            lists.setdefault(word, []).append(doc_id)
            shard_lists[owners[doc_id]].setdefault(word, []).append(doc_id)
    want = vector_query.rank(
        weights, lambda w: lists.get(w, []), len(docs), top_k=top_k
    )
    terms = vector_query.query_terms(weights)
    replies = [
        vector_query.shard_candidates(
            terms, lambda w, own=own: own.get(w, []), top_k
        )
        for own in shard_lists
    ]
    for _, groups in replies:
        assert all(len(ids) <= top_k for _, ids in groups)
    got = vector_query.rank_candidates(
        weights, terms, replies, len(docs), top_k=top_k
    )
    assert _scored(got) == _scored(want)


def test_vector_ties_long_queries_and_oversized_top_k():
    """Through the gateway: a tie group straddling ``top_k`` across three
    shards, a 45-term query, ``top_k`` far above the candidate count."""

    async def main():
        gateway = AsyncShardGateway(small_config(), shards=3, router_seed=1)
        await gateway.start()
        try:
            local = _twin(3, 1)
            oracle = BruteForceIndex()
            # Alphabetic: the tokenizer splits words at digits.
            vocabulary = [
                f"t{chr(97 + n // 26)}{chr(97 + n % 26)}" for n in range(45)
            ]
            texts = ["wa wb"] * 12  # one mask, twelve tied documents
            texts += [
                " ".join(vocabulary[(i * k) % 45] for k in range(1, 9))
                for i in range(1, 13)
            ]
            for doc_id, text in enumerate(texts):
                await gateway.add_document(text)
                local.add_document(text)
                oracle.add_document(doc_id, set(text.split()))
            await gateway.flush()
            local.flush_batch()
            tied = await gateway.search_vector({"wa": 1.0, "wb": 1.0}, top_k=5)
            assert [d.doc_id for d in tied] == [0, 1, 2, 3, 4]
            assert len({d.score for d in tied}) == 1
            long_query = {
                word: (-1.0 if n % 7 == 0 else 1.0 + n / 8)
                for n, word in enumerate(vocabulary)
            }
            long_query["wz"] = 4.0  # unknown
            long_query["wa"] = 0.0  # never fetched
            # The tied dozen hold no weighted term: twelve candidates.
            assert len(await gateway.search_vector(long_query, top_k=13)) == 12
            await _compare(
                gateway,
                local,
                oracle,
                [],
                [{"wa": 1.0, "wb": 1.0}, long_query],
                (1, 5, 13, 1000),
            )
            with pytest.raises(ValueError, match="top_k must be > 0"):
                await gateway.search_vector({"wa": 1.0}, top_k=0)
        finally:
            await gateway.close()

    asyncio.run(main())


# -- inside a split's overlap window ---------------------------------------


async def _split_probing_the_window(gateway, victim, probe) -> None:
    """Split ``victim`` and run ``probe()`` with the overlap window held
    open: after the cutover, before the victim's tombstone flush."""
    flush_set = gateway._flush_set
    probed = []

    async def held_open(shard_id):
        if gateway._split_overlap:  # the victim's tombstone flush
            await probe()
            probed.append(True)
        await flush_set(shard_id)

    gateway._flush_set = held_open
    try:
        await gateway.split_shard(victim)
    finally:
        del gateway._flush_set
    assert probed and not gateway._split_overlap


async def _summed_df(gateway, terms, routing) -> list[int]:
    """Per-term df summed over the shards' ``eval_vector`` replies."""
    _, replies = await gateway._scatter_read(
        "eval_vector", (terms, 6, routing)
    )
    return [
        sum(dfs[bit] for (dfs, _), _ in replies)
        for bit in range(len(terms))
    ]


async def _fetch_cost(gateway, terms) -> int:
    """What fetching each term once on every shard charges — the read
    ops a vector query over ``terms`` must report, however it travels
    (a one-word boolean query is one fetch)."""
    ndocs, _ = gateway._universe(None)
    cost = 0
    for term in terms:
        _, answers = await gateway._scatter_read(
            "eval_boolean", (term, ndocs)
        )
        cost += sum(ops for _, ops in answers)
    return cost


async def _queries_inside_the_window(read_tier: str) -> None:
    gateway = AsyncShardGateway(
        small_config(), shards=2, router_seed=1, read_tier=read_tier
    )
    await gateway.start()
    try:
        oracle = BruteForceIndex()
        for doc_id in range(24):
            text = " ".join(_word(1 + (doc_id * k) % 6) for k in (1, 2, 5))
            await gateway.add_document(text)
            oracle.add_document(doc_id, text.split())
        await gateway.delete_document(5)
        oracle.delete_document(5)
        await gateway.flush()
        counts = gateway.placement.counts(gateway._active)
        victim = max(counts, key=counts.get)
        weights = {"wa": 2.0, "wb": 1.0, "wc": -0.5}
        terms = ("wa", "wb", "wc")
        true = [len(oracle.fetch(w)) for w in terms]

        async def probe():
            assert len(gateway._active) == 3
            for query in NOT_SHAPES:
                got = await gateway.search_boolean(query)
                assert got.doc_ids == oracle.search_boolean(query), query
            before = gateway.batching.batched_reads
            got, ops = await gateway.search_vector_counted(weights, top_k=6)
            assert _scored(got) == _scored(
                oracle.search_vector(weights, top_k=6)
            )
            # Answer-level here too: one member per active shard.
            assert gateway.batching.batched_reads - before == 3
            assert ops == await _fetch_cost(gateway, terms)
            summed = await _summed_df(gateway, terms, None)
            if read_tier == "snapshot":
                # What the routing argument is for: unfiltered, the
                # summed df counts every mover twice here.
                assert all(s >= t for s, t in zip(summed, true))
                assert summed != true
            else:
                # The victim's mover tombstones are already visible.
                assert summed == true
            assert await _summed_df(gateway, terms, gateway.routing) == true

        await _split_probing_the_window(gateway, victim, probe)
        # Window closed: three disjoint shards, no table on the wire.
        assert await _summed_df(gateway, terms, None) == true
        before = gateway.batching.batched_reads
        got = await gateway.search_vector(weights, top_k=6)
        assert _scored(got) == _scored(
            oracle.search_vector(weights, top_k=6)
        )
        assert gateway.batching.batched_reads - before == 3
        for query in NOT_SHAPES:
            got = await gateway.search_boolean(query)
            assert got.doc_ids == oracle.search_boolean(query), query
    finally:
        await gateway.close()


def test_queries_inside_a_split_overlap_window():
    """Between a split's cutover and the victim's tombstone flush two
    shards hold the movers.  Boolean answers — complements included —
    stay exact (each shard is cut back to its routed slice), and so does
    the vector pushdown, still one member per shard: the gateway sends
    its routing table along and every worker counts only the documents
    routed to it, so the shards' df sum to the global one."""
    asyncio.run(_queries_inside_the_window("snapshot"))


def test_queries_inside_a_split_overlap_window_on_the_immediate_tier():
    """The window is shorter on the immediate tier: the victim's mover
    tombstones are visible once journaled, so at the held-open point
    not even the unfiltered df counts a mover twice, while the routed
    df and every answer stay exact."""
    asyncio.run(_queries_inside_the_window("immediate"))


@gateway_settings
@given(
    docs=doc_words,
    shards=st.integers(min_value=1, max_value=3),
    replicas=st.integers(min_value=1, max_value=2),
    seed=st.sampled_from([0, 1, 97]),
    pick=st.integers(min_value=0, max_value=2),
    read_tier=st.sampled_from(["snapshot", "immediate"]),
    vectors=st.lists(vector_queries, min_size=2, max_size=4),
)
def test_vector_pushdown_is_exact_inside_and_after_the_overlap_window(
    docs, shards, replicas, seed, pick, read_tier, vectors
):
    """Random corpora, deletions, topologies, victims and read tiers:
    vector answers (zero and negative weights, ``top_k`` past the
    candidate count) and their read ops are the oracle's inside the
    held-open window and after it; there the filtered df sum to the
    oracle's, and the unfiltered df over-count by exactly the movers on
    the snapshot tier and not at all on the immediate tier, where the
    victim's mover tombstones are visible once journaled."""

    async def main():
        gateway = AsyncShardGateway(
            small_config(), shards=shards, replicas=replicas,
            router_seed=seed, read_tier=read_tier,
        )
        await gateway.start()
        try:
            oracle = BruteForceIndex()
            live = {}
            for doc_id, words_ in enumerate(docs):
                live[doc_id] = {_word(w) for w in words_}
                text = " ".join(sorted(live[doc_id]))
                assert await gateway.add_document(text) == doc_id
                oracle.add_document(doc_id, text.split())
                if doc_id % 4 == 3:
                    await gateway.delete_document(doc_id - 2)
                    oracle.delete_document(doc_id - 2)
                    del live[doc_id - 2]
            await gateway.flush()
            terms = tuple(_word(n) for n in range(1, 9)) + ("wz",)
            true = [len(oracle.fetch(w)) for w in terms]

            async def check():
                for weights in vectors:
                    cost = await _fetch_cost(
                        gateway, vector_query.query_terms(weights)
                    )
                    for top_k in (1, 3, 200):
                        got, ops = await gateway.search_vector_counted(
                            weights, top_k=top_k
                        )
                        ref = oracle.search_vector(weights, top_k=top_k)
                        assert _scored(got) == _scored(ref), (weights, top_k)
                        assert ops == cost, (weights, top_k)

            old_table = gateway.routing

            async def probe():
                await check()
                table = gateway.routing
                # The immediate tier already hides the victim's movers.
                movers = [
                    words_
                    for doc_id, words_ in live.items()
                    if table.route(doc_id) != old_table.route(doc_id)
                ] if read_tier == "snapshot" else []
                twice = [sum(w in m for m in movers) for w in terms]
                assert await _summed_df(gateway, terms, None) == [
                    t + m for t, m in zip(true, twice)
                ]
                assert await _summed_df(gateway, terms, table) == true

            victim = gateway._active[pick % shards]
            await _split_probing_the_window(gateway, victim, probe)
            await check()
            assert await _summed_df(gateway, terms, None) == true
        finally:
            await gateway.close()

    asyncio.run(main())


# -- the lean scatter's failover ------------------------------------------


DOCS = [
    "apple banana cherry",
    "banana date elderberry",
    "cherry fig grape",
    "apple grape honeydew",
    "kiwi lemon apple banana",
    "mango banana cherry date",
]


def _run(body, **kwargs):
    async def main():
        gateway = AsyncShardGateway(
            small_config(), shards=2, replicas=2, **kwargs
        )
        await gateway.start()
        try:
            oracle = BruteForceIndex()
            for doc_id, text in enumerate(DOCS):
                await gateway.add_document(text)
                oracle.add_document(doc_id, text.split())
            await gateway.flush()
            await body(gateway, oracle)
        finally:
            await gateway.close()

    asyncio.run(main())


QUERY = "banana OR NOT apple"


class TestScatterFailover:
    """One shard's first attempt fails; the other shard's answer is kept
    and only the failed shard continues down its rotation."""

    def test_healthy_scatter_is_one_member_per_shard(self):
        async def body(gateway, oracle):
            got = await gateway.search_boolean(QUERY)
            assert got.doc_ids == oracle.search_boolean(QUERY)
            assert gateway.batching.batched_reads == 2
            assert gateway.batching.batch_frames == 2
            assert gateway.repl.reads_served == 2
            assert gateway.repl.read_failovers == 0
            assert gateway.stats.deadline_exceeded == 0

        _run(body)

    def test_killed_first_attempt(self):
        async def body(gateway, oracle):
            gateway._rebuild_hold_s = 0.3
            gateway._sets[0]._cursor = 0
            gateway.kill_replica(0, 0)
            got = await gateway.search_boolean(QUERY)
            assert got.doc_ids == oracle.search_boolean(QUERY)
            assert gateway.stats.worker_kills_observed == 1
            assert gateway.repl.read_failovers == 1
            assert gateway.repl.reads_served == 2
            assert gateway.repl.reads_waited_for_rebuild == 0
            assert gateway.batching.batched_reads == 3  # 2 + the retry
            # While the victim rebuilds its shard's rotation is one short.
            got = await gateway.search_boolean(QUERY)
            assert got.doc_ids == oracle.search_boolean(QUERY)
            assert gateway.repl.read_failovers == 2
            await gateway.quiesce()

        _run(body)

    def test_stale_first_attempt(self):
        async def body(gateway, oracle):
            rs = gateway._sets[0]
            victim = rs.replicas[0]
            # Hide replica 0 from one publish, then forge its ledger
            # back to "current": only the worker's stamp can tell.
            victim.state = ReplicaState.RECOVERING
            victim.rebuild_task = None
            doc_id = await gateway.add_document("apple banana fig")
            while gateway.route(doc_id) != 0:
                doc_id = await gateway.add_document("apple banana fig")
            for extra in range(len(DOCS), doc_id + 1):
                oracle.add_document(extra, "apple banana fig".split())
            await gateway.flush()
            victim.state = ReplicaState.HEALTHY
            victim.version = rs.expected_version
            victim.log_pos = len(rs.oplog)
            rs._cursor = 0
            served = gateway.repl.reads_served
            got = await gateway.search_boolean(QUERY)
            assert got.doc_ids == oracle.search_boolean(QUERY)
            assert gateway.repl.stale_discarded == 1
            assert gateway.repl.read_failovers == 1
            assert gateway.repl.reads_served == served + 2
            assert victim.state is not ReplicaState.HEALTHY
            await gateway.quiesce()

        _run(body)

    def test_late_first_attempt(self):
        async def body(gateway, oracle):
            slug = gateway._sets[0].replicas[0]
            blocker = asyncio.ensure_future(
                gateway._locked_rpc(slug, "debug_sleep", (0.6,))
            )
            await asyncio.sleep(0.05)
            gateway.shard_timeout_s = 0.15
            gateway._sets[0]._cursor = 0
            got = await gateway.search_boolean(QUERY)
            assert got.doc_ids == oracle.search_boolean(QUERY)
            assert gateway.stats.deadline_exceeded == 1
            assert gateway.repl.read_failovers == 1
            assert gateway.repl.reads_served == 2
            assert gateway.batching.batched_reads == 3
            await blocker

        _run(body)


# -- satellites ------------------------------------------------------------


def test_gateway_parses_a_boolean_query_once(monkeypatch):
    """One parse in the gateway (rejection + the NOT rule); a malformed
    query is refused before a frame is sent."""

    async def main():
        gateway = AsyncShardGateway(small_config(), shards=2)
        await gateway.start()
        try:
            await gateway.add_document("wa wb")
            await gateway.flush()
            parses = []
            parse = boolean_query.parse
            monkeypatch.setattr(
                boolean_query,
                "parse",
                lambda query: parses.append(query) or parse(query),
            )
            got = await gateway.search_boolean("wa AND NOT wc")
            assert got.doc_ids == [0]
            assert parses == ["wa AND NOT wc"]
            frames = gateway.batching.batch_frames
            for query, text in (
                ("wa AND", "unexpected end of query"),
                ("", "empty query"),
                ("wa ! wb", "unexpected character '!' in query"),
                ("(wa OR wb", "unexpected end of query"),
            ):
                with pytest.raises(QueryParseError) as info:
                    await gateway.search_boolean(query)
                assert str(info.value) == text
            assert gateway.batching.batch_frames == frames
        finally:
            await gateway.close()

    asyncio.run(main())
