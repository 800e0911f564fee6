"""Extension X-rebalance — online shard split under a skewed
open loop.

Two arms over the *same* skewed document stream (~6 of 7 documents
hash-routed to shard 0 under the epoch-0 table), one artifact
(``benchmarks/results/BENCH_rebalance.json``):

**Control (epoch 0).** Rebalancing off: the routing table never moves,
so the hot shard keeps ~85% of the corpus and the max/mean doc
imbalance converges to ~1.7x.  Zero divergences — this arm doubles as
the frame-for-frame regression check that the versioned routing table
at epoch 0 *is* the static ``shard_of`` router.

**Rebalance.** The flush-boundary planner watches the same stream and
splits the hot shard's hash slice online (flip-first cutover: publish
the refined table, then tombstone the movers out of the victim).  The
structural claims, all asserted:

* every answer, on every probe cycle of both arms, is byte-identical
  to the brute-force oracle — including probes issued immediately
  after a cutover (zero divergences);
* no read ever waits on a rebuild or errors during a move (zero
  availability gaps, ``reads_waited_for_rebuild == 0``);
* at least one split actually fires, the routing epoch advances, and
  the final doc imbalance lands below the control's and below the
  1.5x reporting bound.

The artifact archives exact counts only, so a rerun leaves it
byte-identical.  Cutover cost (wall seconds spent inside split windows)
and per-cycle read p95s for both arms are printed next to it, so the
latency price of a move is visible beside the balance it buys.
"""

import asyncio
import json
import time

from _common import RESULTS_DIR, report
from repro.core.index import IndexConfig
from repro.core.rebalance import RebalancePlanner, RebalancePolicy
from repro.core.shard import shard_of
from repro.query.reference import BruteForceIndex
from repro.service.gateway import AsyncShardGateway

SHARDS = 2
ROUTER_SEED = 1
CYCLES = 8
DOCS_PER_CYCLE = 15
HOT_RATIO = 7  # 6 of every 7 documents aim at shard 0
DELETE_EVERY = 9
PROBES_PER_CYCLE = 3

DOC_WORDS = 8
VOCAB = 20

QUERIES = [
    "wa AND wb",
    "wc OR wd",
    "wa AND NOT wb",
    "we OR wa",
]


def _config() -> IndexConfig:
    return IndexConfig(
        nbuckets=16,
        bucket_size=64,
        block_postings=8,
        ndisks=2,
        nblocks_override=200_000,
    )


def _doc(i: int) -> str:
    return " ".join(
        f"w{chr(ord('a') + (i * 5 + k * 3) % VOCAB)}"
        for k in range(DOC_WORDS)
    )


def _skewed_ids(n: int) -> list[int]:
    """The shared skewed id stream, pinned to the epoch-0 router so
    both arms ingest the identical sequence."""
    ids = []
    cursor = 0
    for i in range(n):
        target = 0 if i % HOT_RATIO else 1
        while shard_of(cursor, SHARDS, ROUTER_SEED) != target:
            cursor += 1
        ids.append(cursor)
        cursor += 1
    return ids


def _p(samples, q) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


async def _arm(rebalance: bool) -> tuple[dict, dict]:
    """The arm's exact counts, and its wall-clock timings."""
    gateway = AsyncShardGateway(
        _config(),
        shards=SHARDS,
        replicas=2,
        router_seed=ROUTER_SEED,
        rebalance=rebalance,
        rebalance_policy=(
            RebalancePolicy(
                max_imbalance=1.3,
                min_docs=40,
                min_shard_docs=4,
                cooldown=1,
            )
            if rebalance
            else None
        ),
    )
    await gateway.start()
    try:
        oracle = BruteForceIndex()
        ids = _skewed_ids(CYCLES * DOCS_PER_CYCLE)
        live: list[int] = []
        divergences = 0
        cycle_p95 = []
        ingested = 0
        for cycle in range(CYCLES):
            for _ in range(DOCS_PER_CYCLE):
                doc_id = ids[ingested]
                text = _doc(doc_id)
                await gateway.add_document(text, doc_id)
                oracle.add_document(doc_id, text.split())
                live.append(doc_id)
                ingested += 1
                if ingested % DELETE_EVERY == 0 and len(live) > 1:
                    victim = live.pop(len(live) // 2)
                    await gateway.delete_document(victim)
                    oracle.delete_document(victim)
            await gateway.flush()  # the planner may cut over in here
            # Probe immediately after the (possible) cutover: these
            # reads land in the window the flip-first protocol protects.
            samples = []
            for p in range(PROBES_PER_CYCLE):
                for query in QUERIES:
                    t0 = time.perf_counter()
                    got = await gateway.search_boolean(query)
                    samples.append(time.perf_counter() - t0)
                    if got.doc_ids != oracle.search_boolean(query):
                        divergences += 1
            cycle_p95.append(round(_p(samples, 0.95) * 1e3, 3))
        check = await gateway.check()
        assert check.ok, check.violations
        counts = gateway.placement.counts(gateway._active)
        active = {s: counts[s] for s in gateway.routing.shard_ids}
        exact = {
            "rebalance": rebalance,
            "divergences": divergences,
            "splits": gateway.rebalance.splits,
            "docs_moved": gateway.rebalance.docs_moved,
            "routing_epoch": gateway.routing.epoch,
            "active_shards": sorted(active),
            "shard_docs": active,
            "imbalance": round(
                RebalancePlanner.imbalance(active), 4
            ),
            "reads_waited_for_rebuild": (
                gateway.repl.reads_waited_for_rebuild
            ),
            "read_failovers": gateway.repl.read_failovers,
        }
        timings = {
            "cutover_ms": round(gateway.rebalance.cutover_seconds * 1e3, 1),
            "cycle_read_p95_ms": cycle_p95,
        }
        return exact, timings
    finally:
        await gateway.close()


def test_ext_rebalance_split_under_skew(capfd):
    control, control_timings = asyncio.run(_arm(rebalance=False))
    rebalanced, rebalanced_timings = asyncio.run(_arm(rebalance=True))

    # Exactness: both arms answer byte-identically to the oracle on
    # every probe, including the ones fired right after a cutover.
    assert control["divergences"] == 0, control
    assert rebalanced["divergences"] == 0, rebalanced

    # Availability: no read ever waits on a rebuild in either arm.
    assert control["reads_waited_for_rebuild"] == 0
    assert rebalanced["reads_waited_for_rebuild"] == 0

    # The control arm never moves — epoch 0, static router, hot shard
    # keeps its ~1.7x imbalance.
    assert control["splits"] == 0 and control["routing_epoch"] == 0
    assert control["imbalance"] > 1.5

    # The rebalance arm actually moves and lands below the bound.
    assert rebalanced["splits"] >= 1
    assert rebalanced["routing_epoch"] >= 1
    assert rebalanced["docs_moved"] > 0
    assert rebalanced["imbalance"] < 1.5
    assert rebalanced["imbalance"] < control["imbalance"]

    doc = {
        "workload": {
            "shards": SHARDS,
            "cycles": CYCLES,
            "docs_per_cycle": DOCS_PER_CYCLE,
            "hot_ratio": f"{HOT_RATIO - 1}/{HOT_RATIO} to shard 0",
            "delete_every": DELETE_EVERY,
            "imbalance_bound": 1.5,
        },
        "control": control,
        "rebalanced": rebalanced,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_rebalance.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"{'arm':>10} {'splits':>6} {'moved':>6} {'epoch':>5} "
        f"{'imbalance':>9} {'diverg.':>7} {'waited':>6} "
        f"{'failovers':>9}  shard docs",
    ]
    for label, arm in (("control", control), ("rebalance", rebalanced)):
        lines.append(
            f"{label:>10} {arm['splits']:>6} {arm['docs_moved']:>6} "
            f"{arm['routing_epoch']:>5} {arm['imbalance']:>8.2f}x "
            f"{arm['divergences']:>7} "
            f"{arm['reads_waited_for_rebuild']:>6} "
            f"{arm['read_failovers']:>9}  {arm['shard_docs']}"
        )
    report("BENCH_rebalance", "\n".join(lines), capfd)
    with capfd.disabled():
        for label, timings in (
            ("control", control_timings), ("rebalance", rebalanced_timings)
        ):
            print(f"{label} (not archived): {timings}")
