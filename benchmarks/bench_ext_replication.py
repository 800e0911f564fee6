"""Extension X-replication — read availability under replica murder,
and staggered vs. unscheduled grow-bucket rebuilds.

Two claims, two arms, one artifact
(``benchmarks/results/BENCH_replication.json``), which holds exact
counts only, so a run leaves it as it was; the timings are printed.

**Availability.** With 2 replicas per shard, SIGKILLing one replica
leaves query availability uninterrupted: no read waits for recovery
(``reads_waited_for_rebuild == 0`` — the claim, and the assertion; the
post-kill read p95 and 2x the healthy baseline are printed beside it,
not gated: both are single-digit milliseconds on this corpus).  The
unreplicated control arm pays the full recovery latency instead: its
first post-kill read blocks on checkpoint restore + op-log replay
(``reads_waited_for_rebuild > 0``).  Zero divergences in both arms —
every answer is compared against an in-process twin.  Read failovers
depend on how long the rebuild takes, so they are printed too.

**Rebuild staggering.** When every shard crosses the growth threshold
in the same flush round, unscheduled growth rehashes all of them at
once and the round's publish pays every full-clone spike together; the
scheduler serializes the grants to at most one shard per round.  The
structural claim (max growths per round: staggered <= 1, unscheduled
>= 2) is asserted and the growths of every round are archived; the
per-round flush and publish latencies of both schedules are printed.
"""

import json
import time

from _common import RESULTS_DIR, report
from repro.core.index import IndexConfig
from repro.core.rebalance import GrowthPolicy
from repro.core.sharded import ShardedTextIndex
from repro.service.gateway import GatewayService

SHARDS = 2
CYCLES = 3
DOCS_PER_BATCH = 30
PROBE_READS = 40

DOC_WORDS = 18
VOCAB = 26

QUERIES = [
    "wa AND wb",
    "wc OR wd",
    "we AND NOT wb",
    "wf OR wa",
]


def _config(grow: bool = False) -> IndexConfig:
    return IndexConfig(
        nbuckets=16,
        bucket_size=64,
        block_postings=8,
        ndisks=2,
        nblocks_override=200_000,
        crash_safe=True,
        grow_buckets=grow,
        growth=GrowthPolicy(occupancy_threshold=0.55),
    )


def _doc(i: int) -> str:
    return " ".join(
        f"w{chr(ord('a') + (i * 7 + k * 3) % VOCAB)}"
        for k in range(DOC_WORDS)
    )


def _read_window(service, twin, n) -> list[float]:
    """n timed streamed reads, each verified against the local twin."""
    samples = []
    for i in range(n):
        query = QUERIES[i % len(QUERIES)]
        t0 = time.perf_counter()
        got = service.search_boolean(query)
        samples.append(time.perf_counter() - t0)
        assert got.doc_ids == twin.search_boolean(query).doc_ids, query
    return samples


def _p(samples, q) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _availability_arm(replicas: int) -> tuple[dict, dict]:
    service = GatewayService(
        _config(), shards=SHARDS, replicas=replicas
    )
    twin = ShardedTextIndex(_config(), shards=SHARDS)
    try:
        doc = 0
        for _ in range(CYCLES):
            for _ in range(DOCS_PER_BATCH):
                service.add_document(_doc(doc))
                twin.add_document(_doc(doc))
                doc += 1
            service.flush_and_publish()
            twin.flush_batch()
        healthy = _read_window(service, twin, PROBE_READS)
        # The murder: SIGKILL shard 0's replica 0 out of band, then keep
        # reading immediately — the gateway discovers the corpse on the
        # next read that routes to it.
        service.kill_replica(0, 0)
        t0 = time.perf_counter()
        first = _read_window(service, twin, 1)[0]
        post_kill = _read_window(service, twin, PROBE_READS - 1)
        window = time.perf_counter() - t0
        service.wait_for_recovery()
        after_recovery = _read_window(service, twin, PROBE_READS // 2)
        repl = service.gateway_stats()["replication"]
        exact = {
            "replicas": replicas,
            "reads_waited_for_rebuild": repl["reads_waited_for_rebuild"],
            "rebuilds_completed": repl["rebuilds_completed"],
            "replica_divergences": repl["replica_divergences"],
        }
        timings = {
            "healthy_p50_ms": round(_p(healthy, 0.50) * 1e3, 3),
            "healthy_p95_ms": round(_p(healthy, 0.95) * 1e3, 3),
            "first_post_kill_read_ms": round(first * 1e3, 3),
            "post_kill_p50_ms": round(_p(post_kill, 0.50) * 1e3, 3),
            "post_kill_p95_ms": round(_p(post_kill, 0.95) * 1e3, 3),
            "post_kill_window_s": round(window, 4),
            "after_recovery_p95_ms": round(
                _p(after_recovery, 0.95) * 1e3, 3
            ),
            "read_failovers": repl["read_failovers"],
        }
        return exact, timings
    finally:
        service.close()


def _storm_config() -> IndexConfig:
    """Tiny bucket space + uniform routing: every shard crosses the
    growth threshold in the same flush round, the storm the scheduler
    exists to smear out."""
    return IndexConfig(
        nbuckets=2,
        bucket_size=64,
        block_postings=16,
        ndisks=2,
        nblocks_override=100_000,
        crash_safe=True,
        grow_buckets=True,
        growth=GrowthPolicy(occupancy_threshold=0.5),
    )


def _storm_doc(i: int) -> str:
    return " ".join(
        f"w{chr(ord('a') + (i * 3 + k) % 24)}" for k in range(6)
    )


async def _stagger_arm(stagger: bool) -> tuple[dict, dict]:
    """Growth storm under the async gateway: ``(exact, timings)``, the
    growths of every round and the flush and publish times of each."""
    from repro.service.gateway import AsyncShardGateway

    gateway = AsyncShardGateway(
        _storm_config(),
        shards=3,
        replicas=1,
        rebuild_stagger=stagger,
    )
    await gateway.start()
    try:
        doc = 0
        growths, flush_ms, publish_ms = [], [], []
        for _ in range(8):
            for _ in range(12):
                await gateway.add_document(_storm_doc(doc))
                doc += 1
            before = [
                (await gateway._locked_rpc(rs.replicas[0], "info", ()))[
                    "nbuckets"
                ]
                for rs in gateway._sets
            ]
            t0 = time.perf_counter()
            await gateway.flush()
            flush_s = time.perf_counter() - t0
            after = [
                (await gateway._locked_rpc(rs.replicas[0], "info", ()))[
                    "nbuckets"
                ]
                for rs in gateway._sets
            ]
            growths.append(sum(1 for b, a in zip(before, after) if a > b))
            flush_ms.append(round(flush_s * 1e3, 3))
            publish_ms.append(round(gateway.last_publish_seconds * 1e3, 3))
        report_ = await gateway.check()
        assert report_.ok, report_.violations
        exact = {
            "stagger": stagger,
            "growths_per_round": growths,
            "total_growths": sum(growths),
            "max_growths_per_round": max(growths),
            "scheduler": (
                gateway.rebuild_scheduler.as_dict()
                if gateway.rebuild_scheduler
                else None
            ),
        }
        timings = {
            "flush_ms": flush_ms,
            "publish_ms": publish_ms,
            "publish_p99_ms": _p(publish_ms, 0.99),
            "publish_max_ms": max(publish_ms),
        }
        return exact, timings
    finally:
        await gateway.close()


def test_ext_replication_availability_and_stagger(capfd):
    import asyncio

    replicated, replicated_timings = _availability_arm(replicas=2)
    unreplicated, unreplicated_timings = _availability_arm(replicas=1)
    staggered, staggered_timings = asyncio.run(_stagger_arm(stagger=True))
    unscheduled, unscheduled_timings = asyncio.run(
        _stagger_arm(stagger=False)
    )

    # Availability, structurally: with a sibling, no read ever waits for
    # recovery and nothing diverges; without one, the first post-kill
    # read pays the full rebuild.
    assert replicated["reads_waited_for_rebuild"] == 0
    assert replicated["replica_divergences"] == 0
    assert replicated["rebuilds_completed"] == 1
    assert unreplicated["reads_waited_for_rebuild"] > 0

    # Staggering, structurally: at most one growth per round scheduled,
    # a storm (>= 2 in one round) unscheduled.
    assert staggered["max_growths_per_round"] <= 1, staggered
    assert unscheduled["max_growths_per_round"] >= 2, unscheduled
    # No growth lost, only deferred.
    assert staggered["total_growths"] >= unscheduled["total_growths"]

    doc = {
        "workload": {
            "shards": SHARDS,
            "cycles": CYCLES,
            "docs_per_batch": DOCS_PER_BATCH,
            "probe_reads": PROBE_READS,
        },
        "availability": {
            "replicated": replicated,
            "unreplicated": unreplicated,
        },
        "stagger": {
            "staggered": staggered,
            "unscheduled": unscheduled,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_replication.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )

    lines = [f"{'arm':>14} {'waited':>7} {'rebuilds':>8} {'diverg.':>7}"]
    for label, arm in (
        ("2 replicas", replicated),
        ("1 replica", unreplicated),
    ):
        lines.append(
            f"{label:>14} {arm['reads_waited_for_rebuild']:>7} "
            f"{arm['rebuilds_completed']:>8} "
            f"{arm['replica_divergences']:>7}"
        )
    for label, arm in (
        ("staggered", staggered),
        ("unscheduled", unscheduled),
    ):
        lines.append(
            f"growth rounds, {label}: {arm['growths_per_round']} "
            f"(max {arm['max_growths_per_round']}/round, "
            f"total {arm['total_growths']})"
        )
    report("BENCH_replication", "\n".join(lines), capfd)

    # Availability in milliseconds, printed for reading: post-kill p95
    # next to 2x the healthy baseline (5 ms absolute floor: both are
    # tiny on this corpus and scheduler noise dominates below that).
    bound_ms = max(2.0 * replicated_timings["healthy_p95_ms"], 5.0)
    with capfd.disabled():
        print(f"post-kill p95 bound (not archived): {bound_ms:.3f} ms")
        for label, timings in (
            ("2 replicas", replicated_timings),
            ("1 replica", unreplicated_timings),
            ("staggered", staggered_timings),
            ("unscheduled", unscheduled_timings),
        ):
            print(f"{label} (not archived): {timings}")
