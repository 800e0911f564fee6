"""Extension X-batching — micro-batched reads vs. per-read frames.

The tentpole claim of the batching work (DESIGN.md §16): collapsing the
gateway's per-read frames into micro-batches buys back the per-frame
tax — pickle + syscall + dispatch, times shards × replicas — so
*saturated* open-loop throughput rises while *unloaded* p50 stays put
(a frame goes out one loop tick after its first member; nothing waits
on a timer).  Both arms of each comparison drain the identical
deterministic Poisson schedule — same seed, same query payloads, same
scheduled instants — so every latency sample is completion minus
*scheduled* arrival and the comparison is offered-load for offered-load.

Correctness is not assumed: a differential probe run with batching and
coalescing enabled must report zero divergences before any throughput
number counts.

On a single-CPU host the frame tax is pure CPU, so batching still wins
— but both arms time-share one core and run-to-run variance is large,
hence the graduated floor (the acceptance 1.3x applies where workers
own cores).  Floors and measured ratios are archived together in
``benchmarks/results/BENCH_batching.json`` (uploaded by the CI
batching-smoke job).
"""

import json
import os

from _common import RESULTS_DIR, report
from repro.service.loadgen import LoadConfig, LoadGenerator

SHARDS = 4
READERS = 4
SATURATING_QPS = 4000.0
SATURATING_QUERIES = 1200
UNLOADED_QPS = 120.0
UNLOADED_QUERIES = 240
BATCH_SIZE = 16


def _arm_config(
    batch_size: int, rate: float, queries: int, coalesce: bool = False
) -> LoadConfig:
    return LoadConfig(
        readers=READERS,
        flush_cycles=4,
        docs_per_batch=50,
        vocabulary=160,
        seed=9,
        verify=False,
        check_invariants=False,
        shards=SHARDS,
        gateway=True,
        arrival="open",
        arrival_rate_qps=rate,
        arrival_queries=queries,
        queue_limit=queries,  # measure latency, don't shed the backlog
        batch_size=batch_size,
        coalesce=coalesce,
    )


def _arm_metrics(report_obj) -> dict:
    doc = report_obj.as_dict()
    batching = doc["gateway"]["batching"]
    return {
        "wall_seconds": doc["wall_seconds"],
        "throughput_qps": doc["throughput_qps"],
        "completed": doc["open_loop"]["completed"],
        "scheduled": doc["open_loop"]["scheduled"],
        "shed": doc["open_loop"]["shed"],
        "deadline_exceeded": doc["open_loop"]["deadline_exceeded"],
        "latency_overall": doc["latency"]["overall"],
        "batching": batching,
    }


def test_ext_batching_open_loop_throughput(capfd):
    cpus = os.cpu_count() or 1

    # Correctness first: boundary differential probes against the
    # brute-force mirror with batching AND coalescing enabled.  Any
    # divergence voids every throughput number below.
    probe = LoadGenerator(
        LoadConfig(
            readers=2,
            flush_cycles=3,
            docs_per_batch=30,
            vocabulary=120,
            seed=4,
            verify=False,
            differential=True,
            delete_every=11,
            shards=SHARDS,
            replicas=2,
            gateway=True,
            batch_size=BATCH_SIZE,
            coalesce=True,
        )
    ).run()
    assert probe.divergences == 0, probe.divergence_examples

    # Saturated arms: identical schedule, only the wire transport varies.
    sat_plain = LoadGenerator(
        _arm_config(1, SATURATING_QPS, SATURATING_QUERIES)
    ).run()
    sat_batched = LoadGenerator(
        _arm_config(BATCH_SIZE, SATURATING_QPS, SATURATING_QUERIES)
    ).run()

    # Unloaded arms: batching must not tax an idle gateway.
    idle_plain = LoadGenerator(
        _arm_config(1, UNLOADED_QPS, UNLOADED_QUERIES)
    ).run()
    idle_batched = LoadGenerator(
        _arm_config(BATCH_SIZE, UNLOADED_QPS, UNLOADED_QUERIES)
    ).run()

    arms = {
        "saturated_unbatched": sat_plain,
        "saturated_batched": sat_batched,
        "unloaded_unbatched": idle_plain,
        "unloaded_batched": idle_batched,
    }
    for label, arm in arms.items():
        doc = arm.as_dict()
        assert (
            doc["open_loop"]["completed"] + doc["open_loop"]["shed"]
            + doc["open_loop"]["deadline_exceeded"]
            == doc["open_loop"]["scheduled"]
        ), f"{label}: arrivals leaked from the schedule"

    batched_doc = sat_batched.as_dict()["gateway"]["batching"]
    assert batched_doc["batch_frames"] > 0
    assert batched_doc["single_read_frames"] == 0
    plain_doc = sat_plain.as_dict()["gateway"]["batching"]
    assert plain_doc["batch_frames"] == 0

    ratio = sat_batched.throughput_qps / sat_plain.throughput_qps
    # >= 4 cores: workers own cores and the frame tax is the bottleneck
    # batching removes — the acceptance 1.3x floor applies outright.
    # Fewer cores: the saving is still real CPU (fewer pickles, fewer
    # syscalls, fewer task wakeups — measured ~1.2-1.4x on one core)
    # but both arms time-share, so the floor leaves noise headroom.
    floor = 1.3 if cpus >= 4 else 1.15 if cpus >= 2 else 1.05

    p50_plain = idle_plain.as_dict()["latency"]["overall"]["p50"]
    p50_batched = idle_batched.as_dict()["latency"]["overall"]["p50"]
    # Within 1.1x plus a 300 us absolute epsilon: at unloaded p50s of a
    # few ms, pure scheduler jitter is a measurable fraction of 10%.
    p50_budget = p50_plain * 1.1 + 300e-6

    doc = {
        "workload": {
            "shards": SHARDS,
            "readers": READERS,
            "saturating_rate_qps": SATURATING_QPS,
            "saturating_queries": SATURATING_QUERIES,
            "unloaded_rate_qps": UNLOADED_QPS,
            "unloaded_queries": UNLOADED_QUERIES,
            "batch_size": BATCH_SIZE,
        },
        "arms": {
            label: _arm_metrics(arm) for label, arm in arms.items()
        },
        "differential": {
            "replicas": 2,
            "coalesce": True,
            "divergences": probe.divergences,
        },
        "comparison": {
            "cpus": cpus,
            "saturated_throughput_ratio": round(ratio, 3),
            "floor": floor,
            "unloaded_p50_unbatched_s": round(p50_plain, 6),
            "unloaded_p50_batched_s": round(p50_batched, 6),
            "unloaded_p50_budget_s": round(p50_budget, 6),
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_batching.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"{'arm':>20} {'q/s':>8} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'frames':>7} {'saved':>7}",
    ]
    for label, arm in arms.items():
        m = _arm_metrics(arm)
        lines.append(
            f"{label:>20} {m['throughput_qps']:>8.1f} "
            f"{m['latency_overall'].get('p50', 0.0) * 1e3:>8.2f} "
            f"{m['latency_overall'].get('p95', 0.0) * 1e3:>8.2f} "
            f"{m['batching']['batch_frames']:>7} "
            f"{m['batching']['frames_saved']:>7}"
        )
    lines.append(
        f"batched/unbatched saturated throughput: {ratio:.2f}x "
        f"(floor {floor}x, {cpus} cpu(s)); unloaded p50 "
        f"{p50_batched * 1e3:.2f} ms vs {p50_plain * 1e3:.2f} ms "
        f"(budget {p50_budget * 1e3:.2f} ms); divergences: "
        f"{probe.divergences}"
    )
    report("BENCH_batching", "\n".join(lines), capfd)

    assert ratio >= floor, (
        f"batched throughput ratio {ratio:.2f}x below {floor}x floor "
        f"({cpus} cpus)"
    )
    assert p50_batched <= p50_budget, (
        f"unloaded p50 {p50_batched * 1e3:.2f} ms exceeds the "
        f"1.1x-of-unbatched budget {p50_budget * 1e3:.2f} ms"
    )
