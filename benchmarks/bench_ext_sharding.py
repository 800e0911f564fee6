"""Extension X-sharding — document-partitioned flush and query scaling.

The acceptance claim of the sharding work: a 4-shard
:class:`~repro.core.sharded.ShardedTextIndex` flushes the same corpus
faster than one volume while answering every boolean / streamed / vector
query *identically* to the 1-shard oracle (asserted per query).  The
flush win is algorithmic: each shard is a fully provisioned volume, so
sharding multiplies aggregate short-list capacity and each shard's long
lists stay shorter (cheaper migrations and rewrites under the default
policy) — available even on one CPU.  Shards flush serially (a thread
pool lost to the GIL and was removed; the multi-core flush is the
gateway's worker processes).  The measured speedup plus the CPU
topology are always recorded.

Query p95 is reported per kind at shards ∈ {1, 2, 4}: scatter-gather
pays one fetch per shard per term, so sharded read latency drifts up —
the recorded series documents the trade the TUNING.md sharding section
describes.

The measured comparison is archived as
``benchmarks/results/BENCH_sharding.json`` (the CI serving-smoke job
uploads it as a workflow artifact).
"""

import json
import os
import random
import time

from _common import RESULTS_DIR, report
from repro.core.index import IndexConfig
from repro.core.sharded import build_text_index

NDOCS = 4_000
VOCAB = 1_000
BATCH = 500
SHARD_COUNTS = (1, 2, 4)
DELETE_EVERY = 37

BOOLEAN_QUERIES = [
    "w1 AND w2",
    "w3 OR w4",
    "(w1 OR w5) AND NOT w6",
    "w7 AND NOT (w8 OR w9)",
]
STREAMED_QUERIES = ["w1 AND w2 AND w3", "w4 OR w5 OR w6"]
VECTOR_QUERIES = [
    {"w1": 1.0, "w2": 0.5},
    {"w7": 2.0, "w8": 1.0, "w9": 0.25},
]
QUERY_ROUNDS = 20


def _corpus():
    rng = random.Random(5)
    words = [f"w{i}" for i in range(VOCAB)]
    return [
        " ".join(rng.choices(words, k=rng.randint(10, 30)))
        for _ in range(NDOCS)
    ]


def _config():
    return IndexConfig(nbuckets=64, bucket_size=256)


def _p95_ms(samples):
    ordered = sorted(samples)
    return ordered[int(0.95 * (len(ordered) - 1))] * 1_000


def _run_arm(docs, shards):
    index = build_text_index(_config(), shards=shards)
    flush_s = 0.0
    for i, text in enumerate(docs):
        index.add_document(text)
        if i % BATCH == BATCH - 1:
            start = time.perf_counter()
            index.flush_batch()
            flush_s += time.perf_counter() - start
    start = time.perf_counter()
    index.flush_batch()
    flush_s += time.perf_counter() - start
    for doc_id in range(0, NDOCS, DELETE_EVERY):
        index.delete_document(doc_id)

    latencies = {"boolean": [], "streamed": [], "vector": []}
    answers = []
    for _ in range(QUERY_ROUNDS):
        for q in BOOLEAN_QUERIES:
            start = time.perf_counter()
            got = tuple(index.search_boolean(q).doc_ids)
            latencies["boolean"].append(time.perf_counter() - start)
            answers.append(("boolean", q, got))
        for q in STREAMED_QUERIES:
            start = time.perf_counter()
            got = tuple(index.search_streamed(q).doc_ids)
            latencies["streamed"].append(time.perf_counter() - start)
            answers.append(("streamed", q, got))
        for weights in VECTOR_QUERIES:
            start = time.perf_counter()
            got = tuple(
                (s.doc_id, round(s.score, 12))
                for s in index.search_vector(weights, top_k=20)
            )
            latencies["vector"].append(time.perf_counter() - start)
            answers.append(("vector", str(weights), got))

    metrics = {
        "shards": shards,
        "flush_seconds": round(flush_s, 6),
        "flush_docs_per_s": round(NDOCS / flush_s, 1),
        "query_p95_ms": {
            kind: round(_p95_ms(samples), 4)
            for kind, samples in latencies.items()
        },
    }
    return metrics, answers


def test_ext_sharding_flush_and_query(capfd):
    docs = _corpus()
    cpus = os.cpu_count() or 1

    arms = {}
    oracle_answers = None
    checked = divergent = 0
    for shards in SHARD_COUNTS:
        metrics, answers = _run_arm(docs, shards)
        arms[str(shards)] = metrics
        if oracle_answers is None:
            oracle_answers = answers
        else:
            # Byte-identical to the 1-shard oracle: same doc ids, same
            # order, same scores — for every query of every kind.
            for (kind, q, got), (_, _, expected) in zip(
                answers, oracle_answers
            ):
                checked += 1
                if got != expected:
                    divergent += 1
            assert divergent == 0, (
                f"{divergent} sharded answers diverged from the "
                f"1-shard oracle at shards={shards}"
            )

    speedup = (
        arms["1"]["flush_seconds"] / arms["4"]["flush_seconds"]
    )
    # The win is the provisioning one (flushes are serial); the floors
    # keep the headroom quieter multi-core runners have always cleared
    # and ask only for parity on one core.
    floor = 1.15 if cpus >= 4 else 1.05 if cpus >= 2 else 1.0

    doc = {
        "workload": {
            "ndocs": NDOCS,
            "vocabulary": VOCAB,
            "docs_per_batch": BATCH,
            "delete_every": DELETE_EVERY,
            "query_rounds": QUERY_ROUNDS,
        },
        "arms": arms,
        "identity": {
            "queries_compared": checked,
            "divergences": divergent,
        },
        "comparison": {
            "cpus": cpus,
            "flush_speedup_4_shards": round(speedup, 3),
            "floor": floor,
        },
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_sharding.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )

    lines = [
        f"{'shards':>6} {'flush s':>9} {'docs/s':>9} "
        f"{'bool ms':>9} {'strm ms':>9} {'vect ms':>9}  (query p95)",
    ]
    for shards in SHARD_COUNTS:
        m = arms[str(shards)]
        p = m["query_p95_ms"]
        lines.append(
            f"{shards:>6} {m['flush_seconds']:>9.3f} "
            f"{m['flush_docs_per_s']:>9.0f} {p['boolean']:>9.3f} "
            f"{p['streamed']:>9.3f} {p['vector']:>9.3f}"
        )
    lines.append(
        f"4-shard flush speedup: {speedup:.2f}x "
        f"(floor {floor}x, {cpus} cpu(s)); "
        f"{checked} answers vs oracle, {divergent} divergences"
    )
    report("BENCH_sharding", "\n".join(lines), capfd)

    assert speedup >= floor, (
        f"4-shard flush speedup {speedup:.2f}x below {floor}x floor "
        f"({cpus} cpus)"
    )
