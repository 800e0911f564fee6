"""Extension X-publish — incremental copy-on-write snapshot publication.

The perf claim of the COW publication work: full-clone publish latency is
O(index) — it re-serializes every bucket, long-list chunk, and directory
entry per publish — while ``clone_incremental`` is O(batch): it copies
only what the batch's delta journal touched and shares the rest with the
previous snapshot.  Two sweeps make the claim measurable:

* **fixed batch, growing index** — publish a constant 32-document batch
  on top of 1 000 / 4 000 / 16 000 pre-loaded documents.  Full-clone p95
  must grow with the index; cow p95 must not, and must be >= 3x faster
  than the full clone at the largest size.
* **fixed index, growing batch** — publish 8 / 32 / 128-document batches
  on a 4 000-document index.  Cow latency tracks the batch size.

Both series land in ``benchmarks/results/BENCH_publish.json``.  The
floors are ratios of wall-clock times, so this is an offline bench, not
a CI gate.  A third measurement sweeps the shared block buffer cache's
budget and archives the hit-rate curve as
``results/ext_publish_buffer_cache.txt``.
"""

import json
import random

from _common import RESULTS_DIR, report
from repro.core.index import IndexConfig
from repro.pipeline.profiling import LatencyRecorder
from repro.service import LoadConfig, LoadGenerator
from repro.textindex import TextDocumentIndex

SIZES = (1_000, 4_000, 16_000)
FIXED_BATCH = 32
BATCH_SWEEP = (8, 32, 128)
SWEEP_NDOCS = 4_000
PUBLISHES_PER_POINT = 6

WORDS = [
    "w" + "".join(chr(ord("a") + (i // 26**p) % 26) for p in range(2, -1, -1))
    for i in range(400)
]


def _document(rng: random.Random) -> str:
    """Zipf-ish document over a letters-only vocabulary."""
    return " ".join(
        WORDS[min(int(rng.paretovariate(0.9)), len(WORDS)) - 1]
        for _ in range(rng.randint(4, 12))
    )


def _make_writer() -> TextDocumentIndex:
    return TextDocumentIndex(
        IndexConfig(
            nbuckets=64,
            bucket_size=256,
            block_postings=16,
            ndisks=2,
            nblocks_override=500_000,
            store_contents=True,
        )
    )


def _load(writer: TextDocumentIndex, rng: random.Random, ndocs: int) -> None:
    for i in range(ndocs):
        writer.add_document(_document(rng))
        if (i + 1) % 500 == 0:
            writer.flush_batch()
    if writer.index.memory.npostings:
        writer.flush_batch()


def _measure_publishes(
    writer: TextDocumentIndex, rng: random.Random, batch_docs: int
) -> dict:
    """Publish ``PUBLISHES_PER_POINT`` batches; time both modes per batch.

    Each cycle flushes one batch, then builds the next snapshot twice
    from the identical writer state: once incrementally (chained off the
    previous cow snapshot, exactly as the service does) and once through
    the full checkpoint clone — so the two series measure the same
    publication work, not different corpora.
    """
    prev = writer.clone()
    writer.index.delta.clear()
    cow_lat, full_lat = LatencyRecorder(), LatencyRecorder()
    for _ in range(PUBLISHES_PER_POINT):
        for _ in range(batch_docs):
            writer.add_document(_document(rng))
        writer.flush_batch()
        delta = writer.index.delta
        with full_lat.span():
            writer.clone()
        with cow_lat.span():
            snapshot = writer.clone_incremental(prev, delta)
        prev = snapshot
        delta.clear()
    return {
        "batch_docs": batch_docs,
        "ndocs": writer.ndocs,
        "cow": cow_lat.summary(),
        "full": full_lat.summary(),
        "speedup_p95": round(
            full_lat.summary()["p95"] / max(cow_lat.summary()["p95"], 1e-9),
            2,
        ),
    }


def test_ext_publish_latency_scaling(capfd):
    rng = random.Random(1994)

    fixed_batch_series = []
    for ndocs in SIZES:
        writer = _make_writer()
        _load(writer, rng, ndocs)
        fixed_batch_series.append(
            _measure_publishes(writer, rng, FIXED_BATCH)
        )

    writer = _make_writer()
    _load(writer, rng, SWEEP_NDOCS)
    batch_sweep_series = [
        _measure_publishes(writer, rng, batch_docs)
        for batch_docs in BATCH_SWEEP
    ]

    # Full-clone publish cost is O(index): it must grow materially from
    # the smallest to the largest corpus.  Cow cost is O(batch): its
    # growth ratio must stay well below the full clone's.
    full_small = fixed_batch_series[0]["full"]["p95"]
    full_large = fixed_batch_series[-1]["full"]["p95"]
    cow_small = fixed_batch_series[0]["cow"]["p95"]
    cow_large = fixed_batch_series[-1]["cow"]["p95"]
    assert full_large > full_small * 2.0, (full_small, full_large)
    assert (cow_large / cow_small) < (full_large / full_small), (
        fixed_batch_series
    )
    # The headline floor: >= 3x faster at the largest smoke corpus.
    assert full_large >= 3.0 * cow_large, (full_large, cow_large)

    payload = {
        "fixed_batch": {
            "batch_docs": FIXED_BATCH,
            "series": fixed_batch_series,
        },
        "batch_sweep": {
            "preloaded_docs": SWEEP_NDOCS,
            "series": batch_sweep_series,
        },
        "publishes_per_point": PUBLISHES_PER_POINT,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(
        RESULTS_DIR / "BENCH_publish.json", "w", encoding="utf-8"
    ) as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")

    lines = [
        f"{'ndocs':>7} {'batch':>6} {'full p95 (ms)':>14} "
        f"{'cow p95 (ms)':>13} {'speedup':>8}"
    ]
    for row in fixed_batch_series + batch_sweep_series:
        lines.append(
            f"{row['ndocs']:>7,} {row['batch_docs']:>6} "
            f"{row['full']['p95'] * 1e3:>14.2f} "
            f"{row['cow']['p95'] * 1e3:>13.2f} "
            f"{row['speedup_p95']:>7.1f}x"
        )
    report("ext_publish", "\n".join(lines), capfd)


def test_ext_publish_buffer_cache_sweep(capfd):
    """Hit rate of the shared block buffer cache vs its block budget
    (the two caches compose: the result cache absorbs repeated queries,
    the buffer cache absorbs distinct queries touching the same hot
    long lists)."""
    rows = []
    for budget in (0, 32, 128, 512):
        config = LoadConfig(
            readers=2,
            flush_cycles=10,
            docs_per_batch=40,
            vocabulary=60,
            seed=1994,
            verify=False,
            check_invariants=False,
            cache_capacity=0,  # isolate the buffer cache
            buffer_cache_blocks=budget,
            pace_s=0.001,
        )
        serving_report = LoadGenerator(config).run()
        stats = serving_report.buffer_cache or {"hits": 0, "misses": 0}
        lookups = stats["hits"] + stats["misses"]
        stats["hit_rate"] = stats["hits"] / lookups if lookups else 0.0
        rows.append((budget, stats))
    # More budget never hurts: hit rate is monotone (modulo the disabled
    # row, which reports 0.0).
    rates = [stats["hit_rate"] for _, stats in rows]
    assert rates[0] == 0.0
    assert rates[-1] >= rates[1], rows

    lines = ["--- block buffer cache: hit rate vs budget ---"]
    lines.append(f"{'blocks':>7} {'hits':>8} {'misses':>8} {'hit rate':>9}")
    for budget, stats in rows:
        lines.append(
            f"{budget:>7} {stats['hits']:>8} {stats['misses']:>8} "
            f"{stats['hit_rate']:>9.1%}"
        )
    report("ext_publish_buffer_cache", "\n".join(lines), capfd)


def test_ext_publish_report_shape():
    """BENCH_publish.json must stay machine-readable with stable keys."""
    path = RESULTS_DIR / "BENCH_publish.json"
    if not path.exists():  # the scaling bench writes it
        return
    data = json.loads(path.read_text(encoding="utf-8"))
    for key in ("fixed_batch", "batch_sweep"):
        assert key in data, key
        for row in data[key]["series"]:
            assert row["cow"]["p95"] >= 0
            assert row["full"]["p95"] >= 0
