"""Extension X-memtier — the immediate-access memory tier (DESIGN.md §14).

The acceptance claims of the two-tier read path, measured head-to-head on
the same seeded workload across three arms:

* **time to visibility** (snapshot vs immediate): with
  ``read_tier="immediate"`` a document is queryable the moment
  ``add_document`` returns, so the ingest-to-first-hit latency must be at
  least 10x lower than the snapshot tier's floor — the flush cycle itself
  (a snapshot-tier document is invisible until its batch publishes).  The
  visibility arm flushes inline so the probe never contends with a
  concurrent merge and the measurement is deterministic;
* **correctness under concurrency**: the mid-buffer differential probes
  (immediate answers vs. the brute-force mirror of every ingested
  operation) report zero divergences in every arm while readers hammer
  the service;
* **ingest stays fast** (snapshot vs immediate+merger): with the
  background merger draining the buffer off the writer's critical path,
  ingest throughput holds at ≥0.9x the snapshot baseline whose writer
  flushes inline.

The comparison lands in ``benchmarks/results/BENCH_memtier.json`` (the CI
memtier-smoke job uploads the same report as a workflow artifact).
"""

import json
from dataclasses import asdict

from _common import RESULTS_DIR, report
from repro.service import LoadConfig, LoadGenerator

_SHAPE = dict(
    readers=2,
    flush_cycles=10,
    docs_per_batch=40,
    vocabulary=80,
    seed=1994,
    verify=False,
    differential=True,
    differential_probes=3,
    delete_every=11,
)


def _arm(**overrides):
    return LoadGenerator(LoadConfig(**{**_SHAPE, **overrides})).run()


def test_ext_memtier_visibility_and_throughput(capfd):
    snap = _arm(read_tier="snapshot", visibility_probes=True)
    imm = _arm(read_tier="immediate")
    merged = _arm(read_tier="immediate", background_merge=True)

    # Zero divergences in every differential probe run.
    for arm in (snap, imm, merged):
        assert arm.divergences == 0, arm.divergence_examples
        assert arm.visibility["misses"] == 0

    # The background merger actually drained the buffer.
    merger = merged.memtier["merger"]
    assert merger["merges"] >= 1
    assert merger["errors"] == 0
    assert merged.memtier["buffered_postings"] == 0
    assert imm.memtier["buffered_postings"] == 0

    # Time to visibility: immediate is bounded by one in-memory insert +
    # one query; snapshot is bounded below by its own flush cycle.  The
    # inline-flush immediate arm keeps the probe off the merge lock so
    # the comparison is deterministic.
    snap_vis = snap.visibility["p50"]
    imm_vis = imm.visibility["p50"]
    speedup = snap_vis / imm_vis
    assert speedup >= 10.0, (
        f"immediate visibility {imm_vis * 1e6:.1f}us vs snapshot "
        f"{snap_vis * 1e6:.1f}us — only {speedup:.1f}x"
    )

    # Ingest throughput with merges running in the background holds
    # against the inline-flush snapshot baseline.
    docs_snap = snap.service["documents_ingested"]
    docs_merged = merged.service["documents_ingested"]
    ingest_snap = docs_snap / snap.wall_seconds
    ingest_merged = docs_merged / merged.wall_seconds
    ratio = ingest_merged / ingest_snap
    assert ratio >= 0.9, (
        f"immediate ingest {ingest_merged:,.0f} docs/s vs snapshot "
        f"{ingest_snap:,.0f} docs/s — ratio {ratio:.2f}"
    )

    RESULTS_DIR.mkdir(exist_ok=True)
    payload = {
        "snapshot": asdict(snap),
        "immediate": asdict(imm),
        "immediate_merged": asdict(merged),
        "comparison": {
            "visibility_p50_snapshot_s": snap_vis,
            "visibility_p50_immediate_s": imm_vis,
            "visibility_speedup": round(speedup, 2),
            "ingest_docs_per_s_snapshot": round(ingest_snap, 1),
            "ingest_docs_per_s_immediate": round(ingest_merged, 1),
            "ingest_ratio": round(ratio, 4),
            "divergences": (
                snap.divergences + imm.divergences + merged.divergences
            ),
        },
    }
    with open(RESULTS_DIR / "BENCH_memtier.json", "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")

    report(
        "ext_memtier",
        "\n".join(
            [
                f"{'metric':<30} {'snapshot':>12} {'immediate':>12}",
                f"{'visibility p50 (us)':<30} "
                f"{snap_vis * 1e6:>12.1f} {imm_vis * 1e6:>12.1f}",
                f"{'ingest (docs/s)':<30} "
                f"{ingest_snap:>12,.0f} {ingest_merged:>12,.0f}",
                f"{'queries served':<30} "
                f"{snap.queries:>12,} {imm.queries:>12,}",
                f"{'divergences':<30} "
                f"{snap.divergences:>12} "
                f"{imm.divergences + merged.divergences:>12}",
                f"visibility speedup: {speedup:,.0f}x; "
                f"background merges: {merger['merges']} "
                f"({merger['errors']} errors)",
            ]
        ),
        capfd,
    )


def test_ext_memtier_report_shape():
    """BENCH_memtier.json must stay machine-readable with stable keys."""
    path = RESULTS_DIR / "BENCH_memtier.json"
    if not path.exists():  # the comparison bench writes it
        LoadConfig()  # keep imports honest even when skipped
        return
    data = json.loads(path.read_text(encoding="utf-8"))
    for arm in ("snapshot", "immediate", "immediate_merged"):
        assert arm in data, arm
        for key in ("visibility", "latency", "divergences"):
            assert key in data[arm], (arm, key)
    comparison = data["comparison"]
    for key in (
        "visibility_speedup",
        "ingest_ratio",
        "divergences",
    ):
        assert key in comparison, key
    assert comparison["divergences"] == 0
    assert comparison["visibility_speedup"] >= 10.0
