"""One replica: execute a workload script in this process, pinned to one
CPU, timing every segment, and write the raw table to a result file.

The replica computes no statistic: it reports per-segment times, the
behaviour each segment showed (doc ids, I/O ops, answer digests — what
replicas must agree on), end-of-run counters read off the system's own
public stats, and the ops that failed.  ``run.py`` takes per-segment
minima over replicas and derives every metric from them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import zlib
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
sys.path.insert(0, str(HARNESS))
sys.path.insert(0, str(HARNESS.parents[1] / "src"))

from estimator import PROBE_EVERY_S, speed_probe  # noqa: E402


def pin_to_one_cpu() -> None:
    """All figures are "at one cpu": the replica and every worker it
    spawns (they inherit the mask) share the highest allowed CPU, so no
    wake-up crosses cores."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class Recorder:
    """Segment times plus the speed probes between them."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probe_at: list[int] = []  # the segment each probe ran before
        self.probe_time: list[float] = []
        #: The traced replica records every probe as a span too.
        self.on_probe = None
        self.probe()
        self._mark = time.perf_counter()

    def probe(self) -> None:
        start = time.perf_counter()
        self.probe_at.append(len(self.times))
        self.probe_time.append(speed_probe())
        if self.on_probe is not None:
            self.on_probe(start, start + self.probe_time[-1])

    def tick(self) -> None:
        """End one set-up sub-segment (imports; each day's rendering;
        building the system) and probe, so that set-up is scaled piece
        by piece like the script is."""
        self.times.append(time.perf_counter() - self._mark)
        self.probe()
        self._mark = time.perf_counter()


def _digest(result) -> list:
    """What an answer must repeat across replicas: a checksum of its
    content, its length, and the read ops charged (-1: not reported)."""
    if isinstance(result, list):  # ranked ScoredDocuments
        content = repr([(d.doc_id, d.score) for d in result])
        return [zlib.crc32(content.encode()), len(result), -1]
    content = repr(result.doc_ids)
    return [zlib.crc32(content.encode()), len(result.doc_ids), result.read_ops]


class Oracle:
    """Brute-force mirror of every document and deletion; answers are
    compared with it outside the timed segments."""

    def __init__(self) -> None:
        from repro.query.reference import BruteForceIndex

        self.model = BruteForceIndex()

    def mirror(self, step, result) -> None:
        if step.kind == "add":
            self.model.add_document(result, step.words)
        elif step.kind == "delete":
            self.model.delete_document(step.arg)

    def agrees(self, step, result) -> bool:
        if step.kind == "probe":
            return result.doc_ids == self.model.search_boolean(step.words)
        query = step.arg
        if query.mode == "vector":
            return result == self.model.search_vector(query.weights, top_k=10)
        return result.doc_ids == self.model.search_boolean(query.text)


def execute(workload, ops, oracle: Oracle | None, recorder: Recorder) -> dict:
    """Run the script: one closed-loop client, the next segment starting
    when the previous returns."""
    clock = time.perf_counter
    times = recorder.times
    handlers = {
        "add": ops.add,
        "delete": ops.delete,
        "flush": ops.flush,
        "probe": ops.probe,
        "query": ops.query,
    }
    behaviour: list = []
    failed: list[dict] = []
    since_probe = 0.0  # set-up ended with a probe
    previous = "setup"
    for index, step in enumerate(workload.steps, start=len(times)):
        kind = step.kind
        if kind != previous:
            ops.boundary(previous, kind)
            previous = kind
        if since_probe >= PROBE_EVERY_S or kind == "flush":
            recorder.probe()
            since_probe = 0.0
        handler = handlers[kind]
        start = clock()
        try:
            result = handler(step)
        except Exception as exc:  # a failed op, counted and reported
            times.append(clock() - start)
            behaviour.append(f"{type(exc).__name__}: {exc}"[:200])
            failed.append({"segment": index, "kind": kind, "why": behaviour[-1]})
            continue
        times.append(clock() - start)
        since_probe = PROBE_EVERY_S if kind == "flush" else since_probe + times[-1]
        ok = True
        if kind == "add":
            behaviour.append(result)
        elif kind == "delete":
            behaviour.append(0)
        elif kind == "flush":
            behaviour.append([result.io_ops, result.npostings, result.migrations])
        elif kind == "probe":
            ok = step.arg in result.doc_ids
            behaviour.append([int(ok), result.read_ops])
        else:
            behaviour.append(_digest(result))
        if oracle is not None:
            oracle.mirror(step, result)
            if kind == "probe" or step.check:
                ok = ok and oracle.agrees(step, result)
        if not ok:
            failed.append({"segment": index, "kind": kind, "why": "oracle mismatch"})
    ops.boundary(previous, "end")
    recorder.probe()
    return {"behaviour": behaviour, "failed": failed}


# -- end-of-run counters, read off the system's public stats --------------------


def _index_counters(index) -> dict:
    from repro.storage.iotrace import OpKind

    stats = index.stats()
    return {
        "disk_allocated_blocks": stats.disk_allocated_blocks,
        "long_words": stats.long_words,
        "long_utilization": stats.long_utilization,
        "avg_reads_per_long_list": stats.avg_reads_per_long_list,
        "in_place_updates": stats.in_place_updates,
        "in_place_possible": stats.in_place_possible,
        "blocks_written": index.index.trace.count_blocks(OpKind.WRITE),
    }


def _service_counters(service) -> dict:
    counters = _index_counters(service.writer_index)
    cache = service.cache.stats()
    buffers = service.buffer_counters
    counters.update(
        cow_publishes=service.stats.cow_publishes,
        cow_fallbacks=service.stats.cow_fallbacks,
        publish_ms=[s * 1e3 for s in service.publish_latency.samples],
        serve_flush_s=service.timings.get("serve.flush"),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
        cache_entries_retained=cache.entries_retained,
        cache_entries_invalidated=cache.entries_invalidated,
        buffercache_hits=buffers.hits,
        buffercache_misses=buffers.misses,
        buffercache_evictions=buffers.evictions,
    )
    return counters


def _proc_status_kb(pid: int, field: str) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return 0


def _gateway_counters(service) -> dict:
    from io import BytesIO

    from repro import TextDocumentIndex
    from workloads import worker_pids

    stats = service.gateway_stats()
    workers = stats["workers"]
    buffers = [b for b in service.buffer_stats() if b]
    # The facade exposes no block count, so the space axis is read off
    # the per-shard checkpoints the gateway keeps for replica rebuilds
    # (refreshed at every flush): each is the shard writer's full state.
    blocks = sum(
        TextDocumentIndex.load(BytesIO(blob)).stats().disk_allocated_blocks
        for blob in service.gateway._checkpoints
        if blob is not None
    )
    return {
        "disk_allocated_blocks": blocks,
        "cow_publishes": stats["cow_publishes"],
        "cow_fallbacks": stats["cow_fallbacks"],
        "publish_ms": [s * 1e3 for s in service.publish_latency.samples],
        "serve_flush_s": service.timings.get("serve.flush"),
        "buffercache_hits": sum(b["hits"] for b in buffers),
        "buffercache_misses": sum(b["misses"] for b in buffers),
        "buffercache_evictions": sum(b["evictions"] for b in buffers),
        "worker_requests": sum(w["requests"] for w in workers),
        "worker_publishes": sum(w["publishes"] for w in workers),
        "gateway_flushes": stats["flushes"],
        "reads_served": stats["replication"]["reads_served"],
        "stale_discarded": stats["replication"]["stale_discarded"],
        "replica_divergences": stats["replication"]["replica_divergences"],
        "batch_frames": stats["batching"]["batch_frames"],
        "batched_reads": stats["batching"]["batched_reads"],
        "single_read_frames": stats["batching"]["single_read_frames"],
        "mem_epoch_final": max(stats.get("mem_epochs", [0])),
        "workers_hwm_kb": sum(
            _proc_status_kb(pid, "VmHWM") for pid in worker_pids(service)
        ),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--result", required=True, help="result file to write")
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--trace", help="span file to write (traced replica)")
    args = parser.parse_args()

    pin_to_one_cpu()
    recorder = Recorder()
    from workloads import WORKLOADS, Ops

    recorder.tick()
    workload = WORKLOADS[args.workload](args.seed, args.seconds, recorder.tick)
    system = workload.build()
    recorder.tick()
    setup = ["setup"] * len(recorder.times)
    try:
        if args.trace:
            from tracing import TracedOps

            ops = TracedOps(system, workload.stack)
            recorder.on_probe = ops.record_probe
        else:
            ops = Ops(system, workload.stack)
        table = execute(
            workload, ops, Oracle() if args.oracle else None, recorder
        )
        ops.finish(workload, recorder.probe)
        if workload.stack == "bare":
            counters = _index_counters(system)
        elif workload.stack == "service":
            counters = _service_counters(system)
        else:
            counters = _gateway_counters(system)
    finally:
        if workload.stack == "gateway":
            system.close()
    if args.trace:
        counters.update(ops.tracer.counters)
        ops.tracer.write(args.trace)
    counters["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Set-up sub-segments head every per-segment list, so one index
    # addresses a segment everywhere.
    table.update(
        time=recorder.times,
        probe_at=recorder.probe_at,
        probe_time=recorder.probe_time,
        behaviour=[0] * len(setup) + table["behaviour"],
        days=workload.days,
        stack=workload.stack,
        kind=setup + [step.kind for step in workload.steps],
        day=[0] * len(setup) + [step.day for step in workload.steps],
        tags=[[]] * len(setup) + [list(step.tags) for step in workload.steps],
        counters=counters,
    )
    Path(args.result).write_text(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
