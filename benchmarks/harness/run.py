#!/usr/bin/env python3
"""The one benchmark command.

    python3 benchmarks/harness/run.py --workload paper-batch \\
        --seed 1994 --seconds 20 --trace 0

runs one workload script in R = 3 replicas (fresh subprocesses, hash
seed fixed, pinned to one CPU), checks that the replicas behaved
identically and that every checked answer matched the brute-force
oracle, takes per-segment minima over the replicas, prints every metric
by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": 15233, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
more, traced, replica and reports the per-layer metrics.  ``--quick``
runs one-eighth of the batches with R = 2 as a smoke test; its output is
labelled and ``compare.py`` refuses it as evidence.  Without
``--workload`` all four run in turn.  ``--out FILE`` appends each run's
record to the JSON array in FILE (the input of ``compare.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HARNESS = Path(__file__).resolve().parent
sys.path.insert(0, str(HARNESS))

from estimator import assert_identical  # noqa: E402
from metrics import Run, end_to_end, per_layer  # noqa: E402

WORKLOADS = ("paper-batch", "serve-inproc", "gateway-read", "gateway-write")
OUT = HARNESS / "out"
REPLICAS = 3
QUICK_REPLICAS = 2
QUICK_SHARE = 8
#: A run is well under a minute of work; this only bounds a hang, inside
#: the 180 s the driver allows one run.
RUN_TIMEOUT_S = 170


def run_replica(
    workload, seed, seconds, label, deadline, oracle=False, trace=None
) -> dict:
    result = OUT / f"replica-{workload}-{label}.json"
    command = [
        sys.executable, str(HARNESS / "replica.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--result", str(result),
    ]
    if oracle:
        command.append("--oracle")
    if trace:
        command += ["--trace", str(trace)]
    # A fixed hash seed makes set and dict iteration — hence the order of
    # I/O and the answers — the same in every replica.
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Its own process group, so that whatever happens to the replica no
    # worker it forked outlives the run.
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise SystemExit(f"replica {label} of {workload} exited with {code}")
    try:
        return json.loads(result.read_text())
    finally:
        result.unlink()


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    """One run: the replicas, the identity check, the metrics."""
    OUT.mkdir(exist_ok=True)
    if quick:
        seconds = seconds / QUICK_SHARE
    started = time.perf_counter()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    replicas = [
        run_replica(workload, seed, seconds, i, deadline, oracle=i == 0)
        for i in range(QUICK_REPLICAS if quick else REPLICAS)
    ]
    tables = list(replicas)
    spans: list[dict] = []
    if trace:
        trace_file = OUT / f"trace-{workload}.jsonl"
        tables.append(
            run_replica(workload, seed, seconds, "traced", deadline, trace=trace_file)
        )
        spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
    assert_identical([table["kind"] for table in tables])
    assert_identical([table["behaviour"] for table in tables])

    run = Run(replicas)
    if trace:
        metrics = per_layer(run, tables[-1], spans)
    else:
        metrics = end_to_end(run, allow_short_tail=quick)
    failed = {f["segment"]: f for table in tables for f in table["failed"]}
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "quick": quick,
        "replicas": len(replicas),
        "attempted": len(run.kind),
        "failed": len(failed),
        "failures": list(failed.values())[:10],
        "samples": {
            "query": run.kind.count("query"),
            "visibility": run.kind.count("probe"),
            "docs": run.ndocs,
        },
        "speed_sensitivity": run.measured_sensitivity,
        "wall_s": time.perf_counter() - started,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def append_record(path: Path, record: dict) -> None:
    records = json.loads(path.read_text()) if path.exists() else []
    records.append(record)
    path.write_text(json.dumps(records, indent=1))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    status = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        record = run_workload(
            workload, args.seed, args.seconds, bool(args.trace), args.quick
        )
        if args.out:
            append_record(args.out, record)
        label = " quick: true" if args.quick else ""
        print(
            f"# {workload} seed={args.seed} replicas={record['replicas']} "
            f"docs={record['samples']['docs']} "
            f"queries={record['samples']['query']} "
            f"probes={record['samples']['visibility']} "
            f"wall={record['wall_s']:.1f}s{label}"
        )
        for name, metric in record["metrics"].items():
            print(f"{name:40s} {metric['value']:16.6f} {metric['unit']}")
        for failure in record["failures"]:
            print(f"# failed: {failure}")
        if record["failed"]:
            status = 1
        print(
            json.dumps(
                {
                    "correct": record["failed"] == 0,
                    "attempted": record["attempted"],
                    "failed": record["failed"],
                    "metrics": record["metrics"],
                }
            )
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
