#!/usr/bin/env python3
"""Compare two sets of runs, per workload x end-to-end metric.

    python3 benchmarks/harness/compare.py A.json B.json

A.json is the base (the parent commit, or the first of two sets of the
same commit), B.json the candidate; both are files ``run.py --out``
wrote.  For every pairing the table gives each side's median and
quartiles, the ratio B/A with its base, and a verdict by the metric's
bound in ``BENCHMARK.json``:

* ``worse``        B's median is worse than A's by more than the bound;
* ``unresolved``   the run-to-run spread (quartile distance over median,
                   either side) is wider than the bound, so "no worse"
                   cannot be told from noise — unless every run of B
                   reads better than every run of A;
* ``within-bound`` otherwise.

Quick runs are smoke tests, not evidence: a file holding one is refused.
Exit status is 1 when any pairing is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load(path: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for record in json.loads(Path(path).read_text()):
        if record["quick"]:
            raise SystemExit(f"{path}: holds a --quick run; not evidence")
        if record["trace"]:
            continue
        if record["failed"]:
            raise SystemExit(f"{path}: a {record['workload']} run had failed ops")
        for name, metric in record["metrics"].items():
            values[record["workload"]][name].append(metric["value"])
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0  # worse = larger signed value
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if sign * (b_med - a_med) > bound * abs(a_med):
        return "worse"
    spread = max((a_q3 - a_q1) / abs(a_med), (b_q3 - b_q1) / abs(b_med))
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if spread > bound and not all_better:
        return "unresolved"
    return "within-bound"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, candidate = load(argv[1]), load(argv[2])
    status = 0
    header = (
        f"{'workload':14s} {'metric':24s} {'unit':6s} "
        f"{'A median [q1, q3] (n)':>38s} {'B median [q1, q3] (n)':>38s} "
        f"{'B/A':>7s} {'bound':>6s}  verdict"
    )
    print(header)
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name)
            b = candidate.get(workload, {}).get(name)
            if not a or not b:
                print(f"{workload:14s} {name:24s} missing from one side")
                status = 1
                continue
            cells = []
            for side in (a, b):
                q1, median, q3 = quartiles(side)
                cells.append(f"{median:.5g} [{q1:.5g}, {q3:.5g}] ({len(side)})")
            result = verdict(a, b, metric["better"], metric["bound"])
            if result == "worse":
                status = 1
            ratio = quartiles(b)[1] / quartiles(a)[1]
            print(
                f"{workload:14s} {name:24s} {metric['unit']:6s} "
                f"{cells[0]:>38s} {cells[1]:>38s} "
                f"{ratio:7.3f} {metric['bound']:6.2f}  {result}"
            )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
