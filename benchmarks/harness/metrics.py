"""Every metric, derived from the replicas' raw tables.

``end_to_end`` and ``per_layer`` return ``{name: (value, unit)}`` with
exactly the names ``BENCHMARK.json`` lists.  Timing statistics are taken
over per-segment minima (see :mod:`estimator`); counts are read from
replica 0, which the runner has already checked equal to the others.
A layer metric that does not exist on a workload (the ladder outside
``gateway-read``, the result cache outside ``serve-inproc``) reads 0.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from statistics import fmean

from estimator import (
    highest_percentile,
    percentile,
    segment_minima,
    speed_factors,
    speed_sensitivity,
)

INGEST_KINDS = ("add", "delete", "flush")

#: How strongly a kind of segment follows the speed probe, by stack;
#: 1.0 where not listed.  In-process work is the same kind of work as
#: the probe and follows it one to one.  A read through the gateway is
#: part syscalls and wake-ups, which a slow machine slows less: pooling
#: the replica pairs of many noisy runs (see ``speed_sensitivity``) its
#: bias against the share of slow probes vanishes at about 0.85, while
#: gateway writes (mostly worker-side Python) stay at 1.
SENSITIVITY = {("gateway", "query"): 0.85, ("gateway", "probe"): 0.85}
LADDER_RUNGS = ("bare", "service", "sharded", "gateway")
LADDER_STEPS = (
    ("service_overhead", "service", "bare"),
    ("scatter_overhead", "sharded", "service"),
    ("process_boundary", "gateway", "sharded"),
)


def _p50(samples) -> float:
    return percentile(samples, 50) if samples else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Run:
    """The untraced replicas of one workload run: every replica's
    segment times scaled back to the run's best machine speed (by the
    probes around the segment, to the power its kind follows them
    with), then reduced to per-segment minima."""

    def __init__(self, replicas: list[dict]) -> None:
        self.replicas = replicas
        first = replicas[0]
        self.kind: list[str] = first["kind"]
        self.day: list[int] = first["day"]
        self.tags: list[list[str]] = first["tags"]
        self.behaviour: list = first["behaviour"]
        self.counters: dict = first["counters"]
        self.days: int = first["days"]
        self.stack: str = first["stack"]
        self.raw = [replica["time"] for replica in replicas]
        #: The run's fastest speed probe: the machine at its best.
        self.reference = min(min(r["probe_time"]) for r in replicas)
        factors = [self.speed_factors(r) for r in replicas]
        #: Per segment kind, the exponent its times follow the probe with.
        self.sensitivity = {
            kind: SENSITIVITY.get((self.stack, kind), 1.0)
            for kind in dict.fromkeys(self.kind)
        }
        #: The same exponents as this run's replicas happen to show them:
        #: recorded with the run, the evidence SENSITIVITY is set from.
        self.measured_sensitivity = {
            kind: speed_sensitivity(
                [[raw[i] for i in segments] for raw in self.raw],
                [[f[i] for i in segments] for f in factors],
            )
            for kind in self.sensitivity
            for segments in [self.segments(kind)]
        }
        #: Per replica and segment, the divisor that takes the measured
        #: time back to the run's best machine speed.
        self.scale = [self.scale_of(fs) for fs in factors]
        self.minima = segment_minima(
            [
                [t / s for t, s in zip(raw, scale)]
                for raw, scale in zip(self.raw, self.scale)
            ]
        )
        self.ndocs = self.kind.count("add")

    def speed_factors(self, replica: dict) -> list[float]:
        return speed_factors(
            replica["probe_at"], replica["probe_time"], len(self.kind), self.reference
        )

    def scale_of(self, factors: list[float]) -> list[float]:
        return [f ** self.sensitivity[kind] for f, kind in zip(factors, self.kind)]

    def segments(self, *kinds: str, tag: str | None = None) -> list[int]:
        return [
            i
            for i, kind in enumerate(self.kind)
            if kind in kinds and (tag is None or tag in self.tags[i])
        ]

    def ms(self, segments, times=None) -> list[float]:
        times = self.minima if times is None else times
        return [times[i] * 1e3 for i in segments]

    def total(self, segments, times=None) -> float:
        times = self.minima if times is None else times
        return sum(times[i] for i in segments)

    def quartile(self, segment: int) -> int:
        """Which quarter of the collection's growth a segment ran in."""
        return min(3, 4 * self.day[segment] // self.days)

    def visibility_ms(self) -> list[float]:
        """Per batch: from the ``add_document`` of the probe document to
        the first answer containing it — every segment between the two
        is what the driver had to do for the tier (flush and publish on
        the snapshot tier, nothing on the immediate tier)."""
        samples = []
        last_add = None
        for i, kind in enumerate(self.kind):
            if kind == "add":
                last_add = i
            elif kind == "probe":
                samples.append(sum(self.minima[last_add : i + 1]) * 1e3)
        return samples

    def per_flush_minima(self, name: str) -> list[float]:
        """A per-flush sample list the system itself recorded (publish
        latency), scaled like the flush segment it was part of and
        reduced to element-wise minima over replicas."""
        flushes = self.segments("flush")
        return segment_minima(
            [
                [x / scale[i] for x, i in zip(r["counters"][name], flushes)]
                for r, scale in zip(self.replicas, self.scale)
            ]
        )


def end_to_end(run: Run, allow_short_tail: bool = False) -> dict[str, tuple[float, str]]:
    """``allow_short_tail`` (quick runs): report the highest percentile
    the samples support under the p99 name instead of refusing."""
    queries = run.segments("query")
    query_ms = run.ms(queries)
    tail = min(99.0, highest_percentile(len(query_ms)))
    if tail < 99.0 and not allow_short_tail:
        raise ValueError(
            f"{len(query_ms)} query samples support p{tail:g}, not p99"
        )
    flushes = run.segments("flush")
    read_ops = [
        run.behaviour[i][2] for i in queries if run.behaviour[i][2] >= 0
    ]
    kdocs = run.ndocs / 1000.0
    return {
        "setup_s": (run.total(run.segments("setup")), "s"),
        "ingest_docs_per_s": (
            run.ndocs / run.total(run.segments(*INGEST_KINDS)), "1/s",
        ),
        "visibility_ms_p50": (percentile(run.visibility_ms(), 50), "ms"),
        "query_ms_p50": (percentile(query_ms, 50), "ms"),
        "query_ms_p99": (percentile(query_ms, tail), "ms"),
        "query_qps": (len(queries) / run.total(queries), "1/s"),
        "update_io_ops_per_kdoc": (
            sum(run.behaviour[i][0] for i in flushes) / kdocs, "count",
        ),
        "read_ops_per_query": (fmean(read_ops), "count"),
        "space_blocks_per_kdoc": (
            run.counters["disk_allocated_blocks"] / kdocs, "count",
        ),
        "peak_rss_mb": (
            max(
                r["counters"]["rss_kb"] + r["counters"].get("workers_hwm_kb", 0)
                for r in run.replicas
            )
            / 1024.0,
            "MB",
        ),
    }


#: Spans scaled with the sensitivity of a script segment kind other than
#: their own name.  Names that are no kind at all — the harness's own
#: in-process side measurements (lower ladder rungs, wire, tokenize,
#: parse) — are pure Python in one process and use 1.
SPAN_KIND = {
    "query.fetch": "query",
    "ladder.gateway": "query",
    "gateway.ping": "query",
}


def _scale_spans(spans: list[dict], run: Run) -> dict[str, list[dict]]:
    """Spans by name, each with ``took``: its duration scaled back like
    a segment's, by the slower-than-reference factor of the
    ``harness.probe`` spans on its two sides in time."""
    reference = run.reference
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)
    probes = by_name.pop("harness.probe", [])
    ends = [p["end"] for p in probes]
    starts = [p["start"] for p in probes]
    for name, group in by_name.items():
        sensitivity = run.sensitivity.get(SPAN_KIND.get(name, name), 1.0)
        for span in group:
            before = bisect_right(ends, span["start"]) - 1
            after = bisect_left(starts, span["end"])
            around = [
                probes[k]["end"] - probes[k]["start"]
                for k in (before, after)
                if 0 <= k < len(probes)
            ]
            factor = max(1.0, min(around) / reference) if around else 1.0
            span["took"] = (span["end"] - span["start"]) / factor**sensitivity
    return by_name


def _span_metrics(spans: list[dict], run: Run) -> dict[str, tuple[float, str]]:
    """Layer times read off the traced replica's spans."""
    by_name = _scale_spans(spans, run)
    children: dict[int, float] = defaultdict(float)
    for span in by_name["query.fetch"]:
        children[span["parent"]] += span["took"]

    def durations(name: str, scale: float) -> list[float]:
        return [s["took"] * scale for s in by_name[name]]

    out: dict[str, tuple[float, str]] = {}
    tokenize = durations("text.tokenize", 1e6)
    out["text.tokenize_us_per_doc"] = (fmean(tokenize) if tokenize else 0.0, "us")
    out["query.parse_us_p50"] = (_p50(durations("query.parse", 1e6)), "us")
    out["query.fetch_ms_p50"] = (_p50(durations("query.fetch", 1e3)), "ms")
    out["query.fetch_share"] = (
        _ratio(sum(durations("query.fetch", 1.0)), sum(durations("query", 1.0))),
        "ratio",
    )
    out["query.evaluate_self_ms_p50"] = (
        _p50(
            [
                (s["took"] - children[s["id"]]) * 1e3
                for s in by_name["query"]
                if s["id"] in children
            ]
        ),
        "ms",
    )
    out["gateway.ping_ms_p50"] = (_p50(durations("gateway.ping", 1e3)), "ms")
    for direction in ("encode", "decode"):
        # Per list length the fastest repetition, then all lengths pooled.
        fastest: dict[int, float] = {}
        for span in by_name[f"wire.{direction}"]:
            size = int(span["op"].removeprefix("wire"))
            fastest[size] = min(span["took"], fastest.get(size, span["took"]))
        out[f"wire.{direction}_us_per_kposting"] = (
            _ratio(sum(fastest.values()) * 1e9, sum(fastest)), "us",
        )
    # The ladder: per query the minimum over its passes, then p50 and
    # mean per rung; neighbours' differences are one layer's cost, so
    # bare + the three overheads = gateway by construction.
    rung_ms: dict[str, list[float]] = {}
    for rung in LADDER_RUNGS:
        best: dict[str, float] = {}
        for span in by_name[f"ladder.{rung}"]:
            took = span["took"] * 1e3
            best[span["op"]] = min(took, best.get(span["op"], took))
        rung_ms[rung] = list(best.values())
    for suffix, reduce in (("p50", _p50), ("mean", lambda v: fmean(v) if v else 0.0)):
        level = {rung: reduce(rung_ms[rung]) for rung in LADDER_RUNGS}
        for rung in LADDER_RUNGS:
            out[f"ladder.{rung}_ms_{suffix}"] = (level[rung], "ms")
        for name, upper, lower in LADDER_STEPS:
            key = f"ladder.{name}_ms" if suffix == "p50" else f"ladder.{name}_ms_mean"
            out[key] = (level[upper] - level[lower], "ms")
    return out


def per_layer(run: Run, traced: dict, spans: list[dict]) -> dict[str, tuple[float, str]]:
    """``traced`` is the traced replica's table, ``spans`` its trace."""
    c = run.counters
    gateway = run.stack == "gateway"

    def count(name: str):
        return c.get(name, 0)

    adds, flushes = run.segments("add"), run.segments("flush")
    queries = run.segments("query")
    ingest_s = run.total(run.segments(*INGEST_KINDS))
    kdocs = run.ndocs / 1000.0
    last_quarter = [i for i in flushes if run.quartile(i) == 3]
    out = _span_metrics(spans, run)

    add_us = run.total(adds) / len(adds) * 1e6
    out["core.add_us_per_doc"] = (add_us, "us")
    out["core.add_self_us_per_doc"] = (
        add_us - out["text.tokenize_us_per_doc"][0], "us",
    )
    out["core.flush_ms_p50"] = (_p50(run.ms(flushes)), "ms")
    out["core.flush_ms_q4"] = (_p50(run.ms(last_quarter)), "ms")
    out["core.migrations_total"] = (
        sum(run.behaviour[i][2] for i in flushes), "count",
    )
    out["core.long_words_final"] = (count("long_words"), "count")
    out["core.in_place_share"] = (
        _ratio(count("in_place_updates"), count("in_place_possible")),
        "ratio",
    )
    out["core.long_utilization"] = (count("long_utilization"), "ratio")
    out["core.avg_reads_per_long_list"] = (
        count("avg_reads_per_long_list"), "count",
    )
    out["storage.io_ops_per_batch_q4"] = (
        fmean(run.behaviour[i][0] for i in last_quarter), "count",
    )
    out["storage.blocks_written_per_kdoc"] = (
        count("blocks_written") / kdocs, "count",
    )
    lookups = count("buffercache_hits") + count("buffercache_misses")
    out["storage.buffercache_hit_rate"] = (
        _ratio(count("buffercache_hits"), lookups), "ratio",
    )
    out["storage.buffercache_evictions"] = (
        count("buffercache_evictions"), "count",
    )

    for tag in ("boolean", "streamed", "vector", "freq", "mid", "rare"):
        out[f"query.{tag}_ms_p50"] = (
            _p50(run.ms(run.segments("query", tag=tag))), "ms",
        )
    for quarter, label in enumerate(("25", "50", "75", "100")):
        out[f"growth.query_ms_p50_at_{label}"] = (
            _p50(run.ms([i for i in queries if run.quartile(i) == quarter])),
            "ms",
        )
        out[f"growth.flush_ms_at_{label}"] = (
            _p50(run.ms([i for i in flushes if run.quartile(i) == quarter])),
            "ms",
        )

    publish_ms = run.per_flush_minima("publish_ms") if "publish_ms" in c else []
    out["service.publish_ms_p50"] = (_p50(publish_ms), "ms")
    out["service.publish_ms_q4"] = (
        _p50(publish_ms[-max(1, len(publish_ms) // 4):]) if publish_ms else 0.0,
        "ms",
    )
    out["service.flush_share"] = (
        _ratio(
            min(r["counters"].get("serve_flush_s", 0.0) for r in run.replicas),
            ingest_s,
        ),
        "ratio",
    )
    out["service.cow_publishes"] = (count("cow_publishes"), "count")
    out["service.cow_fallbacks"] = (count("cow_fallbacks"), "count")
    out["service.cache_hit_rate"] = (
        _ratio(
            count("cache_hits"),
            count("cache_hits") + count("cache_misses"),
        ),
        "ratio",
    )
    out["service.cache_retained_share"] = (
        _ratio(
            count("cache_entries_retained"),
            count("cache_entries_retained")
            + count("cache_entries_invalidated"),
        ),
        "ratio",
    )
    for tag in ("hot", "cold"):
        out[f"service.{tag}_ms_p50"] = (
            _p50(run.ms(run.segments("query", tag=tag))), "ms",
        )

    out["core.memtier_query_ms_p50"] = (
        _p50(run.ms(run.segments("query", tag="memtier"))), "ms",
    )
    out["core.memtier_epoch_final"] = (count("mem_epoch_final"), "count")
    frames = count("batch_frames") + count("single_read_frames")
    out["gateway.frames_per_query"] = (
        _ratio(frames, len(queries) + run.kind.count("probe")), "count",
    )
    out["gateway.members_per_frame"] = (
        _ratio(count("batched_reads"), count("batch_frames")), "count",
    )
    t = traced["counters"]
    out["gateway.parent_cpu_ms_per_query"] = (
        _ratio(t["parent_cpu_s"] * 1e3, len(queries)) if gateway else 0.0, "ms",
    )
    out["worker.cpu_ms_per_query"] = (
        _ratio(t["worker_cpu_s"] * 1e3, t["cpu_queries"]), "ms",
    )
    out["gateway.add_ms_p50"] = (_p50(run.ms(adds)) if gateway else 0.0, "ms")
    out["gateway.flush_ms_p50"] = (
        _p50(run.ms(flushes)) if gateway else 0.0, "ms",
    )
    out["worker.requests_per_doc"] = (
        _ratio(count("worker_requests"), run.ndocs), "count",
    )
    out["worker.publishes"] = (count("worker_publishes"), "count")
    out["gateway.flushes"] = (count("gateway_flushes"), "count")
    for name in ("reads_served", "stale_discarded", "replica_divergences"):
        out[f"replication.{name}"] = (count(name), "count")

    # Run-quality flags: what a plain single-replica harness would have
    # read, and what tracing costs.
    raw = run.raw[0]
    out["harness.raw_ingest_docs_per_s"] = (
        run.ndocs / run.total(run.segments(*INGEST_KINDS), raw), "1/s",
    )
    out["harness.raw_query_ms_p50"] = (_p50(run.ms(queries, raw)), "ms")
    out["harness.noise_ratio"] = (sum(raw) / sum(run.minima), "ratio")
    untraced_qps = len(queries) / run.total(queries)
    traced_times = [
        t / s
        for t, s in zip(traced["time"], run.scale_of(run.speed_factors(traced)))
    ]
    traced_qps = len(queries) / run.total(queries, traced_times)
    out["harness.trace_overhead_share"] = (
        (untraced_qps - traced_qps) / untraced_qps, "ratio",
    )
    return out
