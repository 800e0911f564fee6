"""Command-line interface.

Seven subcommands cover the library's main entry points::

    repro index DIR -o index.ckpt [--policy SPEC] [--positional]
        Build an index over the ``*.txt`` files of a directory (one
        document per file, ingested in sorted filename order, one batch),
        checkpoint it, and save the vocabulary next to it.

    repro query INDEX.ckpt "cat AND dog" [--phrase | --near K]
        Load a checkpointed index and run a boolean / phrase / proximity
        query; prints matching doc ids (= ingest order) and the I/O cost.

    repro experiment [--policy SPEC ...] [--days N] [--scale S] [--exercise]
                     [--inject-faults] [--fault-rate R] [--fault-seed S]
        Run the paper's pipeline on the synthetic News workload and print
        the evaluation metrics.  ``--scale`` grows the corpus and the
        bucket region together (``ExperimentConfig.at_scale``, the rule
        the benches use).  ``--policy`` may repeat: the long-list
        trace is computed once and replayed against each policy in turn.
        ``--inject-faults`` exercises the disks with transient I/O faults
        injected and reports the retry counts; every policy gets its own
        fault plan seeded from ``--fault-seed`` and the policy, so its
        retries do not depend on what else is on the command line.

    repro serve-bench [--readers N] [--cycles N] [--docs-per-batch N]
                      [--shards N] [--differential]
                      [--gateway] [--replicas K]
                      [--grow-buckets] [--read-tier snapshot|immediate]
                      [--background-merge] [--arrival closed|open]
                      [--arrival-rate QPS] [--arrival-queries N]
                      [--doc-skew S] [--rebalance]
                      [--rebalance-threshold X]
                      [--json PATH]
                      [--inject-faults] [--fault-rate R]
        Run the snapshot-isolated serving benchmark: N reader threads
        issue a mixed boolean/streamed/vector query load against published
        snapshots while the writer flushes batch updates; prints
        throughput, p50/p95/p99 query and publish latency, and cache
        statistics, and writes the machine-readable BENCH_serving report
        with ``--json``.  Every publish is incremental via the delta
        journal, each volume falling back to the full checkpoint clone
        when its journal cannot prove coverage.  ``--differential``
        probes served answers against the driver's own brute-force
        mirror after every flush (mid-buffer on the immediate tier), on
        every host.  ``--inject-faults`` crashes the writer mid-flush on
        a rotating schedule of crash points (plus transient disk faults)
        and recovers.  ``--gateway`` serves through
        one worker process per shard behind the asyncio scatter-gather
        gateway (per-shard deadlines, bounded-queue admission control,
        checkpoint+oplog failover); ``--arrival open`` offers a
        deterministic Poisson schedule at ``--arrival-rate`` whose
        recorded latencies include queue wait.  Gateway reads issued in
        the same event-loop tick share a batch frame per replica.
        ``--doc-skew`` pins explicit doc ids onto Zipf-drawn target
        shards, and ``--rebalance`` (gateway only) answers the skew with
        online shard splits cut over at flush boundaries.

    repro check INDEX.ckpt
        Load a checkpointed index and verify the dual-structure
        invariants (exit status 1 on violation).

    repro figure {table1,fig1,fig7,...,fig14}
        Regenerate one of the paper's tables/figures and print it.

    repro stats [--days N] [--scale S]
        Print the Table-1 corpus statistics of the synthetic workload.

Policy specs are either a named policy (``update-optimized``,
``query-optimized``, ``balanced``, ``recommended-new``,
``recommended-whole``, ``adaptive-new``) or a colon-joined tuple
``STYLE:LIMIT[:ALLOC:K]``, e.g. ``new:z:proportional:2.0``, ``whole:0``,
``fill:z``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from dataclasses import replace

from .core.index import IndexConfig
from .core.policy import Alloc, Limit, Policy, Style
from .pipeline.experiment import Experiment, ExperimentConfig
from .storage.faults import FaultPlan
from .textindex import TextDocumentIndex
from .workload.synthetic import SyntheticNewsConfig

NAMED_POLICIES = {
    "update-optimized": Policy.update_optimized,
    "query-optimized": Policy.query_optimized,
    "balanced": Policy.balanced,
    "recommended-new": Policy.recommended_new,
    "recommended-whole": Policy.recommended_whole,
    "adaptive-new": Policy.adaptive_new,
}


def parse_policy(spec: str) -> Policy:
    """Parse a policy spec (named or ``STYLE:LIMIT[:ALLOC:K]``)."""
    named = NAMED_POLICIES.get(spec)
    if named is not None:
        return named()
    parts = spec.split(":")
    if len(parts) not in (2, 4):
        raise argparse.ArgumentTypeError(
            f"bad policy spec {spec!r}; expected a name "
            f"({', '.join(sorted(NAMED_POLICIES))}) or STYLE:LIMIT[:ALLOC:K]"
        )
    try:
        style = Style(parts[0])
        limit = Limit(parts[1])
        if len(parts) == 2:
            return Policy(style=style, limit=limit)
        alloc = Alloc(parts[2])
        return Policy(style=style, limit=limit, alloc=alloc, k=float(parts[3]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad policy spec {spec!r}: {exc}")


# -- subcommands -------------------------------------------------------------------


def cmd_index(args) -> int:
    directory = pathlib.Path(args.directory)
    files = sorted(directory.glob("*.txt"))
    if not files:
        print(f"no *.txt files under {directory}", file=sys.stderr)
        return 1
    index = TextDocumentIndex(
        IndexConfig(
            policy=args.policy,
            store_contents=True,
            positional=args.positional,
            nbuckets=args.nbuckets,
            bucket_size=args.bucket_size,
        )
    )
    for path in files:
        doc_id = index.add_document(path.read_text(encoding="utf-8"))
        print(f"indexed doc {doc_id}: {path.name}")
    result = index.flush_batch()
    index.save(args.output)
    print(
        f"indexed {len(files)} documents ({result.npostings} postings) "
        f"under policy '{args.policy.name}'"
    )
    print(f"snapshot: {args.output}")
    return 0


def _load_index(path: str) -> TextDocumentIndex:
    return TextDocumentIndex.load(path)


def cmd_query(args) -> int:
    index = _load_index(args.index)
    if args.phrase:
        answer = index.search_phrase(args.query)
        kind = "phrase"
    elif args.near is not None:
        words = args.query.split()
        if len(words) != 2:
            print("--near queries take exactly two words", file=sys.stderr)
            return 1
        answer = index.search_near(words[0], words[1], args.near)
        kind = f"near({args.near})"
    else:
        answer = index.search_boolean(args.query)
        kind = "boolean"
    print(
        f"{kind} query {args.query!r}: {len(answer.doc_ids)} documents "
        f"({answer.read_ops} read ops)"
    )
    for doc in answer.doc_ids:
        print(f"  doc {doc}")
    return 0


def _fault_plan_from_args(args) -> FaultPlan | None:
    if not args.inject_faults:
        return None
    return FaultPlan(seed=args.fault_seed, transient_rate=args.fault_rate)


def _print_run(policy: Policy, run, fault_plan, args, exercise: bool) -> None:
    disks = run.disks
    print(f"policy:               {policy.name}")
    print(f"updates:              {disks.series.nupdates}")
    print(f"long-list I/O ops:    {disks.series.io_ops[-1]:,}")
    print(f"avg reads per list:   {disks.final_avg_reads:.2f}")
    print(f"long-list utilization {disks.final_utilization:.1%}")
    print(
        "in-place updates:     "
        f"{disks.counters.in_place_updates:,} "
        f"({disks.counters.in_place_fraction:.0%} of possible)"
    )
    if exercise:
        if run.exercise.feasible:
            print(f"simulated build time: {run.exercise.total_s:.1f} s")
            if fault_plan is not None and run.exercise.result is not None:
                print(
                    "fault injection:      "
                    f"{run.exercise.result.total_retries} retries "
                    f"(rate {args.fault_rate}, seed {args.fault_seed})"
                )
        else:
            print(f"exercise: INFEASIBLE ({run.exercise.reason})")


def cmd_experiment(args) -> int:
    fault_plan = _fault_plan_from_args(args)
    policies = args.policy or [Policy.recommended_new()]
    config = ExperimentConfig.at_scale(args.scale)
    config = replace(
        config,
        workload=replace(config.workload, days=args.days),
        fault_plan=fault_plan,
    )
    experiment = Experiment(config)
    exercise = args.exercise or args.inject_faults
    runs = experiment.run_policies(policies, exercise=exercise)
    for i, policy in enumerate(policies):
        if i:
            print()
        _print_run(policy, runs[policy.name], fault_plan, args, exercise)
    return 0


def cmd_serve_bench(args) -> int:
    from .service import LoadConfig, LoadGenerator

    verify = True
    if args.gateway:
        # Per-query reference pinning cannot cross the process boundary;
        # differential boundary probes are the gateway's correctness net.
        verify = False
        print(
            "note: --gateway disables per-query verification "
            "(use --differential for boundary probes)"
        )
    elif args.read_tier == "immediate":
        # Immediate answers reflect the live memory tier, not a pinned
        # reference snapshot; the mirror differential covers them.
        verify = False
        print(
            "note: --read-tier immediate disables per-query "
            "verification (use --differential for mid-buffer probes)"
        )
    config = LoadConfig(
        readers=args.readers,
        flush_cycles=args.cycles,
        docs_per_batch=args.docs_per_batch,
        seed=args.seed,
        verify=verify,
        delete_every=args.delete_every,
        crash_every=4 if args.inject_faults and not args.gateway else 0,
        transient_rate=args.fault_rate if args.inject_faults else 0.0,
        # A short writer sleep between cycles so readers interleave.
        pace_s=0.001,
        differential=args.differential,
        shards=args.shards,
        gateway=args.gateway,
        arrival=args.arrival,
        arrival_rate_qps=args.arrival_rate,
        arrival_queries=args.arrival_queries,
        read_tier=args.read_tier,
        background_merge=args.background_merge,
        visibility_probes=True,
        replicas=args.replicas,
        grow_buckets=args.grow_buckets,
        doc_skew=args.doc_skew,
        rebalance=args.rebalance,
        rebalance_threshold=args.rebalance_threshold,
    )
    report = LoadGenerator(config).run()
    overall = report.latency["overall"]
    sharding = (
        f" across {args.shards} shards" if args.shards > 1 else ""
    )
    if args.gateway:
        if args.replicas > 1:
            sharding += f" ({args.replicas} worker processes each)"
        else:
            sharding += " (one worker process each)"
    print(
        f"served {report.queries} queries from {args.readers} readers over "
        f"{args.cycles} flush cycles{sharding} ({report.wall_seconds:.2f} s)"
    )
    if report.open_loop:
        ol = report.open_loop
        print(
            f"open loop:        {ol['scheduled']} arrivals offered at "
            f"{ol['offered_rate_qps']:,.0f}/s over "
            f"{ol['schedule_seconds']:.2f} s "
            f"({ol['completed']} completed, {ol['shed']} shed, "
            f"{ol['deadline_exceeded']} past deadline)"
        )
    print(f"throughput:       {report.throughput_qps:,.0f} queries/s")
    for kind in ("boolean", "streamed", "vector", "overall"):
        summary = report.latency[kind]
        if summary.get("count"):
            print(
                f"latency {kind:<9} p50 {summary['p50'] * 1e6:8.1f} us   "
                f"p95 {summary['p95'] * 1e6:8.1f} us   "
                f"p99 {summary['p99'] * 1e6:8.1f} us   "
                f"({summary['count']} queries)"
            )
    publish = report.latency.get("publish", {})
    if publish.get("count"):
        print(
            f"latency publish   p50 {publish['p50'] * 1e6:8.1f} us   "
            f"p95 {publish['p95'] * 1e6:8.1f} us   "
            f"p99 {publish['p99'] * 1e6:8.1f} us   "
            f"({publish['count']} publishes)"
        )
    if report.cache:
        cache = report.cache
        print(
            f"result cache:     {cache['hits']} hits / "
            f"{cache['misses']} misses "
            f"(rate {cache['hit_rate']:.1%}), {cache['evictions']} evictions, "
            f"{cache['invalidations']} invalidations"
        )
    if report.buffer_cache:
        buffers = report.buffer_cache
        print(
            f"buffer cache:     {buffers['hits']} hits / "
            f"{buffers['misses']} misses (rate {buffers['hit_rate']:.1%}), "
            f"{buffers['evictions']} evictions, "
            f"{buffers['invalidated']} delta-invalidated"
        )
    service = report.service
    if report.gateway:
        gw = report.gateway
        print(
            f"gateway:          {gw['publishes']} worker publishes "
            f"({gw['cow_publishes']} cow, "
            f"{gw['full_clone_publishes']} full, "
            f"{gw['cow_fallbacks']} fallbacks), "
            f"{gw['failovers']} failovers, "
            f"{gw['replayed_ops']} ops replayed, "
            f"{gw['shed']} shed, "
            f"{gw['deadline_exceeded']} deadline misses"
        )
        repl = gw.get("replication", {})
        if repl.get("replicas", 1) > 1 or repl.get("rebuilds_started"):
            print(
                f"replication:      {repl['replicas']} replicas/shard, "
                f"{repl['reads_served']} reads served "
                f"({repl['read_failovers']} failed over, "
                f"{repl['stale_discarded']} stale discarded, "
                f"{repl['reads_waited_for_rebuild']} waited on rebuild), "
                f"{repl['rebuilds_completed']}/"
                f"{repl['rebuilds_started']} rebuilds done, "
                f"{repl['checkpoints_deferred']} checkpoints deferred, "
                f"{repl['replica_divergences']} divergences"
            )
        scheduler = repl.get("scheduler")
        if scheduler and scheduler.get("granted"):
            print(
                f"rebuild sched:    {scheduler['granted']} growths "
                f"granted over {scheduler['rounds']} rounds "
                f"({scheduler['deferred']} deferred, "
                f"{len(scheduler['pending'])} still queued)"
            )
        reb = gw.get("rebalance", {})
        if reb.get("enabled") or reb.get("splits"):
            print(
                f"rebalance:        {reb['splits']} splits, "
                f"{reb['docs_moved']} docs moved "
                f"(cutover {reb['cutover_seconds'] * 1e3:.1f} ms total), "
                f"routing epoch {reb['routing_epoch']}, "
                f"{len(reb['active_shards'])} active shards, "
                f"imbalance {reb['last_imbalance']:.2f}x"
            )
        batching = gw.get("batching", {})
        if batching.get("batch_frames"):
            print(
                f"batching:         {batching['batched_reads']} reads in "
                f"{batching['batch_frames']} batch frames "
                f"({batching['frames_saved']} frames saved)"
            )
    else:
        print(
            f"writer:           {service['publishes']} snapshots published "
            f"({service['cow_publishes']} cow, "
            f"{service['full_clone_publishes']} full, "
            f"{service['cow_fallbacks']} fallbacks), "
            f"{service['documents_ingested']} docs ingested, "
            f"{service['flush_recoveries']} crash recoveries"
        )
    vis = report.visibility
    if vis.get("count"):
        print(
            f"visibility:       {vis['tier']} tier, "
            f"p50 {vis['p50'] * 1e6:,.1f} us from ingest to first hit "
            f"({vis['count']} probes, {vis['misses']} misses)"
        )
    if report.memtier:
        mem = report.memtier
        merge = mem.get("merger")
        merged = (
            f", {merge['merges']} background merges"
            f" ({merge['errors']} errors)"
            if merge
            else ""
        )
        print(
            f"memory tier:      {mem['rebases']} rebases, "
            f"{mem['buffered_postings']} postings still buffered{merged}"
        )
    if config.verify or config.differential:
        print(f"divergences:      {report.divergences}")
    if args.json:
        report.write_json(args.json)
        print(f"wrote {args.json}")
    return 1 if report.divergences else 0


def cmd_check(args) -> int:
    from .core.invariants import check_index

    index = _load_index(args.index)
    report = check_index(index.index)
    print(f"invariant check of {args.index}: {report}")
    return 0 if report.ok else 1


def cmd_figure(args) -> int:
    from . import figures

    result = figures.regenerate(args.name)
    print(result.rendered)
    return 0


def cmd_stats(args) -> int:
    config = ExperimentConfig(
        workload=SyntheticNewsConfig(days=args.days, scale=args.scale)
    )
    print(Experiment(config).stats().as_table())
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Dual-structure inverted index (Tomasic, Garcia-Molina & "
            "Shoens, SIGMOD 1994)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build an index from *.txt files")
    p_index.add_argument("directory")
    p_index.add_argument("-o", "--output", required=True)
    p_index.add_argument(
        "--policy", type=parse_policy, default=Policy.recommended_new()
    )
    p_index.add_argument("--positional", action="store_true")
    p_index.add_argument("--nbuckets", type=int, default=1024)
    p_index.add_argument("--bucket-size", type=int, default=1024)
    p_index.set_defaults(func=cmd_index)

    p_query = sub.add_parser("query", help="query a checkpointed index")
    p_query.add_argument("index")
    p_query.add_argument("query")
    p_query.add_argument("--phrase", action="store_true")
    p_query.add_argument("--near", type=int, default=None, metavar="K")
    p_query.set_defaults(func=cmd_query)

    def add_fault_args(p):
        p.add_argument(
            "--inject-faults",
            action="store_true",
            help="inject transient I/O faults into the exerciser "
            "(implies --exercise)",
        )
        p.add_argument("--fault-rate", type=float, default=0.05)

    p_exp = sub.add_parser(
        "experiment", help="run the evaluation pipeline for one or more policies"
    )
    p_exp.add_argument(
        "--policy",
        type=parse_policy,
        action="append",
        help="may repeat; default: recommended-new",
    )
    p_exp.add_argument("--days", type=int, default=73)
    p_exp.add_argument("--scale", type=float, default=1.0)
    p_exp.add_argument("--exercise", action="store_true")
    add_fault_args(p_exp)
    p_exp.add_argument("--fault-seed", type=int, default=0)
    p_exp.set_defaults(func=cmd_experiment)

    p_serve = sub.add_parser(
        "serve-bench",
        help="benchmark snapshot-isolated concurrent query serving",
    )
    p_serve.add_argument("--readers", type=int, default=4)
    p_serve.add_argument("--cycles", type=int, default=20)
    p_serve.add_argument("--docs-per-batch", type=int, default=20)
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--delete-every", type=int, default=0)
    p_serve.add_argument(
        "--differential",
        action="store_true",
        help="after every flush (mid-buffer on the immediate tier), "
        "compare served answers against the driver's own brute-force "
        "mirror over a probe query set — every host, every tier",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="document-hash shards behind the service "
        "(1 = the single-volume path, unchanged)",
    )
    p_serve.add_argument(
        "--gateway",
        action="store_true",
        help="serve through one worker process per shard behind the "
        "asyncio scatter-gather gateway (no per-query verification; "
        "correctness comes from --differential boundary probes)",
    )
    p_serve.add_argument(
        "--replicas",
        type=int,
        default=1,
        metavar="K",
        help="worker processes per shard (requires --gateway when > 1); "
        "reads load-balance across replicas and fail over when one "
        "dies or lags the published version vector",
    )
    p_serve.add_argument(
        "--grow-buckets",
        action="store_true",
        help="build the volumes with bucket-space growth enabled "
        "(paper §7's rebalancing strategy)",
    )
    p_serve.add_argument(
        "--read-tier",
        choices=("snapshot", "immediate"),
        default="snapshot",
        help="snapshot serves published boundaries only; immediate "
        "merges the in-memory write buffer so documents are queryable "
        "before any flush (no per-query verification; use "
        "--differential for mid-buffer probes against the brute-force "
        "mirror)",
    )
    p_serve.add_argument(
        "--background-merge",
        action="store_true",
        help="drain the memory tier with a background merge thread "
        "instead of the writer's per-cycle flush "
        "(requires --read-tier immediate, in-process only)",
    )
    p_serve.add_argument(
        "--arrival",
        choices=("closed", "open"),
        default="closed",
        help="reader discipline: closed loop, or an open-loop Poisson "
        "schedule whose latencies include queue wait",
    )
    p_serve.add_argument(
        "--arrival-rate",
        type=float,
        default=500.0,
        metavar="QPS",
        help="open-loop offered arrival rate",
    )
    p_serve.add_argument(
        "--arrival-queries",
        type=int,
        default=2000,
        metavar="N",
        help="open-loop total scheduled arrivals",
    )
    p_serve.add_argument(
        "--doc-skew",
        type=float,
        default=0.0,
        metavar="S",
        help="Zipf exponent skewing document placement across shards: "
        "the writer pins explicit doc ids whose hash lands on a "
        "Zipf-drawn target shard (shard 0 hottest; 0 = off)",
    )
    p_serve.add_argument(
        "--rebalance",
        action="store_true",
        help="let the gateway split hot shards online when live-doc "
        "imbalance exceeds --rebalance-threshold "
        "(requires --gateway; cutovers land at flush boundaries and "
        "the report grows a 'rebalance:' line)",
    )
    p_serve.add_argument(
        "--rebalance-threshold",
        type=float,
        default=1.5,
        metavar="X",
        help="max/mean live-doc imbalance that triggers a shard split",
    )
    p_serve.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the machine-readable serving report here",
    )
    add_fault_args(p_serve)
    p_serve.set_defaults(func=cmd_serve_bench)

    p_check = sub.add_parser(
        "check", help="verify the invariants of a checkpointed index"
    )
    p_check.add_argument("index")
    p_check.set_defaults(func=cmd_check)

    p_fig = sub.add_parser(
        "figure",
        help="regenerate one of the paper's tables/figures by id",
    )
    p_fig.add_argument(
        "name",
        choices=sorted(
            __import__("repro.figures", fromlist=["REGISTRY"]).REGISTRY
        ),
    )
    p_fig.set_defaults(func=cmd_figure)

    p_stats = sub.add_parser("stats", help="synthetic corpus statistics")
    p_stats.add_argument("--days", type=int, default=73)
    p_stats.add_argument("--scale", type=float, default=1.0)
    p_stats.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
