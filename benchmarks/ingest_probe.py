"""Where ``paper-batch``'s ingest time goes: lexing, word ids, the batch
insert, the §2 merge, and the cyclic collector.

Replays the harness's ``paper-batch`` script (the seed, ``--seconds``)
into the bare ``TextDocumentIndex`` it builds, making the calls
``TextDocumentIndex.add_document`` makes, one piece at a time:

* lexing: ``tokenize``, every token of the document, repeats included
  (the harness's ``text.tokenize`` span times ``tokenize_document``
  instead, which also drops the repeats: a step the add path leaves to
  the batch);
* word ids: ``Vocabulary.ids_of`` on those tokens;
* batch insert: ``DualStructureIndex.add_document`` on those ids, which
  drops the repeated ones;

then every day's ``flush_batch``, whose ``BucketManager.merge`` call is
timed on its own and divided by the words it merged.  The cyclic
collector's runs and seconds are counted by generation over the whole
replay (``gc.callbacks``), and each piece's time is given without the
collections that ran inside it, which land wherever the allocation
count happens to cross a threshold; those are listed by piece.  The
process is pinned to one CPU, as a harness replica is, and every figure
is from the replay whose pieces summed to the least time of
``--repeat``.

The harness's machine-speed probe (``estimator.speed_probe``) runs before
the first replay and after each one, and every replay is listed with the
probes on its two sides and its slowdown factor
(``estimator.speed_factors``: the smaller of those two probes over the
run's fastest).  A replay marked ``slow`` ran while the machine was
slower than at its fastest, so its figures cannot tell a slow period from
a regression.

    python3 benchmarks/ingest_probe.py                        # seed 1994, 20 s script
    python3 benchmarks/ingest_probe.py --seed 27182 --repeat 5
    python3 benchmarks/ingest_probe.py --seconds 2 --repeat 1  # CI smoke

Prints timings only and gates on nothing.  Run from the repository root;
standard library only.
"""

import argparse
import gc
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "harness"))

from estimator import speed_factors, speed_probe  # noqa: E402
from repro.text.tokenizer import tokenize  # noqa: E402
from workloads import paper_batch  # noqa: E402

PIECES = ("lex", "word ids", "batch insert")
TIMED = PIECES + ("merge", "flush")


def replay(workload) -> dict:
    """One replay: seconds per piece (collections excluded), merge words,
    collector seconds per piece, and collector ``[runs, seconds]`` per
    generation."""
    clock = time.perf_counter
    text_index = workload.build()
    core = text_index.index
    vocabulary, config = text_index.vocabulary, text_index.tokenizer_config
    out = dict.fromkeys(TIMED, 0.0)
    out.update(merged_words=0, docs=0, batches=0)
    #: Collector seconds inside each piece ("other": between pieces).
    in_gc = dict.fromkeys(TIMED + ("other",), 0.0)
    running = ["other"]
    merge = core.buckets.merge

    def timed_merge(*args):
        running[0] = "merge"
        start = clock()
        try:
            return merge(*args)
        finally:
            out["merge"] += clock() - start
            running[0] = "flush"

    core.buckets.merge = timed_merge
    collections = {generation: [0, 0.0] for generation in range(3)}
    started = {}

    def on_collect(phase, info):
        if phase == "start":
            started[0] = clock()
        else:
            seconds = clock() - started.pop(0)
            tally = collections[info["generation"]]
            tally[0] += 1
            tally[1] += seconds
            in_gc[running[0]] += seconds
            if running[0] == "merge":
                in_gc["flush"] += seconds

    gc.collect()
    gc.callbacks.append(on_collect)
    try:
        for step in workload.steps:
            if step.kind == "add":
                running[0] = "lex"
                start = clock()
                words = tokenize(step.arg, config)
                lexed = clock()
                running[0] = "word ids"
                ids = vocabulary.ids_of(words)
                mapped = clock()
                running[0] = "batch insert"
                core.add_document(ids)
                end = clock()
                running[0] = "other"
                out["lex"] += lexed - start
                out["word ids"] += mapped - lexed
                out["batch insert"] += end - mapped
                out["docs"] += 1
            elif step.kind == "flush":
                out["merged_words"] += len(core.memory)
                running[0] = "flush"
                start = clock()
                text_index.flush_batch()
                out["flush"] += clock() - start
                running[0] = "other"
                out["batches"] += 1
    finally:
        gc.callbacks.remove(on_collect)
    for piece in TIMED:
        out[piece] -= in_gc[piece]
    out.update(collections=collections, in_gc=in_gc)
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1994)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = paper_batch(args.seed, args.seconds, lambda: None)
    runs, probes = [], [speed_probe()]
    for _ in range(max(1, args.repeat)):
        runs.append(replay(workload))
        probes.append(speed_probe())
    factors = speed_factors(range(len(probes)), probes, len(runs), min(probes))
    best = min(runs, key=lambda run: sum(run[piece] for piece in PIECES))
    docs = best["docs"]
    print(
        f"paper-batch seed {args.seed}, {args.seconds:g} s script: {docs} "
        f"docs, {best['batches']} batches, best of {len(runs)} replays"
    )
    for n, (run, factor) in enumerate(zip(runs, factors)):
        add = sum(run[piece] for piece in PIECES) / docs * 1e6
        print(
            f"  replay {n + 1}: add {add:7.2f} us/doc, speed probe "
            f"{probes[n] * 1e3:.2f} -> {probes[n + 1] * 1e3:.2f} ms, "
            f"x{factor:.3f}{'  slow' if factor > 1.0 else ''}"
            f"{'  (best)' if run is best else ''}"
        )
    print("without collections:")
    for piece in PIECES:
        print(f"  {piece:<13}{best[piece] / docs * 1e6:8.2f} us/doc")
    total = sum(best[piece] for piece in PIECES)
    print(f"  {'add, summed':<13}{total / docs * 1e6:8.2f} us/doc")
    words = best["merged_words"]
    print(
        f"  {'merge':<13}{best['merge'] / max(1, words) * 1e6:8.3f} us/word "
        f"({words} words, {best['merge'] * 1e3:.1f} ms)"
    )
    print(f"  {'flush':<13}{best['flush'] * 1e3:8.1f} ms in all")
    print("collections:")
    for generation, (count, seconds) in best["collections"].items():
        print(
            f"  gen{generation}         {count:6d} runs {seconds * 1e3:8.1f} ms"
        )
    print(
        "  inside "
        + ", ".join(
            f"{piece} {seconds * 1e3:.1f} ms"
            for piece, seconds in best["in_gc"].items()
            if piece != "merge"
        )
        + f" (merge {best['in_gc']['merge'] * 1e3:.1f} ms of flush's)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
