"""The traced replica: spans recorded from the harness's own files,
around the calls into each layer — nothing under ``src/`` is patched.

A span is ``{id, op, name, start, end, parent}``; the spans of one
document or one query share an ``op``; a layer's self time is its span
minus the child spans inside it.  Spans stay in memory and are written
as JSON lines when the replica ends.  ``run.py`` derives every traced
layer metric from that file.

Where the program offers a seam the harness uses it (a timing ``fetch``
passed into ``boolean.evaluate`` / ``vector.rank`` on the bare index);
where it does not, the harness repeats the layer's call beside the real
one (``tokenize_document`` before ``add_document``, ``boolean.parse``
before a query) and records that as a sibling span of the same op.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from estimator import PROBE_EVERY_S
from workloads import Ops, Step, worker_pids

from repro import TextDocumentIndex
from repro.pipeline.profiling import HitMissCounters
from repro.query import boolean, streaming, vector
from repro.service import QueryService, wire
from repro.text.tokenizer import tokenize_document
from repro.textindex import QueryAnswer

#: Posting-list lengths of the wire probe's ``Response`` values.
WIRE_SIZES = (10, 1_000, 10_000)
PINGS = 200
LADDER_PASSES = 2
_TICKS = 100.0  # /proc/<pid>/stat reports CPU time in 10 ms ticks


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: Measurements that are not intervals (CPU time per block).
        self.counters: dict[str, float] = {}

    def span(self, op, name, start, end, parent=None) -> int:
        self.spans.append(
            {
                "id": len(self.spans),
                "op": op,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
            }
        )
        return len(self.spans) - 1

    def open(self, op, name, start, parent=None) -> int:
        """A span whose children are recorded before it ends."""
        return self.span(op, name, start, None, parent)

    def close(self, span_id: int, end: float) -> None:
        self.spans[span_id]["end"] = end

    def write(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fp:
            for span in self.spans:
                fp.write(json.dumps(span) + "\n")


def _cpu_ticks(pids) -> float:
    total = 0
    for pid in pids:
        fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime + stime
    return total / _TICKS


class TracedOps(Ops):
    """The same calls as :class:`Ops`, each wrapped in spans."""

    def __init__(self, system, stack: str) -> None:
        super().__init__(system, stack)
        self.tracer = Tracer()
        self._docs = 0
        self._queries = 0
        self._pids = worker_pids(system) if stack == "gateway" else []
        self._block_cpu = 0.0
        for key in ("parent_cpu_s", "worker_cpu_s", "cpu_queries"):
            self.tracer.counters[key] = 0.0

    def record_probe(self, start: float, end: float) -> None:
        self.tracer.span("probe", "harness.probe", start, end)

    # -- writes ---------------------------------------------------------------

    def add(self, step):
        clock, op = time.perf_counter, f"doc{self._docs}"
        self._docs += 1
        start = clock()
        tokenize_document(step.arg)
        self.tracer.span(op, "text.tokenize", start, clock())
        start = clock()
        doc_id = self.system.add_document(step.arg)
        self.tracer.span(op, "add", start, clock())
        return doc_id

    def flush(self, step):
        start = time.perf_counter()
        result = super().flush(step)
        self.tracer.span(f"day{step.day}", "flush", start, time.perf_counter())
        return result

    # -- reads ----------------------------------------------------------------

    def probe(self, step):
        start = time.perf_counter()
        answer = super().probe(step)
        self.tracer.span(f"day{step.day}", "probe", start, time.perf_counter())
        return answer

    def query(self, step):
        clock, tracer, query = time.perf_counter, self.tracer, step.arg
        op = f"q{self._queries}"
        self._queries += 1
        if query.mode != "vector":
            parse = boolean.parse if query.mode == "boolean" else streaming.parse_flat
            start = clock()
            parse(query.text)
            tracer.span(op, "query.parse", start, clock())
        cpu = time.process_time()  # all threads: this one and the gateway loop's
        span = tracer.open(op, "query", clock())
        if self.stack == "bare" and query.mode != "streamed":
            result = self._evaluate_with_timed_fetch(op, span, query)
        else:
            result = super().query(step)
        tracer.close(span, clock())
        tracer.counters["parent_cpu_s"] += time.process_time() - cpu
        return result

    def _evaluate_with_timed_fetch(self, op, span, query):
        """What ``search_boolean`` / ``search_vector`` do on the bare
        index, with the facade's fetch replaced by one that records a
        child span per posting-list fetch."""
        clock, tracer, index = time.perf_counter, self.tracer, self.system
        read_ops = 0

        def fetch(word):
            nonlocal read_ops
            start = clock()
            docs, ops = index.fetch_postings(word)
            tracer.span(op, "query.fetch", start, clock(), parent=span)
            read_ops += ops
            return docs

        if query.mode == "vector":
            return vector.rank(query.weights, fetch, index.ndocs, top_k=10)
        docs = boolean.evaluate(query.text, fetch, index.ndocs)
        return QueryAnswer(index.deletions.filter(docs), read_ops)

    # -- workers' CPU time over the query blocks (gateway stacks) ---------------

    def boundary(self, before: str, after: str) -> None:
        if self.stack != "gateway":
            return
        if after == "query":
            self._block_cpu = _cpu_ticks(self._pids)
            self._block_first = self._queries
        elif before == "query":
            counters = self.tracer.counters
            counters["worker_cpu_s"] += _cpu_ticks(self._pids) - self._block_cpu
            counters["cpu_queries"] += self._queries - self._block_first

    # -- after the script -------------------------------------------------------

    def finish(self, workload, speed_probe) -> None:
        self._probe_wire()
        speed_probe()
        if self.stack == "gateway":
            self._probe_ping(speed_probe)
        if workload.ladder_queries:
            self._ladder(workload, speed_probe)

    def _probe_wire(self) -> None:
        """``wire.encode`` / ``wire.decode`` on the ``Response`` a worker
        sends for one posting-list fetch, at three list lengths."""
        clock = time.perf_counter
        for size in WIRE_SIZES:
            response = wire.Response(1, True, (list(range(0, 3 * size, 3)), 4))
            for _ in range(max(3, 30_000 // size)):
                start = clock()
                frame = wire.encode(response)
                self.tracer.span(f"wire{size}", "wire.encode", start, clock())
                start = clock()
                wire.decode(frame)
                self.tracer.span(f"wire{size}", "wire.decode", start, clock())

    def _probe_ping(self, speed_probe) -> None:
        """One frame out and back with no index work: the floor of any
        gateway read."""
        service, clock = self.system, time.perf_counter
        for number in range(PINGS):
            if number % 50 == 0:
                speed_probe()
            start = clock()
            service._run(service.gateway.ping())
            self.tracer.span("ping", "gateway.ping", start, clock())
        speed_probe()

    def _ladder(self, workload, speed_probe) -> None:
        """The same corpus and the same query list on every rung below
        the gateway, then on the gateway itself: each rung adds one
        layer, so differences between neighbours are that layer's cost."""
        config = workload.ladder_config
        rungs = {
            "bare": lambda: TextDocumentIndex(config),
            "service": lambda: QueryService(
                config, shards=1, publish_mode="cow",
                buffer_cache_blocks=128, cache_capacity=0,
            ),
            "sharded": lambda: QueryService(
                config, shards=2, publish_mode="cow",
                buffer_cache_blocks=128, cache_capacity=0,
            ),
        }
        for rung, build in rungs.items():
            system = build()
            ops = Ops(system, "bare" if rung == "bare" else "service")
            for day, texts in enumerate(workload.ladder_docs):
                for text in texts:
                    system.add_document(text)
                ops.flush(None)
            if rung == "bare":
                # The rungs above read through a 128-block chunk cache.
                system.attach_buffer_cache(128, HitMissCounters())
            self._replay(rung, ops, workload, speed_probe)
        self._replay("gateway", Ops(self.system, "gateway"), workload, speed_probe)

    def _replay(self, rung: str, ops: Ops, workload, speed_probe) -> None:
        clock = time.perf_counter
        steps = [Step("query", 0, q) for q in workload.ladder_queries]
        for _ in range(LADDER_PASSES):
            since_probe = PROBE_EVERY_S
            for number, step in enumerate(steps):
                if since_probe >= PROBE_EVERY_S:
                    speed_probe()
                    since_probe = 0.0
                start = clock()
                ops.query(step)
                end = clock()
                self.tracer.span(f"lq{number}", f"ladder.{rung}", start, end)
                since_probe += end - start
        speed_probe()
