"""Wall-clock and cache-counter instruments shared with the serving layer.

:class:`HitMissCounters` is the tally the block buffer cache reports
into, and :class:`LatencyRecorder` keeps per-operation samples so a tail
percentile survives aggregation.  The experiment
pipeline itself is not instrumented: it is seconds of serial work
(``benchmarks/results/TRIAL_sweep.txt``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class HitMissCounters:
    """Thread-safe hit/miss/eviction tallies for a shared cache.

    The counter protocol the block buffer cache
    (:class:`repro.storage.buffercache.BlockBufferCache`) reports into:
    ``note_hit``/``note_miss`` on every lookup, ``note_eviction`` when
    capacity pressure drops an entry, ``note_invalidated`` when a publish
    drops entries overlapping the batch's dirty blocks.  One instance is
    shared across reader threads, so increments take a lock (contention
    is negligible next to the block decode a miss implies).
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidated: int = 0

    def __post_init__(self) -> None:
        import threading

        self._lock = threading.Lock()

    def note_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def note_miss(self) -> None:
        with self._lock:
            self.misses += 1

    def note_eviction(self) -> None:
        with self._lock:
            self.evictions += 1

    def note_invalidated(self) -> None:
        with self._lock:
            self.invalidated += 1


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < p <= 100).

    Nearest-rank rather than interpolation so a reported p99 is always a
    latency some query actually experienced.  Returns 0.0 for no samples.
    """
    if not 0.0 < p <= 100.0:
        raise ValueError("percentile p must be in (0, 100]")
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))  # ceil without math import
    return ordered[int(rank) - 1]


@dataclass
class LatencyRecorder:
    """Per-query latency samples and their tail summary.

    Records each individual operation so the tail (p95/p99) — the metric
    a serving system is judged on — survives aggregation.  Each reader thread records
    into its own instance; :meth:`merge` folds them together afterwards, so
    no locking is needed on the hot path.
    """

    samples: list[float] = field(default_factory=list)

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("negative latency sample")
        self.samples.append(seconds)

    @contextmanager
    def span(self) -> Iterator[None]:
        """Time a ``with`` block and record it as one sample."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.record(time.perf_counter() - start)

    def merge(self, other: "LatencyRecorder") -> None:
        self.samples.extend(other.samples)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def total(self) -> float:
        return sum(self.samples)

    def summary(self) -> dict[str, float]:
        """JSON-ready latency digest (seconds, rounded for stable diffs)."""
        if not self.samples:
            return {"count": 0}
        return {
            "count": len(self.samples),
            "mean": round(self.total / len(self.samples), 9),
            "p50": round(percentile(self.samples, 50), 9),
            "p95": round(percentile(self.samples, 95), 9),
            "p99": round(percentile(self.samples, 99), 9),
            "max": round(max(self.samples), 9),
        }
