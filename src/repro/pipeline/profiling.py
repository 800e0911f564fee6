"""Wall-clock and cache-counter instruments shared with the serving layer.

:class:`StageTimings` accumulates ``perf_counter`` spans per named stage
(``serve.ingest`` / ``serve.flush`` / ``serve.publish`` in
:mod:`repro.service`), :class:`HitMissCounters` is the tally the block
buffer cache reports into, and :class:`LatencyRecorder` keeps per-operation
samples so a tail percentile survives aggregation.  The experiment
pipeline itself is not instrumented: it is seconds of serial work
(``benchmarks/results/TRIAL_sweep.txt``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class StageTimings:
    """Accumulated wall-clock seconds per named stage.

    A stage may be entered more than once (``serve.flush`` once per
    batch); seconds accumulate and ``counts`` records the spans.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def add(self, stage: str, seconds: float) -> None:
        """Fold one measured span into a stage's total."""
        if seconds < 0:
            raise ValueError(f"negative span for stage {stage!r}")
        self.seconds[stage] = self.seconds.get(stage, 0.0) + seconds
        self.counts[stage] = self.counts.get(stage, 0) + 1

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with`` block and record it under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def get(self, stage: str) -> float:
        """Total seconds recorded for a stage (0.0 if never entered)."""
        return self.seconds.get(stage, 0.0)

    def as_dict(self) -> dict[str, float]:
        """JSON-ready ``{stage: seconds}`` map, rounded for stable diffs."""
        return {
            stage: round(seconds, 6)
            for stage, seconds in sorted(self.seconds.items())
        }


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

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidated": self.invalidated,
            "hit_rate": round(self.hit_rate, 6),
        }


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

    The serving layer's counterpart to :class:`StageTimings`: where stage
    timers measure *aggregate* wall-clock per pipeline stage, this records
    each individual operation so the tail (p95/p99) — the metric a serving
    system is judged on — survives aggregation.  Each reader thread records
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
