"""The replica-minimum estimator.

A workload script is executed in R replicas that behave identically, so
the R times of one segment differ only by what the machine added: a
scheduler preemption, a cache-cold wake-up, another tenant's burst.
That noise is non-negative, so the minimum over replicas is the best
estimate of the segment's own cost — and it is taken *per segment*, not
per run, so a replica that was disturbed for a second still contributes
its undisturbed segments.  Every timing statistic (sums for rates,
percentiles for latencies) is computed over those per-segment minima.

Three replicas do not outlast a machine that runs slow for seconds at a
time (a busy sibling core, a throttled host), so each replica also
times a fixed kernel — the *speed probe* — every few tens of
milliseconds.  Before the minimum is taken each segment is scaled back
by ``factor ** sensitivity``: ``factor`` is how much slower than the
run's best probe the probes on both sides of the segment were, and
``sensitivity`` is how strongly that kind of segment follows the probe,
measured in the same run from the replicas themselves (pure-Python
in-process work follows it one to one; a gateway call, part syscalls and
wake-ups, about two thirds as much).  The probe shares no code with the
program under test, so the scaling cannot hide a regression; it only
removes the machine's own variation.
"""

from __future__ import annotations

import math
import time
from typing import Sequence

#: Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


class ReplicaMismatch(AssertionError):
    """Replicas of one script did not behave identically."""


def assert_identical(behaviours: Sequence[Sequence]) -> None:
    """Every replica must show the same behaviour in every segment (doc
    ids, I/O ops, answer digests, read ops); else the run is void."""
    first = behaviours[0]
    for replica, other in enumerate(behaviours[1:], start=1):
        if len(other) != len(first):
            raise ReplicaMismatch(
                f"replica {replica} ran {len(other)} segments, "
                f"replica 0 ran {len(first)}"
            )
        for segment, (a, b) in enumerate(zip(first, other)):
            if a != b:
                raise ReplicaMismatch(
                    f"segment {segment}: replica 0 behaved {a!r}, "
                    f"replica {replica} behaved {b!r}"
                )


def segment_minima(replica_times: Sequence[Sequence[float]]) -> list[float]:
    """Per-segment minimum over replicas."""
    lengths = {len(times) for times in replica_times}
    if len(lengths) != 1:
        raise ReplicaMismatch(f"replicas timed {sorted(lengths)} segments")
    return [min(column) for column in zip(*replica_times)]


#: A speed probe runs whenever this much timed work has passed since the
#: last one (and on both sides of every flush): ~8 % of a replica's time.
PROBE_EVERY_S = 0.05


def speed_probe() -> float:
    """Time a fixed pure-Python kernel (dict, int and sort work; a few
    milliseconds, a footprint that stays in cache).  It shares nothing
    with the program under test, so its time moves only with the speed
    of the machine."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    acc = 0
    for i in range(20_000):
        key = (i * 2654435761) & 0xFFF
        counts[key] = counts.get(key, 0) + 1
        acc += key ^ i
    sorted(counts)
    return time.perf_counter() - start


def speed_factors(
    probe_at: Sequence[int],
    probe_time: Sequence[float],
    nsegments: int,
    reference: float,
) -> list[float]:
    """How much slower than ``reference`` (the run's fastest probe) the
    machine was around each segment.

    ``probe_at[k]`` is the segment probe ``k`` ran before (ascending; the
    first is 0, the last ``nsegments``, after the final segment).  A
    segment's factor is the *smaller* of the probes on its two sides, so
    one disturbed probe beside an undisturbed segment changes nothing,
    and never below 1: a segment is only ever scaled back, and only as
    far as both neighbouring probes agree.
    """
    if not probe_at or probe_at[0] != 0 or probe_at[-1] != nsegments:
        raise ValueError("probes must bracket the whole script")
    factors: list[float] = []
    k = 0
    for segment in range(nsegments):
        while probe_at[k + 1] <= segment:
            k += 1
        slower = min(probe_time[k], probe_time[k + 1]) / reference
        factors.append(max(1.0, slower))
    return factors


#: Replica pairs whose factors differ by less than this say nothing
#: about sensitivity; fewer informative pairs than MIN_CONTRASTS and the
#: machine was steady enough for the exponent not to matter.
MIN_CONTRAST = 1.25
MIN_CONTRASTS = 30
MAX_SENSITIVITY = 1.25


def speed_sensitivity(
    replica_times: Sequence[Sequence[float]],
    replica_factors: Sequence[Sequence[float]],
) -> float:
    """The exponent with which one kind of segment follows the probe.

    Replicas run identical segments, so wherever two replicas saw the
    same segment at clearly different machine speeds, the ratio of
    their times against the ratio of their factors (in logs) is one
    reading of the exponent; the median over all such pairs is robust
    to the disturbed ones.  Returns 1.0 when the run offers too few
    contrasts to tell.
    """
    threshold = math.log(MIN_CONTRAST)
    readings: list[float] = []
    for a in range(len(replica_times)):
        for b in range(a + 1, len(replica_times)):
            for ta, tb, fa, fb in zip(
                replica_times[a], replica_times[b],
                replica_factors[a], replica_factors[b],
            ):
                contrast = math.log(fa / fb)
                if abs(contrast) >= threshold and ta > 0.0 and tb > 0.0:
                    readings.append(math.log(ta / tb) / contrast)
    if len(readings) < MIN_CONTRASTS:
        return 1.0
    readings.sort()
    median = readings[len(readings) // 2]
    return min(MAX_SENSITIVITY, max(0.0, median))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: always a value some segment took."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0.0 < p <= 100.0:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(len(ordered) * p / 100.0)) - 1]


def samples_beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` of ``n`` samples."""
    return n - max(1, math.ceil(n * p / 100.0))


def highest_percentile(n: int) -> float:
    """The highest of :data:`PERCENTILES` that ``n`` samples support
    (at least :data:`MIN_BEYOND` samples beyond it)."""
    supported = [p for p in PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    if not supported:
        raise ValueError(f"{n} samples support no percentile")
    return supported[-1]
