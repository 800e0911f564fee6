"""The replica-minimum estimator on synthetic segment times.

Run with ``pytest benchmarks/harness/tests`` (tier-1 collects only
``tests/``).
"""

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from estimator import (  # noqa: E402
    ReplicaMismatch,
    assert_identical,
    highest_percentile,
    percentile,
    samples_beyond,
    segment_minima,
    speed_factors,
    speed_sensitivity,
)


def _true_times(rng: random.Random, n: int = 2000) -> list[float]:
    """A latency mix like a query list: many fast, a slow tail."""
    return [
        rng.uniform(5e-3, 2e-2) if rng.random() < 0.05 else rng.uniform(5e-5, 2e-4)
        for _ in range(n)
    ]


def _noisy(rng: random.Random, truth, rate=0.15, worst=3.0) -> list[float]:
    """Multiplicative noise >= 1 on a share of the segments: what a
    preemption or a cold cache adds, never subtracts."""
    return [
        t * rng.uniform(1.0, worst) if rng.random() < rate else t for t in truth
    ]


def test_minimum_recovers_the_true_times_under_multiplicative_noise():
    rng = random.Random(7)
    truth = _true_times(rng)
    replicas = [_noisy(rng, truth) for _ in range(3)]
    minima = segment_minima(replicas)
    assert all(m >= t for m, t in zip(minima, truth))
    # One replica alone reads far high; three replicas' minima do not.
    single_error = sum(replicas[0]) / sum(truth) - 1.0
    minima_error = sum(minima) / sum(truth) - 1.0
    assert single_error > 0.10
    assert minima_error < 0.02
    assert percentile(minima, 50) == pytest.approx(percentile(truth, 50), rel=0.02)
    assert percentile(minima, 99) == pytest.approx(percentile(truth, 99), rel=0.05)


def test_one_fully_contaminated_replica_is_ignored():
    rng = random.Random(11)
    truth = _true_times(rng)
    contaminated = [t * 2.5 for t in truth]  # every segment slow
    replicas = [truth, contaminated, _noisy(rng, truth, rate=0.05)]
    assert segment_minima(replicas) == truth


def test_minimum_is_per_segment_not_per_run():
    # Each replica is the quiet one for a different half of the script.
    a = [1.0, 1.0, 9.0, 9.0]
    b = [9.0, 9.0, 1.0, 1.0]
    assert segment_minima([a, b]) == [1.0, 1.0, 1.0, 1.0]
    assert min(sum(a), sum(b)) == 20.0  # a per-run minimum would keep the noise


def _slow_machine(rng: random.Random, truth, every=10, kernel=4e-3, follows=1.0):
    """One replica on a machine that alternates between full speed and
    0.6x speed in episodes of a few dozen segments; a probe before every
    ``every``-th segment and one after the last.  The segments slow down
    by the machine's factor to the power ``follows``."""
    speed, left = 1.0, 0
    raw, probe_at, probe_time = [], [], []
    for segment, t in enumerate(truth):
        if left == 0:
            speed = 1.7 if rng.random() < 0.5 else 1.0
            left = rng.randrange(20, 60)
        left -= 1
        if segment % every == 0:
            probe_at.append(segment)
            probe_time.append(kernel * speed)
        raw.append(t * speed**follows)
    probe_at.append(len(truth))
    probe_time.append(kernel * speed)
    return raw, probe_at, probe_time


def test_speed_probes_scale_slow_episodes_back():
    rng = random.Random(3)
    truth = _true_times(rng)
    scaled, unscaled = [], []
    for _ in range(3):
        raw, probe_at, probe_time = _slow_machine(rng, truth)
        factors = speed_factors(probe_at, probe_time, len(truth), reference=4e-3)
        assert min(factors) >= 1.0
        scaled.append([t / f for t, f in zip(raw, factors)])
        unscaled.append(raw)
    # Half the time slow: one segment in eight is slow in all three
    # replicas, so minima alone still read high; scaled minima do not.
    assert sum(segment_minima(unscaled)) / sum(truth) - 1.0 > 0.04
    assert sum(segment_minima(scaled)) / sum(truth) - 1.0 < 0.01
    # Episodes begin between probes, so scaling may fall short of a slow
    # segment but never overshoots a true time.
    assert all(s >= t * (1 - 1e-12) for s, t in zip(segment_minima(scaled), truth))


@pytest.mark.parametrize("follows", [1.0, 0.6])
def test_sensitivity_is_measured_from_the_replicas(follows):
    # In-process Python follows the probe one to one; a gateway call,
    # part syscalls and wake-ups, follows it less.  Scaling such a call
    # by the full factor would overshoot; by the measured exponent not.
    rng = random.Random(5)
    truth = _true_times(rng)
    raws, factors = [], []
    for _ in range(3):
        raw, probe_at, probe_time = _slow_machine(rng, truth, follows=follows)
        raws.append([t * rng.uniform(1.0, 1.03) for t in raw])
        factors.append(speed_factors(probe_at, probe_time, len(truth), 4e-3))
    sensitivity = speed_sensitivity(raws, factors)
    assert sensitivity == pytest.approx(follows, abs=0.05)
    scaled = [
        [t / f**sensitivity for t, f in zip(raw, fs)]
        for raw, fs in zip(raws, factors)
    ]
    assert sum(segment_minima(scaled)) / sum(truth) == pytest.approx(1.0, abs=0.03)
    overshoot = [[t / f for t, f in zip(raw, fs)] for raw, fs in zip(raws, factors)]
    if follows < 1.0:
        assert sum(segment_minima(overshoot)) / sum(truth) < 0.97


def test_a_steady_machine_offers_no_contrast():
    truth = _true_times(random.Random(9), n=200)
    steady = [1.0] * len(truth)
    assert speed_sensitivity([truth, truth, truth], [steady, steady, steady]) == 1.0


def test_one_disturbed_probe_scales_nothing():
    # Probes before segments 0, 2, 4 and after the last; only the second
    # read slow, so no segment has a slow probe on both sides.
    factors = speed_factors([0, 2, 4, 6], [4e-3, 9e-3, 4e-3, 4e-3], 6, 4e-3)
    assert factors == [1.0] * 6
    # Two slow probes in a row: the segments between them are scaled.
    factors = speed_factors([0, 2, 4, 6], [4e-3, 8e-3, 8e-3, 4e-3], 6, 4e-3)
    assert factors == [1.0, 1.0, 2.0, 2.0, 1.0, 1.0]


def test_probes_must_bracket_the_script():
    with pytest.raises(ValueError):
        speed_factors([1, 6], [4e-3, 4e-3], 6, 4e-3)
    with pytest.raises(ValueError):
        speed_factors([0, 5], [4e-3, 4e-3], 6, 4e-3)


def test_replicas_of_different_length_are_refused():
    with pytest.raises(ReplicaMismatch):
        segment_minima([[1.0, 2.0], [1.0]])


def test_identity_assertion_names_the_first_differing_segment():
    same = [[0, [5, 120, 1], [3405691582, 7, 2]]] * 3
    assert_identical(same)
    other = [0, [5, 120, 1], [3405691582, 7, 3]]  # one read op more
    with pytest.raises(ReplicaMismatch, match="segment 2"):
        assert_identical([same[0], same[0], other])
    with pytest.raises(ReplicaMismatch, match="ran 2 segments"):
        assert_identical([same[0], same[0][:2]])


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 50) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(samples, 0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (20, 50.0),      # 10 beyond the median, 2 beyond p90
        (24, 50.0),      # a workload's visibility samples
        (100, 90.0),
        (999, 95.0),     # p99 would leave 9 beyond
        (1000, 99.0),
        (1200, 99.0),    # a workload's query samples: 12 beyond p99
        (10000, 99.9),
    ],
)
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    p = highest_percentile(n)
    assert p == expected
    assert samples_beyond(n, p) >= 10


def test_too_few_samples_support_no_percentile():
    with pytest.raises(ValueError):
        highest_percentile(19)
