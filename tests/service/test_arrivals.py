"""Open-loop arrival tests: schedule determinism, coordinated-omission
resistance, and percentile edge cases.

The satellite claims pinned here:

* the Poisson schedule is a pure function of the seed — times, kinds,
  and payloads replay identically, so two systems offered "the same"
  load really are offered the same load;
* a latency sample is ``completion − scheduled_arrival``, so when the
  service falls behind the backlog wait lands *in* the histogram
  instead of silently stretching the offered schedule (coordinated
  omission);
* the nearest-rank percentile math survives its degenerate inputs
  (0, 1, and 2 samples) without interpolation inventing latencies no
  query experienced.
"""

from __future__ import annotations

import time

import pytest

from repro.pipeline.profiling import LatencyRecorder, percentile
from repro.service.loadgen import (
    Arrival,
    LoadConfig,
    LoadGenerator,
    _ReaderState,
    open_loop_arrivals,
)


def _make_query(kind, rng):
    if kind == "vector":
        return {f"w{rng.randrange(8)}": 1.0 + rng.random()}
    return f"w{rng.randrange(8)} AND w{rng.randrange(8)}"


class TestScheduleDeterminism:
    def test_same_seed_same_schedule(self):
        a = open_loop_arrivals(200.0, 50, 7, (0.5, 0.3, 0.2), _make_query)
        b = open_loop_arrivals(200.0, 50, 7, (0.5, 0.3, 0.2), _make_query)
        assert a == b  # times, kinds, and payloads all replay

    def test_different_seed_differs(self):
        a = open_loop_arrivals(200.0, 50, 7, (0.5, 0.3, 0.2), _make_query)
        b = open_loop_arrivals(200.0, 50, 8, (0.5, 0.3, 0.2), _make_query)
        assert a != b

    def test_times_are_monotonic_and_positive(self):
        arrivals = open_loop_arrivals(
            500.0, 100, 3, (1.0, 1.0, 1.0), _make_query
        )
        assert len(arrivals) == 100
        assert arrivals[0].at_s > 0.0
        times = [a.at_s for a in arrivals]
        assert times == sorted(times)

    def test_mean_gap_tracks_offered_rate(self):
        rate = 1000.0
        arrivals = open_loop_arrivals(
            rate, 2000, 11, (1.0, 0.0, 0.0), _make_query
        )
        mean_gap = arrivals[-1].at_s / len(arrivals)
        # Exponential gaps with mean 1/rate; 2000 samples keeps the
        # sample mean within a loose factor-of-two band deterministically
        # (the seed is fixed, so this is a regression pin, not a flake).
        assert 0.5 / rate < mean_gap < 2.0 / rate

    def test_degenerate_mix_pins_the_kind(self):
        arrivals = open_loop_arrivals(
            100.0, 40, 5, (1.0, 0.0, 0.0), _make_query
        )
        assert {a.kind for a in arrivals} == {"boolean"}

    def test_generator_schedule_uses_config_seed(self):
        config = LoadConfig(
            flush_cycles=1,
            docs_per_batch=40,
            readers=1,
            arrival="open",
            arrival_rate_qps=300.0,
            arrival_queries=25,
            verify=False,
            seed=42,
        )
        gen = LoadGenerator(config)
        try:
            first = gen.open_schedule()
            second = gen.open_schedule()
        finally:
            close = getattr(gen.service, "close", None)
            if close:
                close()
        assert first == second
        assert len(first) == 25


class _SlowService:
    """A service stub whose every query takes a fixed service time."""

    def __init__(self, service_time_s: float) -> None:
        self.service_time_s = service_time_s
        self.calls = 0

    def snapshot(self):
        return None

    def search_boolean(self, query, snapshot=None):
        self.calls += 1
        time.sleep(self.service_time_s)
        return None


class _FakeGenerator:
    """Just enough of LoadGenerator for ``_reader_queries``."""

    def __init__(self, service, config) -> None:
        self.service = service
        self.config = config

    _reader_queries = LoadGenerator._reader_queries


class TestCoordinatedOmission:
    def test_latency_includes_queue_wait(self):
        """Arrivals all scheduled at ~t=0 against a service that takes
        20 ms per query: the k-th sample must carry ~k service times of
        backlog wait, not just its own service time.  A closed-loop
        (coordinated-omission) measurement would report every sample at
        ~20 ms."""
        service_time = 0.02
        n = 6
        service = _SlowService(service_time)
        config = LoadConfig(
            readers=1, verify=False, arrival="open"
        )
        gen = _FakeGenerator(service, config)
        arrivals = [Arrival(0.0, "boolean", "a AND b") for _ in range(n)]
        state = _ReaderState(seed=0, reader_id=0)
        gen._reader_queries(iter(arrivals), time.perf_counter(), state)
        samples = state.recorders["boolean"].samples
        assert len(samples) == n
        assert service.calls == n
        # Sample k waited behind k earlier queries: lower-bound each by
        # its share of the backlog (scheduling jitter only adds wait).
        for k, sample in enumerate(samples):
            assert sample >= (k + 1) * service_time * 0.9, (k, sample)
        assert samples[-1] >= samples[0] + (n - 1) * service_time * 0.9

    def test_late_start_counts_against_latency(self):
        """If the reader pool itself starts an arrival late, the delay is
        charged to the sample — the schedule is never silently shifted."""
        service = _SlowService(0.0)
        config = LoadConfig(
            readers=1, verify=False, arrival="open"
        )
        gen = _FakeGenerator(service, config)
        arrivals = [Arrival(0.0, "boolean", "a AND b")]
        state = _ReaderState(seed=0, reader_id=0)
        t0 = time.perf_counter() - 0.05  # the pool is 50 ms behind
        gen._reader_queries(iter(arrivals), t0, state)
        (sample,) = state.recorders["boolean"].samples
        assert sample >= 0.05


class TestPercentileEdgeCases:
    def test_zero_samples_summary_is_count_only(self):
        assert LatencyRecorder().summary() == {"count": 0}

    def test_zero_samples_percentile_is_zero(self):
        assert percentile([], 50) == 0.0
        assert percentile([], 99) == 0.0

    def test_one_sample_is_every_percentile(self):
        recorder = LatencyRecorder()
        recorder.record(0.125)
        summary = recorder.summary()
        assert summary["count"] == 1
        assert summary["p50"] == summary["p95"] == summary["p99"] == 0.125
        assert summary["max"] == 0.125

    def test_two_samples_nearest_rank(self):
        # Nearest-rank: p50 is the first sample (rank ceil(2*0.5)=1),
        # the tail percentiles are the second — never an interpolated
        # value between them.
        recorder = LatencyRecorder()
        recorder.record(0.2)
        recorder.record(0.1)  # out of order: percentile sorts
        summary = recorder.summary()
        assert summary["p50"] == 0.1
        assert summary["p95"] == 0.2
        assert summary["p99"] == 0.2
        assert summary["mean"] == pytest.approx(0.15)

    def test_percentile_domain_is_enforced(self):
        with pytest.raises(ValueError):
            percentile([1.0], 0.0)
        with pytest.raises(ValueError):
            percentile([1.0], -5.0)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)
        assert percentile([1.0, 2.0, 3.0], 100.0) == 3.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-0.001)
