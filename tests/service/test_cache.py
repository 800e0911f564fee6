"""Unit tests for the query-result cache: exact-stamp entries, LRU,
counters, and wholesale invalidation at every publish."""

import threading

import pytest

from repro.service import QueryResultCache


def key(query):
    return ("boolean", query)


def put(cache, query, value, snapshot_id=1):
    cache.put(key(query), value, snapshot_id)


class TestLRU:
    def test_get_miss_then_hit(self):
        cache = QueryResultCache(capacity=4)
        assert cache.get(key("a"), 1) is None
        put(cache, "a", (1, 2))
        assert cache.get(key("a"), 1) == (1, 2)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_evicts_least_recently_used(self):
        cache = QueryResultCache(capacity=2)
        put(cache, "a", "A")
        put(cache, "b", "B")
        assert cache.get(key("a"), 1) == "A"  # refresh a
        put(cache, "c", "C")  # evicts b
        assert cache.get(key("b"), 1) is None
        assert cache.get(key("a"), 1) == "A"
        assert cache.get(key("c"), 1) == "C"
        assert cache.stats().evictions == 1

    def test_put_for_newer_snapshot_replaces(self):
        cache = QueryResultCache(capacity=2)
        put(cache, "a", "old", snapshot_id=1)
        put(cache, "a", "new", snapshot_id=2)
        assert cache.get(key("a"), 2) == "new"
        assert cache.get(key("a"), 1) is None  # range moved forward

    def test_put_from_older_snapshot_never_downgrades(self):
        cache = QueryResultCache(capacity=2)
        put(cache, "a", "fresh", snapshot_id=3)
        put(cache, "a", "stale", snapshot_id=1)  # lagging reader
        assert cache.get(key("a"), 3) == "fresh"

    def test_capacity_zero_disables_caching(self):
        cache = QueryResultCache(capacity=0)
        put(cache, "a", "A")
        assert cache.get(key("a"), 1) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            QueryResultCache(capacity=-1)


class TestValidityRange:
    def test_entry_valid_only_within_its_interval(self):
        cache = QueryResultCache(capacity=4)
        put(cache, "a", "A", snapshot_id=2)
        assert cache.get(key("a"), 1) is None  # older reader
        assert cache.get(key("a"), 2) == "A"
        assert cache.get(key("a"), 3) is None  # a later snapshot misses

    def test_stranded_entries_dropped(self):
        """An entry a lagging reader writes for an already-superseded
        snapshot is never served at a newer one."""
        cache = QueryResultCache(capacity=4)
        put(cache, "a", "A", snapshot_id=1)
        cache.invalidate()  # publish 2
        put(cache, "a", "A", snapshot_id=1)  # the lagging reader's put
        assert cache.get(key("a"), 2) is None
        cache.invalidate()  # publish 3
        assert cache.get(key("a"), 3) is None


class TestCounters:
    def test_wholesale_invalidation(self):
        cache = QueryResultCache(capacity=8)
        for q in "abc":
            put(cache, q, q)
        dropped = cache.invalidate()
        assert dropped == 3
        stats = cache.stats()
        assert stats.invalidations == 1
        assert stats.entries_invalidated == 3
        assert cache.get(key("a"), 1) is None

    def test_hit_rate(self):
        cache = QueryResultCache(capacity=2)
        put(cache, "a", "A")
        cache.get(key("a"), 1)
        cache.get(key("zzz"), 1)
        assert cache.stats().hit_rate == 0.5

    def test_stats_copy_is_detached(self):
        cache = QueryResultCache(capacity=2)
        put(cache, "a", "A")
        cache.get(key("a"), 1)
        stats = cache.stats()
        cache.get(key("a"), 1)
        assert stats.hits == 1  # the copy does not track later traffic


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = QueryResultCache(capacity=32)
        errors = []

        def worker(worker_id):
            try:
                for i in range(500):
                    q = f"q{i % 40}"
                    sid = worker_id % 3 + 1
                    if i % 7 == 0:
                        put(cache, q, (worker_id, i), snapshot_id=sid)
                    elif i % 97 == 0:
                        cache.invalidate()
                    else:
                        cache.get(key(q), sid)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.lookups == stats.hits + stats.misses
        assert len(cache._entries) <= 32
