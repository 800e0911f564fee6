"""Unit tests for the delta-scoped, validity-ranged query-result cache."""

import threading

import pytest

from repro.service import QueryResultCache


def key(query):
    return ("boolean", query)


def put(cache, query, value, snapshot_id=1, terms=None, universe=False):
    cache.put(
        key(query),
        value,
        snapshot_id,
        terms=frozenset(terms if terms is not None else {query}),
        universe_sensitive=universe,
    )


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
        assert cache.get(key("a"), 3) is None  # not yet extended

    def test_clean_entry_extends_across_publish(self):
        cache = QueryResultCache(capacity=4)
        put(cache, "a", "A", snapshot_id=1, terms={"a"})
        dropped = cache.publish_delta(
            2, frozenset({"z"}), universe_changed=False,
            deletions_changed=False,
        )
        assert dropped == 0
        assert cache.get(key("a"), 2) == "A"
        # And the old snapshot id still hits (lagging readers).
        assert cache.get(key("a"), 1) == "A"
        assert cache.stats().entries_retained == 1

    def test_dirty_term_evicts(self):
        cache = QueryResultCache(capacity=4)
        put(cache, "a", "A", snapshot_id=1, terms={"a", "b"})
        put(cache, "c", "C", snapshot_id=1, terms={"c"})
        dropped = cache.publish_delta(
            2, frozenset({"b"}), universe_changed=False,
            deletions_changed=False,
        )
        assert dropped == 1
        assert cache.get(key("a"), 2) is None
        assert cache.get(key("c"), 2) == "C"

    def test_universe_sensitive_evicted_when_docs_added(self):
        cache = QueryResultCache(capacity=4)
        put(cache, "not-q", "N", snapshot_id=1, terms={"a"}, universe=True)
        put(cache, "plain", "P", snapshot_id=1, terms={"a"})
        cache.publish_delta(
            2, frozenset(), universe_changed=True, deletions_changed=False
        )
        assert cache.get(key("not-q"), 2) is None
        assert cache.get(key("plain"), 2) == "P"

    def test_deletion_change_evicts_everything(self):
        cache = QueryResultCache(capacity=4)
        put(cache, "a", "A", snapshot_id=1, terms={"a"})
        put(cache, "b", "B", snapshot_id=1, terms={"b"})
        dropped = cache.publish_delta(
            2, frozenset(), universe_changed=False, deletions_changed=True
        )
        assert dropped == 2
        assert cache.get(key("a"), 2) is None
        assert cache.get(key("b"), 2) is None

    def test_stranded_entries_dropped(self):
        """An entry that missed a publish_delta window (e.g. written for
        an already-superseded snapshot) cannot be resurrected."""
        cache = QueryResultCache(capacity=4)
        put(cache, "a", "A", snapshot_id=1, terms={"a"})
        # Publish 2 evicts it (dirty); a lagging reader re-puts for id 1.
        cache.publish_delta(
            2, frozenset({"a"}), universe_changed=False,
            deletions_changed=False,
        )
        put(cache, "a", "A", snapshot_id=1, terms={"a"})
        # Publish 3: entry's last_id (1) != 2 -> stranded, dropped even
        # though its terms are clean.
        cache.publish_delta(
            3, frozenset(), universe_changed=False, deletions_changed=False
        )
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
                        cache.publish_delta(
                            sid + 1,
                            frozenset({q}),
                            universe_changed=bool(i % 2),
                            deletions_changed=False,
                        )
                    elif i % 193 == 0:
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
