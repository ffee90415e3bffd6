"""The tiered cache: LRU bounds, telemetry, invalidation, threading."""

from __future__ import annotations

import threading

from repro.cache import CacheTier, RequestKey, TieredCache


class TestCacheTier:
    def test_hit_miss_counters_and_rate(self):
        tier = CacheTier("test", max_entries=4)
        assert tier.get("a") is None
        tier.put("a", 1)
        assert tier.get("a") == 1
        assert tier.hits == 1
        assert tier.misses == 1
        assert tier.hit_rate == 0.5

    def test_lru_eviction_order(self):
        tier = CacheTier("test", max_entries=2)
        tier.put("a", 1)
        tier.put("b", 2)
        assert tier.get("a") == 1  # refresh a
        tier.put("c", 3)  # evicts b (LRU)
        assert tier.get("b") is None
        assert tier.get("a") == 1
        assert tier.get("c") == 3
        assert len(tier) == 2
        assert tier.evictions == 1

    def test_byte_accounting(self):
        tier = CacheTier("test", max_entries=2)
        tier.put("a", 1, nbytes=100)
        tier.put("b", 2, nbytes=50)
        assert tier.nbytes == 150
        tier.put("a", 3, nbytes=10)  # replacement swaps the footprint
        assert tier.nbytes == 60
        tier.put("c", 4, nbytes=5)  # evicts b
        assert tier.nbytes == 15

    def test_sentinel_default_distinguishes_cached_none(self):
        tier = CacheTier("test", max_entries=2)
        sentinel = object()
        tier.put("a", None)
        assert tier.get("a", default=sentinel) is None
        assert tier.get("b", default=sentinel) is sentinel

    def test_clear_resets_counters(self):
        tier = CacheTier("test", max_entries=2)
        tier.put("a", 1, nbytes=10)
        tier.get("a")
        tier.clear()
        assert len(tier) == 0
        assert tier.hits == 0 and tier.misses == 0 and tier.nbytes == 0

    def test_stats_snapshot(self):
        tier = CacheTier("test", max_entries=2)
        tier.put("a", 1, nbytes=10)
        tier.get("a")
        tier.get("b")
        stats = tier.stats()
        assert stats == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "bytes": 10,
            "hit_rate": 0.5,
        }

    def test_thread_safety_smoke(self):
        tier = CacheTier("test", max_entries=64)
        errors: list[Exception] = []

        def hammer(seed: int) -> None:
            try:
                for i in range(500):
                    key = (seed + i) % 100
                    tier.put(key, i, nbytes=8)
                    tier.get((key * 7) % 100)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=hammer, args=(n,)) for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(tier) <= 64
        assert tier.hits + tier.misses == 8 * 500


class TestTieredCache:
    def test_invalidate_dataset_drops_only_matching_tokens(self):
        cache = TieredCache()
        request = RequestKey("fp", "count(*)", "kernel", False, False)
        cache.results.put((1, "TRUE", 1, request), "a")
        cache.results.put((1, "x > 1", 2, request), "b")
        cache.results.put((2, "TRUE", 1, request), "c")
        assert cache.invalidate_dataset(1) == 2
        assert len(cache.results) == 1
        assert cache.results.evictions == 2

    def test_stats_cover_both_tiers(self):
        stats = TieredCache().stats()
        assert set(stats) == {"covering", "result"}
        assert stats["covering"]["entries"] == 0
