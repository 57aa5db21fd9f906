"""Unit tests for the service telemetry hub and the content-addressed cache."""

import numpy as np
import pytest

from repro.service import Histogram, ResultCache, Telemetry, request_fingerprint


class TestHistogram:
    def test_summary_percentiles(self):
        histogram = Histogram()
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["mean"] == pytest.approx(50.5)
        assert summary["p50"] == pytest.approx(50.5)
        assert summary["p95"] == pytest.approx(95.05)
        assert summary["max"] == 100.0

    def test_empty_summary(self):
        summary = Histogram().summary()
        assert summary == {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}

    def test_decimation_keeps_counts(self):
        from repro.service import telemetry

        histogram = Histogram()
        for value in range(telemetry.MAX_OBSERVATIONS + 10):
            histogram.observe(float(value))
        assert histogram.count == telemetry.MAX_OBSERVATIONS + 10
        assert len(histogram._values) <= telemetry.MAX_OBSERVATIONS


def _same(bulk, loop):
    assert bulk._values == loop._values
    assert bulk.count == loop.count
    assert bulk.total == loop.total  # bit-identical, not approximately equal
    assert bulk.summary() == loop.summary()


class TestObserveMany:
    """``observe_many`` is repeated ``observe``, decimation included."""

    @pytest.mark.parametrize("cap", [10, 11])
    def test_chunks_across_decimation(self, monkeypatch, cap):
        from repro.service import telemetry

        monkeypatch.setattr(telemetry, "MAX_OBSERVATIONS", cap)
        rng = np.random.default_rng(3)
        bulk, loop = Histogram(), Histogram()
        # Chunks shorter than, equal to and many times the cap, landing on
        # every offset of the decimation point.
        for size in [0, 1, 3, cap - 1, cap, cap + 1, 2 * cap + 3, 5 * cap, 7, 1, 4 * cap + 1]:
            values = rng.lognormal(-7.0, 1.0, size)
            bulk.observe_many(values)
            for value in values:
                loop.observe(value)
            _same(bulk, loop)
        assert len(bulk._values) <= cap

    def test_real_cap(self):
        from repro.service import telemetry

        values = np.random.default_rng(4).random(telemetry.MAX_OBSERVATIONS + 1234) * 1e-3
        bulk, loop = Histogram(), Histogram()
        loop.observe(0.1)
        bulk.observe_many([0.1])
        bulk.observe_many(values.tolist())
        for value in values.tolist():
            loop.observe(value)
        _same(bulk, loop)

    def test_accepts_any_iterable_of_numbers(self):
        bulk, loop = Histogram(), Histogram()
        bulk.observe_many(iter([1, np.float32(2.5), 3.0]))
        for value in (1, np.float32(2.5), 3.0):
            loop.observe(value)
        _same(bulk, loop)
        assert all(type(value) is float for value in bulk._values)


class TestTelemetry:
    def test_counters_and_snapshot(self):
        telemetry = Telemetry()
        telemetry.increment("requests", 3)
        telemetry.increment("completed", 3)
        telemetry.increment("batches")
        telemetry.increment("batched_requests", 3)
        telemetry.observe("latency_seconds", 0.5)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["requests"] == 3
        assert snapshot["coalescing_factor"] == pytest.approx(3.0)
        assert snapshot["histograms"]["latency_seconds"]["count"] == 1

    def test_record_batch_matches_individual_calls(self):
        bulk, loop = Telemetry(), Telemetry()
        bulk.record_batch({"a": 2, "b": 1}, {"h": [1.0, 2.0, 3.0]})
        loop.increment("a", 2)
        loop.increment("b")
        for value in (1.0, 2.0, 3.0):
            loop.observe("h", value)
        assert bulk.snapshot()["counters"] == loop.snapshot()["counters"]
        assert bulk.snapshot()["histograms"] == loop.snapshot()["histograms"]

    def test_reset_clears_everything(self):
        telemetry = Telemetry()
        telemetry.increment("requests")
        telemetry.observe("h", 1.0)
        telemetry.set_gauge("net_connections", 2.0)
        telemetry.reset()
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["histograms"] == {}
        assert snapshot["gauges"] == {}
        assert snapshot["elapsed_seconds"] == 0.0

    def test_gauges_set_adjust_and_snapshot(self):
        telemetry = Telemetry()
        assert telemetry.gauge("net_connections") == 0.0
        telemetry.set_gauge("net_connections", 3.0)
        assert telemetry.gauge("net_connections") == 3.0
        assert telemetry.adjust_gauge("net_connections", -1.0) == 2.0
        assert telemetry.adjust_gauge("requests_inflight", 5.0) == 5.0
        snapshot = telemetry.snapshot()
        assert snapshot["gauges"] == {"net_connections": 2.0, "requests_inflight": 5.0}

    def test_gauges_are_levels_not_counters(self):
        telemetry = Telemetry()
        telemetry.adjust_gauge("net_connections", 1.0)
        telemetry.adjust_gauge("net_connections", 1.0)
        telemetry.adjust_gauge("net_connections", -2.0)
        # A gauge returns to zero when every open is matched by a close —
        # unlike a counter, which only ever grows.
        assert telemetry.gauge("net_connections") == 0.0
        assert telemetry.counter("net_connections") == 0

    def test_gauge_writes_are_thread_safe(self):
        import threading

        telemetry = Telemetry()

        def churn():
            for _ in range(500):
                telemetry.adjust_gauge("g", 1.0)
                telemetry.adjust_gauge("g", -1.0)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.gauge("g") == 0.0


class TestRequestFingerprint:
    def test_content_addressing(self):
        times = np.linspace(0.0, 10.0, 5)
        values = np.arange(5.0)
        base = request_fingerprint("cfg", times, values, lam=1e-3)
        # Equal content in fresh arrays -> same fingerprint.
        assert request_fingerprint("cfg", times.copy(), values.copy(), lam=1e-3) == base
        # Any ingredient changing -> different fingerprint.
        assert request_fingerprint("other", times, values, lam=1e-3) != base
        assert request_fingerprint("cfg", times, values + 1.0, lam=1e-3) != base
        assert request_fingerprint("cfg", times, values, lam=1e-2) != base
        assert request_fingerprint("cfg", times, values) != base
        assert request_fingerprint("cfg", times, values, lam=1e-3, rng=1) != base
        assert request_fingerprint("cfg", times, values, lam=1e-3, sigma=0.1) != base


class TestResultCache:
    def test_hit_miss_eviction_lru(self):
        cache = ResultCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes recency: b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None  # evicted
        assert cache.get("a") == 1 and cache.get("c") == 3
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3 and stats["misses"] == 2
        assert stats["entries"] == 2

    def test_zero_budget_disables(self):
        cache = ResultCache(max_entries=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_clear_keeps_counters(self):
        cache = ResultCache()
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert cache.get("a") is None
        assert cache.stats()["hits"] == 1

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(max_entries=-1)


class TestSeedFingerprint:
    def test_generator_seeds_do_not_collide(self):
        from repro.service import request_fingerprint
        from repro.service.cache import seed_fingerprint

        times = np.linspace(0.0, 10.0, 5)
        values = np.arange(5.0)
        one = request_fingerprint("cfg", times, values, rng=np.random.default_rng(1))
        two = request_fingerprint("cfg", times, values, rng=np.random.default_rng(2))
        assert one != two
        # Generators at the identical state produce identical fits and match.
        assert seed_fingerprint(np.random.default_rng(3)) == seed_fingerprint(
            np.random.default_rng(3)
        )
        spent = np.random.default_rng(3)
        spent.random()
        assert seed_fingerprint(spent) != seed_fingerprint(np.random.default_rng(3))

    def test_none_seed_never_matches(self):
        from repro.service.cache import seed_fingerprint

        assert seed_fingerprint(None) != seed_fingerprint(None)

    def test_int_and_seedsequence_are_stable(self):
        from repro.service.cache import seed_fingerprint

        assert seed_fingerprint(7) == seed_fingerprint(np.int64(7))
        assert seed_fingerprint(np.random.SeedSequence(5)) == seed_fingerprint(
            np.random.SeedSequence(5)
        )
        assert seed_fingerprint(np.random.SeedSequence(5)) != seed_fingerprint(
            np.random.SeedSequence(6)
        )
