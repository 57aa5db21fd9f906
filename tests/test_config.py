"""Tests for shared configuration helpers (worker-pool sizing)."""

from repro import config


class TestDefaultPoolSize:
    def test_thread_cap(self):
        assert config.default_pool_size(1) == 1
        assert config.default_pool_size(3) == 3
        assert config.default_pool_size(100) == config.DEFAULT_THREAD_POOL_CAP

    def test_unbounded_gets_full_cap(self):
        assert config.default_pool_size(None) == config.DEFAULT_THREAD_POOL_CAP == 4

    def test_at_least_one_worker(self):
        assert config.default_pool_size(0) == 1
        assert config.default_pool_size(-3) == 1
