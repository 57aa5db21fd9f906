"""Tests for the sharded, LRU-bounded session pool."""

import pickle

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.service import SessionFactory, SessionPool


class CountingFactory:
    """Deconvolver factory that records every build, per key."""

    def __init__(self, parameters, kernel=None):
        self.parameters = parameters
        self.kernel = kernel
        self.builds = []

    def __call__(self, key):
        self.builds.append(key)
        deconvolver = Deconvolver(parameters=self.parameters, num_basis=8)
        if self.kernel is not None:
            deconvolver.session().register_kernel(self.kernel)
        return deconvolver


@pytest.fixture()
def factory(paper_parameters):
    return CountingFactory(paper_parameters)


class TestSessionPool:
    def test_lease_builds_once_per_key(self, factory):
        pool = SessionPool(factory)
        with pool.lease("a") as first:
            pass
        with pool.lease("a") as second:
            pass
        assert first is second
        assert factory.builds == ["a"]
        assert pool.stats()["hits"] == 1 and pool.stats()["misses"] == 1

    def test_lru_eviction_order_respects_recency(self, factory):
        pool = SessionPool(factory, max_entries=2)
        for key in ("a", "b"):
            with pool.lease(key):
                pass
        with pool.lease("a"):  # refresh a: b becomes LRU
            pass
        with pool.lease("c"):
            pass
        assert "b" not in pool
        assert "a" in pool and "c" in pool
        assert pool.stats()["evictions"] == 1

    def test_rebuild_after_evict(self, factory):
        pool = SessionPool(factory, max_entries=1)
        with pool.lease("a"):
            pass
        with pool.lease("b"):
            pass
        assert "a" not in pool
        with pool.lease("a") as rebuilt:
            assert rebuilt.session.num_grids == 0
        assert factory.builds == ["a", "b", "a"]

    def test_leased_entries_survive_budget_pressure(self, factory):
        pool = SessionPool(factory, max_entries=1)
        with pool.lease("a") as held:
            with pool.lease("b"):
                # Over budget, but "a" is leased and "b" is MRU: both stay.
                assert "a" in pool and "b" in pool
                assert held.leases == 1
        # Once the leases are back, the budget is enforced again.
        assert len(pool) == 1

    def test_max_bytes_budget_evicts_lru(self, paper_parameters, small_kernel):
        factory = CountingFactory(paper_parameters, kernel=small_kernel)
        per_session = factory(None).session().approx_bytes()
        assert per_session > 0
        pool = SessionPool(factory, max_entries=8, max_bytes=per_session)
        with pool.lease("a") as entry:
            entry.deconvolver.fit_workspace(small_kernel.times)
        with pool.lease("b") as entry:
            entry.deconvolver.fit_workspace(small_kernel.times)
        # Two kernel-bearing sessions exceed the one-session byte budget.
        assert len(pool) == 1
        assert "b" in pool and "a" not in pool

    def test_stats_shape(self, factory):
        pool = SessionPool(factory, max_entries=3)
        with pool.lease("a"):
            pass
        stats = pool.stats()
        assert stats["entries"] == 1
        assert "'a'" in stats["sessions"]
        session_stats = stats["sessions"]["'a'"]
        assert {"grids", "workspaces", "approx_bytes"} <= set(session_stats)

    def test_clear_skips_leased(self, factory):
        pool = SessionPool(factory)
        with pool.lease("a"):
            with pool.lease("b"):
                pass
            pool.clear()
            assert "a" in pool and "b" not in pool

    def test_budget_validation(self, factory):
        with pytest.raises(ValueError):
            SessionPool(factory, max_entries=0)
        with pytest.raises(ValueError):
            SessionPool(factory, max_bytes=-1)


class TestSessionFactory:
    def test_session_factory_pickles_and_rebuilds(self, paper_parameters, small_kernel):
        factory = SessionFactory(
            parameters=paper_parameters, num_basis=8, kernels=[small_kernel]
        )
        clone = pickle.loads(pickle.dumps(factory))
        deconvolver = clone("any-key")
        assert isinstance(deconvolver, Deconvolver)
        values = small_kernel.apply_function(lambda v: np.full_like(v, 1.0))
        direct = factory("any-key").fit(small_kernel.times, values, lam=1e-3)
        rebuilt = deconvolver.fit(small_kernel.times, values, lam=1e-3)
        assert np.max(np.abs(direct.coefficients - rebuilt.coefficients)) <= 1e-12
