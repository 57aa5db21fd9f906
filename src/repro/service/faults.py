"""Deterministic, seeded fault injection for the fit service runtime.

Robustness claims are only as good as the failures they were tested
against, so the service layer exposes explicit *injection points* behind its
pool/scheduler boundaries and this module drives them from one seeded plan:

* ``solver`` — the batched solve raises a transient
  :class:`InjectedFault` before touching the session (exercises the retry
  policy, circuit breaker and degraded serial path);
* ``slow_solve`` — the solve is delayed by ``slow_solve_ms`` (exercises
  deadline misses, admission-control shedding and coalescing behind a
  busy shard);
* ``session_build`` — the pool factory raises while building a shard
  (exercises lease retries and error propagation to queued futures);
* ``cache_eviction`` — stored results are randomly evicted (exercises
  cache-hostile recovery: correctness must never depend on a hit).

Every decision is drawn from one seeded generator under a lock, so a given
``(spec, seed)`` produces the same decision *sequence* run to run; with a
single solve worker the assignment of decisions to events is fully
deterministic, which is how the chaos smoke suite pins its expectations.
The degraded serial path deliberately sits *behind* the injection points —
faults model the batched engine failing, and the fallback must not inherit
its failures.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.service.errors import ServiceError

__all__ = ["FaultPlan", "FaultSpec", "InjectedFault"]


class InjectedFault(ServiceError):
    """A failure raised on purpose by a :class:`FaultPlan`.

    Parameters
    ----------
    site:
        The injection point (``"solver"`` or ``"session_build"``).

    Notes
    -----
    ``transient`` is ``True``: injected faults model flaky infrastructure,
    so the default :class:`~repro.service.robustness.RetryPolicy` retries
    them.
    """

    transient = True

    def __init__(self, site: str) -> None:
        super().__init__(f"injected fault at {site}")
        self.site = site


@dataclass(frozen=True)
class FaultSpec:
    """Rates and shapes of the faults a :class:`FaultPlan` injects.

    Attributes
    ----------
    solver_error_rate:
        Probability that a batched solve raises a transient
        :class:`InjectedFault` (per solve attempt, retries included).
    slow_solve_rate:
        Probability that a solve is delayed by ``slow_solve_ms``.
    slow_solve_ms:
        Injected delay for slow solves.
    session_build_error_rate:
        Probability that a pool-factory build raises.
    cache_eviction_rate:
        Probability (per stored batch) that cached results are evicted.
    cache_eviction_count:
        How many random entries each eviction event drops.
    seed:
        Seed of the decision stream.
    """

    solver_error_rate: float = 0.0
    slow_solve_rate: float = 0.0
    slow_solve_ms: float = 5.0
    session_build_error_rate: float = 0.0
    cache_eviction_rate: float = 0.0
    cache_eviction_count: int = 4
    seed: int = 0


class FaultPlan:
    """Seeded driver of the service layer's fault-injection points.

    Pass an instance to :class:`~repro.service.scheduler.MicroBatchScheduler`
    (``fault_plan=``) to arm the solver/slow-solve/cache points, and wrap the
    pool factory with :meth:`wrap_factory` to arm session-build failures.
    A plan with all rates at zero is a pure observer: the scheduler still
    calls :meth:`before_solve`, so tests can record dispatch order through
    ``history`` without perturbing anything.

    Parameters
    ----------
    spec:
        The fault rates and seed.
    record:
        Keep an in-order ``history`` of every decision (site, shard, fired)
        for assertions; bounded work, off by default for long runs.
    """

    def __init__(self, spec: FaultSpec | None = None, *, record: bool = False) -> None:
        self.spec = spec if spec is not None else FaultSpec()
        self._rng = np.random.default_rng(self.spec.seed)
        self._lock = threading.Lock()
        self._record = bool(record)
        self.history: list[tuple] = []
        self.injected: dict[str, int] = {
            "solver": 0,
            "slow_solve": 0,
            "session_build": 0,
            "cache_eviction": 0,
        }

    def _draw(self, site: str, shard: Hashable, rate: float) -> bool:
        with self._lock:
            fired = rate > 0.0 and float(self._rng.random()) < rate
            if fired:
                self.injected[site] += 1
            if self._record:
                self.history.append((site, shard, fired))
        return fired

    def before_solve(self, shard: Hashable, batch_size: int) -> None:
        """Solver-boundary hook: may sleep (slow solve) or raise.

        Called by the scheduler inside the shard lock immediately before the
        batched ``fit_many`` dispatch; the raise therefore models the batch
        engine failing, not the session being corrupted.
        """
        if self._draw("slow_solve", shard, self.spec.slow_solve_rate):
            time.sleep(self.spec.slow_solve_ms / 1e3)
        if self._draw("solver", shard, self.spec.solver_error_rate):
            raise InjectedFault("solver")

    def on_session_build(self, key: Hashable) -> None:
        """Pool-factory hook: may raise a transient build failure."""
        if self._draw("session_build", key, self.spec.session_build_error_rate):
            raise InjectedFault("session_build")

    def on_cache_store(self, cache) -> None:
        """Cache hook: may evict random entries after a batch stores results."""
        if self._draw("cache_eviction", None, self.spec.cache_eviction_rate):
            with self._lock:
                eviction_rng = np.random.default_rng(self._rng.integers(2**32))
            cache.evict_random(self.spec.cache_eviction_count, rng=eviction_rng)

    def wrap_factory(self, factory):
        """Wrap a pool factory so builds pass through the injection point."""

        def faulty_factory(key: Hashable):
            self.on_session_build(key)
            return factory(key)

        return faulty_factory

    def stats(self) -> dict:
        """Injection counts per site plus the spec's rates."""
        with self._lock:
            injected = dict(self.injected)
        return {"injected": injected, "spec": self.spec.__dict__.copy()}
