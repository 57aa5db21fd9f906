"""Sharded, budget-bounded pool of :class:`~repro.core.session.FitSession`.

A long-lived fit service serves many deconvolver configurations (parameter
sets, basis sizes, solver backends), each of which owns per-grid kernels and
factorizations through its session.  :class:`SessionPool` shards those
sessions by an opaque hashable *configuration key*: the first lease of a key
builds a deconvolver through the caller-supplied factory (which typically
registers pre-built kernels on the session), later leases return the same
entry with every factorization warm.  An LRU policy bounds the pool by entry
count and, optionally, by the sessions' approximate memory
(:meth:`~repro.core.session.FitSession.approx_bytes`); entries currently
leased by a worker are never evicted.  Hit/miss/eviction counters make the
cache behaviour observable.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import TYPE_CHECKING, Callable, Hashable, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.deconvolver import Deconvolver

__all__ = ["PoolEntry", "SessionFactory", "SessionPool"]


class SessionFactory:
    """Session factory: a deconvolver config plus its kernels.

    :class:`SessionPool` accepts any ``factory(key) -> Deconvolver``
    callable; this class is the common one.  It carries cell-cycle
    parameters, basis size, constraint overrides, solver backend and
    pre-built kernels as plain attributes (so it also pickles), and builds
    the same configured deconvolver for every shard key.

    Parameters
    ----------
    parameters:
        Cell-cycle parameters of the deconvolver (``None`` = paper values).
    num_basis:
        Spline basis size.
    constraints:
        Constraint overrides (``None`` = the defaults).
    solver_backend:
        Solver backend passed through to the deconvolver.
    kernels:
        Pre-built kernels registered on every new session.
    """

    def __init__(
        self,
        *,
        parameters=None,
        num_basis: int | None = None,
        constraints=None,
        solver_backend: str = "auto",
        kernels=(),
    ) -> None:
        self.parameters = parameters
        self.num_basis = num_basis
        self.constraints = constraints
        self.solver_backend = solver_backend
        self.kernels = list(kernels)

    def __call__(self, _key: Hashable) -> "Deconvolver":
        """Build a configured deconvolver with every kernel registered."""
        from repro import config
        from repro.core.deconvolver import Deconvolver

        deconvolver = Deconvolver(
            parameters=self.parameters,
            num_basis=self.num_basis
            if self.num_basis is not None
            else config.DEFAULT_NUM_BASIS,
            constraints=self.constraints,
            solver_backend=self.solver_backend,
        )
        session = deconvolver.session()
        for kernel in self.kernels:
            session.register_kernel(kernel)
        return deconvolver


class PoolEntry:
    """One pool shard: a deconvolver, its session and a serialization lock.

    Sessions are not thread-safe, so every worker touching ``session`` (or
    fitting through ``deconvolver``) must hold ``lock``;
    :meth:`SessionPool.lease` hands entries out with the lease already
    counted so the pool cannot evict them mid-solve.
    """

    def __init__(self, key: Hashable, deconvolver: "Deconvolver") -> None:
        self.key = key
        self.deconvolver = deconvolver
        self.session = deconvolver.session()
        self.lock = threading.RLock()
        self.leases = 0


class SessionPool:
    """LRU pool of fit sessions sharded by configuration key.

    Parameters
    ----------
    factory:
        ``factory(key) -> Deconvolver`` building the configured facade for a
        shard; it may pre-register kernels on ``deconvolver.session()``.
    max_entries:
        Entry budget (at least 1); least-recently-leased shards are evicted
        once exceeded.
    max_bytes:
        Optional budget on the summed
        :meth:`~repro.core.session.FitSession.approx_bytes` of all entries;
        LRU shards are evicted until the total fits (the most recent entry
        is always kept, so one oversized session does not thrash).
    """

    def __init__(
        self,
        factory: Callable[[Hashable], "Deconvolver"],
        *,
        max_entries: int = 8,
        max_bytes: int | None = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self._factory = factory
        self.max_entries = int(max_entries)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: OrderedDict[Hashable, PoolEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.build_failures = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def keys(self) -> list:
        """Shard keys in LRU-to-MRU order (least recently leased first)."""
        with self._lock:
            return list(self._entries)

    def _evict_over_budget(self) -> None:
        # Caller holds self._lock.  Walk LRU-first, skipping leased entries
        # and the MRU entry (the one just acquired).
        def over_budget() -> bool:
            if len(self._entries) > self.max_entries:
                return True
            if self.max_bytes is None or len(self._entries) <= 1:
                return False
            total = sum(e.session.approx_bytes() for e in self._entries.values())
            return total > self.max_bytes

        while over_budget():
            victim_key = None
            entries = list(self._entries.items())
            for key, entry in entries[:-1]:  # never the MRU entry
                if entry.leases == 0:
                    victim_key = key
                    break
            if victim_key is None:
                return  # everything evictable is leased; try again later
            del self._entries[victim_key]
            self.evictions += 1

    def acquire(self, key: Hashable) -> PoolEntry:
        """Lease the shard for ``key`` without a context manager.

        The imperative twin of :meth:`lease` for callers that need to retry
        the build (the scheduler's transient-failure path): the returned
        entry's lease count is raised and the caller MUST pair this with
        :meth:`release`.  Factory failures propagate (and count in
        ``build_failures``) without registering an entry.
        """
        return self._acquire(key)

    def release(self, entry: PoolEntry) -> None:
        """Return a lease taken with :meth:`acquire`."""
        self._release(entry)

    def _acquire(self, key: Hashable) -> PoolEntry:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                entry.leases += 1
                return entry
            self.misses += 1
        # Build outside the pool lock: factories run Monte-Carlo kernel
        # builds and must not serialize unrelated shards.
        try:
            deconvolver = self._factory(key)
        except BaseException:
            with self._lock:
                self.build_failures += 1
            raise
        built = PoolEntry(key, deconvolver)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                entry = built
                self._entries[key] = entry
            self._entries.move_to_end(key)
            entry.leases += 1
            self._evict_over_budget()
            return entry

    def _release(self, entry: PoolEntry) -> None:
        with self._lock:
            entry.leases -= 1
            self._evict_over_budget()

    @contextmanager
    def lease(self, key: Hashable) -> Iterator[PoolEntry]:
        """Context-managed shard access protected from eviction.

        Yields the :class:`PoolEntry` for ``key`` (building it on a miss)
        with its lease count raised for the duration of the ``with`` block.
        The caller must still take ``entry.lock`` before touching the
        session; the pool only guarantees the entry stays resident.
        """
        entry = self._acquire(key)
        try:
            yield entry
        finally:
            self._release(entry)

    def clear(self) -> None:
        """Drop every unleased shard (counters are kept)."""
        with self._lock:
            for key in [k for k, e in self._entries.items() if e.leases == 0]:
                del self._entries[key]

    def stats(self) -> dict:
        """Pool shape, budgets, counters and per-shard session stats."""
        with self._lock:
            entries = list(self._entries.items())
            return {
                "entries": len(entries),
                "max_entries": self.max_entries,
                "max_bytes": self.max_bytes,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "build_failures": self.build_failures,
                "total_bytes": sum(e.session.approx_bytes() for _, e in entries),
                "sessions": {repr(key): e.session.stats() for key, e in entries},
            }
