"""Content-addressed result cache for the fit service runtime.

A production fit service sees the same request many times — replicate
uploads, dashboard refreshes, retried clients.  Solves are deterministic
functions of (deconvolver configuration, measurement grid, measurement
vector, fit options), so the service layer can answer repeats in O(lookup):
:func:`request_fingerprint` hashes that whole tuple into a stable hex digest
and :class:`ResultCache` maps digests to finished
:class:`~repro.core.result.DeconvolutionResult` objects under an LRU entry
budget.  The scheduler looks up each batch-key block of its intake with one
:meth:`ResultCache.get_many` (hits never enter the batch queue) and stores
each solved batch with one :meth:`ResultCache.put_many`.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
from collections import OrderedDict
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.core.session import sigma_fingerprint, times_fingerprint
from repro.utils.rng import SeedLike

__all__ = ["GridFingerprints", "ResultCache", "request_fingerprint", "seed_fingerprint"]

#: Monotonic source of never-repeating tokens for seeds without a stable
#: content identity (see :func:`seed_fingerprint`).
_OPAQUE_SEEDS = itertools.count()


def seed_fingerprint(rng: SeedLike) -> str:
    """Deterministic content token of a seed specification.

    Integer seeds and ``SeedSequence``s are pure values; a
    ``numpy.random.Generator`` is identified by its *current bit-generator
    state* (two generators at the same state produce identical fits —
    ``repr()`` of a generator would collapse every instance to
    ``"Generator(PCG64)"`` and alias distinct streams).  ``None`` means
    fresh entropy and anything unrecognised has no stable identity: those
    get a unique token every call, keeping them out of the result cache and
    out of shared batches instead of silently colliding.
    """
    if isinstance(rng, (int, np.integer)):
        return f"int:{int(rng)}"
    if isinstance(rng, np.random.SeedSequence):
        return f"seq:{rng.entropy}:{rng.spawn_key}"
    if isinstance(rng, np.random.Generator):
        return f"gen:{rng.bit_generator.state!r}"
    return f"opaque:{next(_OPAQUE_SEEDS)}"


def request_fingerprint(
    config: Hashable,
    times: np.ndarray,
    measurements: np.ndarray,
    *,
    sigma: np.ndarray | float | None = None,
    lam: float | None = None,
    lambda_method: str = "gcv",
    lambda_grid: np.ndarray | None = None,
    rng: object = 0,
) -> str:
    """Stable content hash of one fit request.

    Two requests share a fingerprint exactly when a deterministic solver
    must return identical results for them: same session configuration key,
    same measurement grid and values (bit-wise), same smoothing settings and
    the same seed content (the seed steers kernel construction and CV fold
    assignment; see :func:`seed_fingerprint` for what counts as the same
    seed — ``None`` never matches anything, including itself).

    Parameters
    ----------
    config:
        Hashable configuration key addressing the session pool shard.
    times, measurements, sigma, lam, lambda_method, lambda_grid, rng:
        As in :meth:`repro.core.deconvolver.Deconvolver.fit`.

    Returns
    -------
    str
        Hex digest; collisions are cryptographically unlikely (blake2b).
    """
    times = np.asarray(times, dtype=float)
    fingerprints = GridFingerprints(
        config,
        times_fingerprint(times),
        sigma_fingerprint(times, sigma),
        seed_fingerprint(rng),
    )
    return fingerprints(
        np.ascontiguousarray(np.asarray(measurements, dtype=float)),
        lam,
        lambda_method,
        lambda_grid,
    )


class GridFingerprints:
    """:func:`request_fingerprint` for many requests on one grid.

    The configuration key and the grid's identity bytes are hashed once;
    each call then costs one copy of the shared hash prefix plus the
    request's own bytes, and returns the digest :func:`request_fingerprint`
    gives for that request.

    Parameters
    ----------
    config:
        Configuration key, as in :func:`request_fingerprint`.
    times_key, sigma_key:
        :func:`~repro.core.session.times_fingerprint` and
        :func:`~repro.core.session.sigma_fingerprint` of the grid.
    seed_key:
        :func:`seed_fingerprint` of the seed.
    """

    def __init__(
        self, config: Hashable, times_key: bytes, sigma_key: bytes, seed_key: str
    ) -> None:
        self._head = hashlib.blake2b(repr(config).encode() + times_key, digest_size=20)
        self._sigma = sigma_key
        self._seed = seed_key.encode()

    def __call__(
        self,
        measurements,
        lam: float | None = None,
        lambda_method: str = "gcv",
        lambda_grid: np.ndarray | None = None,
    ) -> str:
        """Digest of one request whose float64 ``measurements`` buffer is given."""
        digest = self._head.copy()
        digest.update(measurements)
        digest.update(
            b"".join(
                (
                    self._sigma,
                    b"none" if lam is None else repr(float(lam)).encode(),
                    lambda_method.encode(),
                    b"default-grid"
                    if lambda_grid is None
                    else np.ascontiguousarray(np.asarray(lambda_grid, dtype=float)).tobytes(),
                    self._seed,
                )
            )
        )
        return digest.hexdigest()


class ResultCache:
    """Thread-safe LRU cache from request fingerprints to fit results.

    Parameters
    ----------
    max_entries:
        Entry budget; the least recently *used* (hit or stored) entries are
        evicted once the budget is exceeded.  ``0`` disables caching (every
        lookup misses, nothing is stored).
    """

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        self.max_entries = int(max_entries)
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str):
        """The cached result for ``key`` (refreshing recency), or ``None``."""
        return self.get_many((key,))[0]

    def get_many(self, keys: Sequence[str]) -> list:
        """:meth:`get` for every key in one lock round trip (``None`` per miss)."""
        entries = self._entries
        with self._lock:
            found = [entries.get(key) for key in keys]
            hits = 0
            for key, entry in zip(keys, found):
                if entry is not None:
                    entries.move_to_end(key)
                    hits += 1
            self.hits += hits
            self.misses += len(found) - hits
        return found

    def put(self, key: str, result: object) -> None:
        """Store ``result`` under ``key``, evicting LRU entries over budget."""
        self.put_many(((key, result),))

    def put_many(self, items: Iterable[tuple[str, object]]) -> None:
        """Store every ``(key, result)`` pair in order under one lock.

        Leaves the same entries, recency order and eviction count as one
        :meth:`put` per pair.
        """
        if self.max_entries == 0:
            return
        with self._lock:
            entries = self._entries
            for key, result in items:
                entries[key] = result
                entries.move_to_end(key)
            while len(entries) > self.max_entries:
                entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def evict_random(self, count: int, rng=None) -> int:
        """Evict up to ``count`` entries chosen by ``rng``; returns how many.

        The fault-injection harness uses this to model cache-hostile
        conditions (cold restarts, pressure evictions) deterministically:
        with a seeded generator the same keys disappear run to run.  Counts
        toward the ``evictions`` counter.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = np.random.default_rng(rng)
        with self._lock:
            keys = list(self._entries)
            if not keys:
                return 0
            victims = rng.choice(len(keys), size=min(count, len(keys)), replace=False)
            for index in victims:
                del self._entries[keys[int(index)]]
            self.evictions += len(victims)
            return len(victims)

    def stats(self) -> dict:
        """Entry count, budget and hit/miss/eviction counters."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
