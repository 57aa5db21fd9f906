"""Micro-batching scheduler: many producers, coalesced multi-RHS solves.

:class:`MicroBatchScheduler` is the concurrency layer of the fit service.
Producer threads call :meth:`MicroBatchScheduler.submit` with a
:class:`FitRequest` and immediately get a
:class:`concurrent.futures.Future`.  The producer itself appends the request
to its configuration shard's queue — a bound on the requests queued across
all shards is the backpressure: producers block once the service is
saturated — and starts the shard's runner on the worker pool when none is
active.  An idle shard therefore solves a request at once, and a busy shard
coalesces for free: when a solve ends, its runner takes everything queued
meanwhile, merges it by compatibility key — same configuration shard,
measurement grid and fit options — and splits it at ``max_batch``.  Each
batch goes through the shard deconvolver's ``fit_many(engine="batch")``
against the shard session's warm caches — one stacked multi-RHS solve per
distinct lambda, one shared GCV scoring pass for the whole batch — so the
marginal cost per request is one gradient plus one row of a batched solve,
while every response stays bit-identical (to 1e-10) to a direct
:meth:`~repro.core.deconvolver.Deconvolver.fit` call (the session layer's
tested guarantee).

The scheduler is SLO-aware and failure-contained:

* Requests carry a ``priority`` and an optional ``deadline_ms``.  The
  batches a runner takes together solve in priority order, admission
  control *sheds* requests whose projected queue wait already exceeds their
  deadline budget (:class:`~repro.service.errors.RequestShed`), and
  requests that age out in the queue are dropped with
  :class:`~repro.service.errors.DeadlineExceeded` instead of solving stale
  work.
* Transient solve and session-build failures are retried under a
  :class:`~repro.service.robustness.RetryPolicy`; repeated failures trip a
  per-shard :class:`~repro.service.robustness.CircuitBreaker` that routes
  traffic to a *degraded* serial path (one plain ``fit`` per request —
  bit-exact, just slower) until a half-open probe heals the fast path.
* A supervisor guarantees that no future ever hangs: if a shard runner's
  loop fails outside a batch, every queued future on every shard fails with
  :class:`~repro.service.errors.SchedulerCrashed` and later submits raise
  it immediately; a batch whose own execution raises fails its items with
  the causing error.
* An optional :class:`~repro.service.faults.FaultPlan` arms seeded fault
  injection at the solve boundary (solver errors, slow solves, cache
  evictions) for the chaos scenario suite.

Results of finished solves are recorded in a content-addressed
:class:`~repro.service.cache.ResultCache`; repeated requests short-circuit
at submit time without ever entering the queue.  Counters and latency /
batch-size histograms land in a
:class:`~repro.service.telemetry.Telemetry` hub.  ``shutdown(drain=True)``
(also the context-manager exit) completes everything queued before
stopping; ``drain=False`` cancels whatever no runner has taken yet.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro import config
from repro.core.session import fit_options_bucket
from repro.service.cache import ResultCache, request_fingerprint, seed_fingerprint
from repro.service.errors import (
    DeadlineExceeded,
    IntakeOverflow,
    RequestShed,
    SchedulerCrashed,
)
from repro.service.faults import FaultPlan
from repro.service.pool import SessionPool
from repro.service.robustness import CircuitBreaker, RetryPolicy
from repro.service.telemetry import Telemetry
from repro.utils.rng import SeedLike

__all__ = ["DEFAULT_CONFIG_KEY", "FitRequest", "MicroBatchScheduler"]

#: Pool shard addressed by requests that do not name a configuration.
DEFAULT_CONFIG_KEY = "default"


@dataclass
class FitRequest:
    """One deconvolution request addressed to a pool shard.

    Parameters mirror :meth:`repro.core.deconvolver.Deconvolver.fit` plus
    ``config``, the :class:`~repro.service.pool.SessionPool` shard key naming
    the deconvolver configuration that should serve the request, and two
    scheduling hints:

    * ``priority`` — larger values dispatch first when batches compete for
      a worker; ties keep arrival order.
    * ``deadline_ms`` — SLO budget from submit to response.  Admission
      control sheds the request up front when the projected queue wait
      already exceeds it, and the solve path drops it with
      :class:`~repro.service.errors.DeadlineExceeded` if it ages out before
      its solve starts.  ``None`` means no deadline (never shed, never
      dropped); a negative or non-finite value fails admission with
      ``ValueError``.

    Both hints steer *scheduling only*: they are excluded from
    :meth:`batch_key` and :meth:`fingerprint`, so mixed-priority traffic
    still coalesces and cached content answers any deadline.
    """

    times: np.ndarray
    measurements: np.ndarray
    sigma: np.ndarray | float | None = None
    lam: float | None = None
    lambda_method: str = "gcv"
    lambda_grid: np.ndarray | None = None
    rng: SeedLike = 0
    config: Hashable = DEFAULT_CONFIG_KEY
    priority: int = 0
    deadline_ms: float | None = None

    def batch_key(self) -> tuple:
        """Coalescing key: requests sharing it solve as one stacked batch.

        The session layer's :func:`~repro.core.session.fit_options_bucket`
        (fixed-lambda fits on one (grid, sigma) coalesce regardless of their
        lambda values, selection fits also group by method and candidate
        grid) prefixed with the configuration shard and the seed content
        (:func:`~repro.service.cache.seed_fingerprint` — the seed steers
        kernel construction and CV fold assignment, which a batch shares;
        ``None`` seeds never coalesce).  Priority and deadline are
        scheduling hints, not solve inputs, so they do not split batches.
        """
        return (
            self.config,
            seed_fingerprint(self.rng),
        ) + fit_options_bucket(
            self.times, self.sigma, self.lam, self.lambda_method, self.lambda_grid
        )

    def fingerprint(self) -> str:
        """Content hash for the result cache (see :func:`request_fingerprint`)."""
        return request_fingerprint(
            self.config,
            self.times,
            self.measurements,
            sigma=self.sigma,
            lam=self.lam,
            lambda_method=self.lambda_method,
            lambda_grid=self.lambda_grid,
            rng=self.rng,
        )


@dataclass
class _QueuedItem:
    """A request in flight: the future to resolve and its timing/cache keys.

    ``batch_key`` is computed once, by the producer; the shard runners only
    read it.
    """

    request: FitRequest
    future: Future
    enqueued_at: float
    batch_key: tuple
    cache_key: str | None = field(default=None)
    deadline_at: float | None = field(default=None)
    settled: bool = field(default=False)


def _invalid_request(request: FitRequest) -> ValueError | None:
    """Admission check shared by ``submit`` and ``submit_many``.

    Returns the request's own error, or ``None`` when it may be queued.
    Malformed content has to fail at admission: inside a coalesced batch a
    short vector breaks the shared ``column_stack`` and a NaN poisons the
    shared solve, failing every neighbour with it.
    """
    try:
        measurements = np.asarray(request.measurements, dtype=float)
        times = np.asarray(request.times, dtype=float)
        lam = None if request.lam is None else float(request.lam)
        deadline = None if request.deadline_ms is None else float(request.deadline_ms)
    except (TypeError, ValueError) as exc:
        return ValueError(f"invalid fit request: {exc}")
    if measurements.ndim != 1 or measurements.shape != times.shape:
        return ValueError(
            f"measurements must be 1-D with one value per time point, got shape "
            f"{measurements.shape} for {times.size} times"
        )
    if not np.isfinite(measurements).all():
        return ValueError("measurements must be finite")
    if lam is not None and not (math.isfinite(lam) and lam >= 0.0):
        return ValueError(f"lam must be None or finite and >= 0, got {lam!r}")
    if deadline is not None and not (math.isfinite(deadline) and deadline >= 0.0):
        # Not a shed: no amount of retrying makes such a budget feasible.
        return ValueError(f"deadline_ms must be None or finite and >= 0, got {deadline!r}")
    return None


def _make_item(request: FitRequest, future: Future, now: float, cache_key) -> _QueuedItem:
    deadline_at = None
    if request.deadline_ms is not None:
        deadline_at = now + float(request.deadline_ms) / 1e3
    return _QueuedItem(request, future, now, request.batch_key(), cache_key, deadline_at)


class MicroBatchScheduler:
    """Coalesce concurrent fit requests into stacked multi-RHS solves.

    Parameters
    ----------
    pool:
        The :class:`~repro.service.pool.SessionPool` whose shards serve the
        requests.
    max_batch:
        The dispatch cap: a runner splits what it takes into batches of at
        most this many requests.
    max_queue:
        Bound on the requests queued for a runner, over all shards;
        :meth:`submit` blocks once it is reached (backpressure) until the
        runners catch up.
    workers:
        Size of the solve thread pool; defaults to
        :func:`repro.config.default_pool_size` for an unbounded task count.
        Each shard is drained by one runner at a time, so workers buy
        parallelism across shards.
    cache:
        Result cache; defaults to a fresh 1024-entry
        :class:`~repro.service.cache.ResultCache`.  Pass ``ResultCache(0)``
        to disable caching.
    telemetry:
        Metrics hub; defaults to a fresh
        :class:`~repro.service.telemetry.Telemetry`.
    retry:
        :class:`~repro.service.robustness.RetryPolicy` for transient solve
        and session-build failures; defaults to three attempts with seeded
        exponential backoff.  ``RetryPolicy(max_attempts=1)`` disables
        retries.
    breaker_threshold:
        Consecutive solve/build failures on one shard that trip its circuit
        breaker onto the degraded serial path.
    breaker_reset_s:
        Seconds a tripped breaker stays open before a half-open probe.
    fault_plan:
        Optional seeded :class:`~repro.service.faults.FaultPlan` arming the
        solver / slow-solve / cache-eviction injection points (session-build
        faults are armed by wrapping the pool factory).
    """

    def __init__(
        self,
        pool: SessionPool,
        *,
        max_batch: int = 32,
        max_queue: int = 1024,
        workers: int | None = None,
        cache: ResultCache | None = None,
        telemetry: Telemetry | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        self.pool = pool
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.cache = cache if cache is not None else ResultCache()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self.workers = (
            int(workers) if workers is not None else config.default_pool_size(None)
        )
        self._accept_lock = threading.Lock()
        self._closed = False
        self._crashed: SchedulerCrashed | None = None
        self._outstanding = 0
        self._outstanding_cond = threading.Condition()
        # EWMA of the amortized solve seconds per request, feeding admission
        # control.  A plain float store written by one runner at a time;
        # readers tolerate staleness.
        self._request_cost = 0.0
        self._breaker_lock = threading.Lock()
        self._breakers: dict[Hashable, CircuitBreaker] = {}
        # Each shard has a queue of same-key request groups and at most one
        # active runner.  Producers append under the shard lock and start a
        # runner only for an inactive shard; the runner takes the whole
        # queue at once and deactivates atomically with finding it empty.
        # ``_queued`` counts the requests in all queues against max_queue.
        self._shard_lock = threading.Lock()
        self._not_full = threading.Condition(self._shard_lock)
        self._shard_queues: dict[Hashable, list[list[_QueuedItem]]] = {}
        self._shard_active: set = set()
        self._queued = 0
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service-worker"
        )

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._crashed is not None:
            raise SchedulerCrashed("scheduler crashed") from self._crashed
        if self._closed:
            raise RuntimeError("scheduler has been shut down")

    def projected_wait_seconds(self) -> float:
        """Admission-control queue-wait projection for a new request.

        The EWMA amortized solve cost per request times the number of
        requests already in flight.  A heuristic, deliberately cheap (two
        float loads) and conservative: it assumes the new request queues
        behind everything outstanding.
        """
        return self._request_cost * self._outstanding

    def _shed_exception(self, request: FitRequest) -> RequestShed | None:
        if request.deadline_ms is None:
            return None
        projected = self.projected_wait_seconds() * 1e3
        if projected <= float(request.deadline_ms):
            return None
        return RequestShed(projected, float(request.deadline_ms))

    def _put(self, items: list[_QueuedItem], timeout: float | None) -> int:
        """Queue the longest prefix of one same-key group that fits.

        The caller holds ``_not_full`` (the shard lock).  Waits while the
        request bound is reached and raises :class:`queue.Full` when no slot
        frees within ``timeout`` seconds.  Starts the shard's runner when
        the shard is inactive.  Returns the number of requests queued.
        """
        if not self._not_full.wait_for(lambda: self._queued < self.max_queue, timeout):
            raise queue.Full
        accepted = min(len(items), self.max_queue - self._queued)
        shard = items[0].batch_key[0]
        self._shard_queues.setdefault(shard, []).append(
            items if accepted == len(items) else items[:accepted]
        )
        self._queued += accepted
        # Counted before any runner can take them, so drain() never sees a
        # zero while they are in flight.
        with self._outstanding_cond:
            self._outstanding += accepted
        if shard not in self._shard_active and self._crashed is None:
            self._shard_active.add(shard)
            self._executor.submit(self._run_shard, shard)
        return accepted

    def submit(self, request: FitRequest, *, timeout: float | None = None) -> Future:
        """Queue one request; returns a future resolving to its result.

        A malformed request (non-finite or mis-shaped measurements, a
        negative or non-finite ``lam`` or ``deadline_ms``) fails its own
        future with ``ValueError`` and is never queued.  Cache hits resolve
        immediately without entering the queue.  A request with a
        ``deadline_ms`` the service cannot meet is shed up front: its future
        fails with :class:`~repro.service.errors.RequestShed` and nothing is
        queued.  When ``max_queue`` requests are already queued the call
        blocks (backpressure) until space frees, or raises
        :class:`queue.Full` after ``timeout`` seconds if a timeout is given.
        ``timeout=0`` never blocks: if the queue is full, or another
        producer holds the accept lock (a ``submit_many`` blocked
        mid-list), it raises :class:`queue.Full` at once and queues nothing
        — the event-loop submit of the network edge relies on this.  Raises
        :class:`RuntimeError` after :meth:`shutdown` and
        :class:`~repro.service.errors.SchedulerCrashed` after a runner crash
        (for cached and uncached content alike).
        """
        self._check_open()
        future: Future = Future()
        invalid = _invalid_request(request)
        if invalid is not None:
            self.telemetry.record_batch({"requests": 1, "errors": 1}, {})
            future.set_exception(invalid)
            return future
        cache_key = request.fingerprint() if self.cache.max_entries > 0 else None
        if cache_key is not None:
            cached = self.cache.get(cache_key)
            if cached is not None:
                self.telemetry.record_batch(
                    {"requests": 1, "cache_hits": 1, "completed": 1},
                    {"latency_seconds": [0.0]},
                )
                future.set_result(cached)
                return future
        shed = self._shed_exception(request)
        if shed is not None:
            self.telemetry.record_batch({"requests": 1, "shed": 1}, {})
            future.set_exception(shed)
            return future
        item = _make_item(request, future, time.perf_counter(), cache_key)
        if not self._accept_lock.acquire(blocking=timeout != 0):
            raise queue.Full
        try:
            self._check_open()
            with self._not_full:
                self._put([item], timeout)
        finally:
            self._accept_lock.release()
        self.telemetry.increment("requests")
        return future

    def submit_many(
        self, requests: Iterable[FitRequest], *, timeout: float | None = None
    ) -> list[Future]:
        """Bulk intake: queue many requests with one lock round-trip.

        Semantically ``[submit(r) for r in requests]`` (malformed requests
        fail alone, cache hits resolve immediately, deadline-infeasible
        requests shed, the rest are queued in order within each batch key)
        but the accept lock, the shard lock and telemetry are taken once for
        the whole list and each shard queue receives one group per batch
        key, which matters for bulk producers feeding hundreds of requests
        at a time.

        If a ``timeout`` is given and the queue stays full, the call raises
        :class:`~repro.service.errors.IntakeOverflow` (a
        :class:`queue.Full` subclass) carrying the explicit split: its
        ``accepted`` lists one future per accepted request in input order
        (cache hits and queued requests — all of which are still
        processed), its ``rejected`` lists, in input order, the requests
        that were never queued.  The rejected requests' futures are failed
        with the same overflow error, so nothing silently drops and nothing
        hangs.
        """
        self._check_open()
        futures: list[Future] = []
        hits = 0
        shed = 0
        invalid = 0
        queued: list[_QueuedItem] = []
        groups: dict[tuple, list[_QueuedItem]] = {}
        now = time.perf_counter()
        for request in requests:
            future = Future()
            futures.append(future)
            error = _invalid_request(request)
            if error is not None:
                invalid += 1
                future.set_exception(error)
                continue
            cache_key = request.fingerprint() if self.cache.max_entries > 0 else None
            cached = self.cache.get(cache_key) if cache_key is not None else None
            if cached is not None:
                hits += 1
                future.set_result(cached)
                continue
            shed_exc = self._shed_exception(request)
            if shed_exc is not None:
                shed += 1
                future.set_exception(shed_exc)
                continue
            item = _make_item(request, future, now, cache_key)
            queued.append(item)
            groups.setdefault(item.batch_key, []).append(item)
        pending = list(groups.values())
        try:
            with self._accept_lock:
                self._check_open()
                with self._not_full:
                    while pending:
                        # Each slice is counted as it is queued: if a wait
                        # times out mid-list, the queued items stay
                        # correctly accounted and drain()/shutdown() still
                        # converge.
                        accepted = self._put(pending[0], timeout)
                        if accepted == len(pending[0]):
                            pending.pop(0)
                        else:
                            pending[0] = pending[0][accepted:]
        except queue.Full:
            rejected_futures = {id(item.future) for group in pending for item in group}
            rejected_items = [item for item in queued if id(item.future) in rejected_futures]
            overflow = IntakeOverflow(
                [f for f in futures if id(f) not in rejected_futures],
                [item.request for item in rejected_items],
            )
            for item in rejected_items:
                # Never counted as outstanding, so fail directly (no
                # _settled bookkeeping) — the future must not hang.
                item.future.set_exception(overflow)
            self.telemetry.record_batch(
                {
                    "requests": len(futures),
                    "cache_hits": hits,
                    "completed": hits,
                    "shed": shed,
                    "errors": invalid,
                    "rejected": len(rejected_items),
                },
                {"latency_seconds": [0.0] * hits},
            )
            raise overflow from None
        self.telemetry.record_batch(
            {
                "requests": len(futures),
                "cache_hits": hits,
                "completed": hits,
                "shed": shed,
                "errors": invalid,
            },
            {"latency_seconds": [0.0] * hits},
        )
        return futures

    def map(self, requests: Iterable[FitRequest]) -> list:
        """Submit ``requests`` and block for their results, in input order."""
        futures = self.submit_many(requests)
        return [future.result() for future in futures]

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every accepted request has resolved.

        Returns ``True`` when the service went idle, ``False`` on timeout.
        """
        with self._outstanding_cond:
            return self._outstanding_cond.wait_for(
                lambda: self._outstanding == 0, timeout=timeout
            )

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service.

        With ``drain=True`` (default) everything already accepted is solved
        before the threads stop; with ``drain=False`` requests no runner has
        taken yet are cancelled (their futures end in the cancelled state).
        Idempotent; safe after a crash (the crash path already resolved
        everything).
        """
        with self._accept_lock:
            if self._closed and self._crashed is None:
                return
            self._closed = True
        if drain:
            self.drain(timeout)
        else:
            for item in self._take_all():
                self._cancel(item)
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "MicroBatchScheduler":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(drain=exc_type is None)

    @property
    def closed(self) -> bool:
        """``True`` once :meth:`shutdown` has been called (or after a crash)."""
        return self._closed

    @property
    def crashed(self) -> bool:
        """``True`` when a shard runner crashed and the service is down."""
        return self._crashed is not None

    def queue_depth(self) -> int:
        """Number of accepted requests waiting for a shard runner to take them."""
        return self._queued

    def outstanding(self) -> int:
        """Number of accepted requests not yet resolved (queued + solving)."""
        with self._outstanding_cond:
            return self._outstanding

    def stats(self) -> dict:
        """Queue depth, in-flight count, knobs, and pool/cache/telemetry stats."""
        with self._outstanding_cond:
            outstanding = self._outstanding
        with self._breaker_lock:
            breakers = {repr(key): b.state for key, b in self._breakers.items()}
        return {
            "queued": self._queued,
            "outstanding": outstanding,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "request_cost_ms": self._request_cost * 1e3,
            "closed": self._closed,
            "crashed": self._crashed is not None,
            "breakers": breakers,
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "telemetry": self.telemetry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Shard queues
    # ------------------------------------------------------------------

    def _take(self, shard: Hashable) -> list[list[_QueuedItem]] | None:
        """Take every group queued for ``shard``.

        Returns ``None``, and deactivates the shard in the same locked step,
        when nothing is queued or the service has crashed.
        """
        with self._shard_lock:
            groups = self._shard_queues.get(shard)
            if not groups or self._crashed is not None:
                self._shard_active.discard(shard)
                return None
            taken = groups[:]
            groups.clear()
            self._queued -= sum(len(group) for group in taken)
            self._not_full.notify_all()
        return taken

    def _take_all(self) -> list[_QueuedItem]:
        """Empty every shard queue; returns the requests no runner took."""
        with self._shard_lock:
            taken = [
                item
                for groups in self._shard_queues.values()
                for group in groups
                for item in group
            ]
            for groups in self._shard_queues.values():
                groups.clear()
            self._queued -= len(taken)
            self._not_full.notify_all()
        return taken

    def _batches(self, taken: list[list[_QueuedItem]]) -> list[list[_QueuedItem]]:
        """Merge groups by batch key, split at ``max_batch``, highest priority first.

        This is the only place batches are formed: whatever queued up while
        the previous solve ran coalesces here, however it arrived.  The sort
        is stable, so ties keep arrival order.
        """
        merged: dict[tuple, list[_QueuedItem]] = {}
        for group in taken:
            merged.setdefault(group[0].batch_key, []).extend(group)
        batches = [
            items[start : start + self.max_batch]
            for items in merged.values()
            for start in range(0, len(items), self.max_batch)
        ]
        batches.sort(key=lambda batch: -max(item.request.priority for item in batch))
        return batches

    def _on_runner_crash(self, exc: BaseException, taken: list[_QueuedItem]) -> None:
        """Fail every queued future on every shard; poison later submits.

        The supervisor path behind the hang-forever fix.  Flag order
        matters: ``_crashed``/``_closed`` are set and the request bound is
        lifted under the shard lock *before* the queues are emptied, so no
        runner takes work any more and a producer blocked part-way through
        a bulk submit completes and releases the accept lock; the second
        sweep, under the accept lock, catches its items.  Producers arriving
        later fail the ``_check_open`` gate instead.
        """
        with self._shard_lock:
            first = self._crashed is None
            if first:
                crash = SchedulerCrashed("a shard runner crashed; the service is down")
                crash.__cause__ = exc
                self._crashed = crash
                self._closed = True
                self.max_queue = math.inf
                self._not_full.notify_all()
            crash = self._crashed
        if first:
            self.telemetry.increment("scheduler_crashes")
        for item in taken + self._take_all():
            self._fail(item, crash)
        with self._accept_lock:
            for item in self._take_all():
                self._fail(item, crash)

    # ------------------------------------------------------------------
    # Runner side
    # ------------------------------------------------------------------

    def _breaker_for(self, shard: Hashable) -> CircuitBreaker:
        with self._breaker_lock:
            breaker = self._breakers.get(shard)
            if breaker is None:
                breaker = self._breakers[shard] = CircuitBreaker(
                    self.breaker_threshold, self.breaker_reset_s
                )
            return breaker

    def _acquire_entry_with_retry(self, shard: Hashable):
        """Lease the shard, retrying transient session-build failures."""
        breaker = self._breaker_for(shard)
        attempt = 0
        while True:
            try:
                entry = self.pool.acquire(shard)
                return entry
            except Exception as exc:
                if breaker.record_failure():
                    self.telemetry.increment("breaker_trips")
                if self.retry.should_retry(exc, attempt):
                    self.telemetry.increment("retries")
                    time.sleep(self.retry.delay_seconds(attempt))
                    attempt += 1
                    continue
                raise

    def _run_shard(self, shard: Hashable) -> None:
        """Drain one shard's queue on a single worker thread.

        The pool lease (and with it the shard lock) is taken once for the
        whole drain, so back-to-back batches of one configuration never pay
        a thread handoff.  Each round takes everything queued and solves it
        in the batches :meth:`_batches` forms; the runner deactivates
        atomically with finding the queue empty, and the next producer into
        an inactive shard starts a new runner.  Session-build failures (e.g.
        an injected fault in the pool factory) are retried per the policy
        and otherwise fail the queued futures.  A batch whose execution
        raises unexpectedly fails *its own* items; a failure anywhere else in
        the loop takes the :meth:`_on_runner_crash` path, so a dying runner
        never leaves a hang.
        """
        try:
            entry = self._acquire_entry_with_retry(shard)
        except Exception as exc:  # e.g. the pool factory failed
            while (failed := self._take(shard)) is not None:
                for group in failed:
                    for item in group:
                        self._fail(item, exc)
            return
        taken = None
        try:
            while (taken := self._take(shard)) is not None:
                for items in self._batches(taken):
                    try:
                        self._run_batch(entry, items)
                    except BaseException as exc:
                        # A runner must never strand its batch: the settled
                        # guard makes double-failing already-resolved items
                        # a no-op.
                        for item in items:
                            self._fail(item, exc)
        except BaseException as exc:
            self._on_runner_crash(exc, [item for group in taken or () for item in group])
        finally:
            self.pool.release(entry)

    def _solve_fast(self, entry, to_solve: list[_QueuedItem]) -> list:
        """One batched ``fit_many`` dispatch with retry and breaker wiring."""
        breaker = self._breaker_for(entry.key)
        first = to_solve[0].request
        attempt = 0
        while True:
            try:
                start = time.perf_counter()
                with entry.lock:
                    if self.fault_plan is not None:
                        self.fault_plan.before_solve(entry.key, len(to_solve))
                    matrix = np.column_stack(
                        [item.request.measurements for item in to_solve]
                    )
                    # All items share a batch key, so this is exactly one
                    # session bucket: dispatch it as a single fit_many call
                    # (one stacked multi-RHS solve per distinct lambda)
                    # against the shard's warm session caches.
                    results = entry.deconvolver.fit_many(
                        first.times,
                        matrix,
                        sigma=first.sigma,
                        lam=None
                        if first.lam is None
                        else [item.request.lam for item in to_solve],
                        lambda_method=first.lambda_method,
                        lambda_grid=first.lambda_grid,
                        rng=first.rng,
                        engine="batch",
                    )
                self._observe_solve(time.perf_counter() - start, len(to_solve))
                breaker.record_success()
                return results
            except Exception as exc:
                if breaker.record_failure():
                    self.telemetry.increment("breaker_trips")
                if self.retry.should_retry(exc, attempt):
                    self.telemetry.increment("retries")
                    time.sleep(self.retry.delay_seconds(attempt))
                    attempt += 1
                    continue
                raise

    def _solve_degraded(self, entry, to_solve: list[_QueuedItem]) -> list:
        """Serial-reference fallback: one plain ``fit`` per request.

        Runs while the shard's breaker is open.  Results are bit-exact with
        the fast path (the session layer's tested guarantee) — only slower,
        which is the graceful-degradation contract.  Sits *behind* the
        fault-injection boundary on purpose: injected faults model the
        batched engine failing, and the fallback must not inherit them.
        Per-item failures come back as the exception instance so one bad
        request cannot take down its batch neighbours.
        """
        self.telemetry.increment("degraded_requests", len(to_solve))
        out: list = []
        for item in to_solve:
            request = item.request
            try:
                with entry.lock:
                    out.append(
                        entry.deconvolver.fit(
                            request.times,
                            request.measurements,
                            sigma=request.sigma,
                            lam=request.lam,
                            lambda_method=request.lambda_method,
                            lambda_grid=request.lambda_grid,
                            rng=request.rng,
                        )
                    )
            except Exception as exc:
                out.append(exc)
        return out

    def _observe_solve(self, solve_seconds: float, solved: int) -> None:
        per_request = solve_seconds / max(1, solved)
        self._request_cost = (
            per_request
            if self._request_cost == 0.0
            else 0.8 * self._request_cost + 0.2 * per_request
        )
        self.telemetry.observe("solve_seconds", solve_seconds)

    def _run_batch(self, entry, items: Sequence[_QueuedItem]) -> None:
        # Triage pass: late cache hits (an earlier batch may have solved
        # identical content since these items were queued) deliver even when
        # stale — delivery is free; everything else is checked against its
        # deadline before any solve time is spent, then deduplicated so
        # bit-exact repeats inside one batch need a single solve row.
        now = time.perf_counter()
        ready: list[tuple[_QueuedItem, object]] = []
        to_solve: list[_QueuedItem] = []
        missed = 0
        leaders: dict[str, int] = {}
        duplicates: dict[int, list[_QueuedItem]] = {}
        for item in items:
            key = item.cache_key
            if key is not None:
                cached = self.cache.get(key)
                if cached is not None:
                    ready.append((item, cached))
                    continue
            if item.deadline_at is not None and now > item.deadline_at:
                self._miss_deadline(item, now)
                missed += 1
                continue
            if key is not None:
                leader = leaders.get(key)
                if leader is not None:
                    duplicates.setdefault(leader, []).append(item)
                    continue
                leaders[key] = len(to_solve)
            to_solve.append(item)
        deduplicated = len(items) - len(ready) - len(to_solve) - missed
        results: list = []
        if to_solve:
            breaker = self._breaker_for(entry.key)
            degraded = not breaker.allow()
            if not degraded:
                try:
                    results = self._solve_fast(entry, to_solve)
                except Exception as exc:
                    if breaker.state == "open":
                        # The failure (or an earlier one) tripped the shard:
                        # serve this batch on the degraded path instead of
                        # failing it.
                        degraded = True
                    else:
                        now = time.perf_counter()
                        self.telemetry.record_batch(
                            {
                                "batches": 1,
                                "batched_requests": len(items),
                                "cache_hits": len(ready),
                                "deduplicated": deduplicated,
                                "completed": len(ready),
                            },
                            {
                                "batch_size": [len(items)],
                                "latency_seconds": [
                                    now - item.enqueued_at for item, _ in ready
                                ],
                            },
                        )
                        for index, item in enumerate(to_solve):
                            self._fail(item, exc)
                            for duplicate in duplicates.get(index, []):
                                self._fail(duplicate, exc)
                        for item, result in ready:
                            self._resolve(item, result)
                        return
            if degraded:
                results = self._solve_degraded(entry, to_solve)
        now = time.perf_counter()
        latencies = []
        resolved = 0
        stored = 0
        for index, (item, result) in enumerate(zip(to_solve, results)):
            if isinstance(result, BaseException):
                self._fail(item, result)
                for duplicate in duplicates.get(index, []):
                    self._fail(duplicate, result)
                continue
            if item.cache_key is not None:
                # A cached result must not pin its shard session's
                # factorization caches past pool eviction; releasing keeps
                # the lazy diagnostics and costs only attribute rebinds.
                self.cache.put(item.cache_key, result.release_backing_caches())
                stored += 1
            latencies.append(now - item.enqueued_at)
            self._resolve(item, result)
            resolved += 1
            for duplicate in duplicates.get(index, []):
                latencies.append(now - duplicate.enqueued_at)
                self._resolve(duplicate, result)
                resolved += 1
        for item, result in ready:
            latencies.append(now - item.enqueued_at)
            self._resolve(item, result)
            resolved += 1
        if stored and self.fault_plan is not None:
            self.fault_plan.on_cache_store(self.cache)
        self.telemetry.record_batch(
            {
                "batches": 1,
                "batched_requests": len(items),
                "cache_hits": len(ready),
                "deduplicated": deduplicated,
                "completed": resolved,
            },
            {"batch_size": [len(items)], "latency_seconds": latencies},
        )

    def _settle(self, item: _QueuedItem) -> bool:
        # Each item is owned by exactly one thread at a time (its producer,
        # then whoever takes it from the shard queue under the shard lock:
        # a runner, the crash sweep or a discarding shutdown), so a plain flag is enough to make resolution
        # idempotent — the crash paths may re-fail a batch defensively.
        if item.settled:
            return False
        item.settled = True
        return True

    def _resolve(self, item: _QueuedItem, result: object) -> None:
        if not self._settle(item):
            return
        try:
            item.future.set_result(result)
        except InvalidStateError:  # future was cancelled by the caller
            pass
        self._settled()

    def _fail(self, item: _QueuedItem, exc: BaseException) -> None:
        if not self._settle(item):
            return
        self.telemetry.increment("errors")
        try:
            item.future.set_exception(exc)
        except InvalidStateError:
            pass
        self._settled()

    def _miss_deadline(self, item: _QueuedItem, now: float) -> None:
        if not self._settle(item):
            return
        self.telemetry.increment("deadline_missed")
        waited_ms = (now - item.enqueued_at) * 1e3
        try:
            item.future.set_exception(
                DeadlineExceeded(waited_ms, float(item.request.deadline_ms))
            )
        except InvalidStateError:
            pass
        self._settled()

    def _cancel(self, item: _QueuedItem) -> None:
        if not self._settle(item):
            return
        self.telemetry.increment("cancelled")
        item.future.cancel()
        self._settled()

    def _settled(self) -> None:
        with self._outstanding_cond:
            self._outstanding -= 1
            if self._outstanding == 0:
                self._outstanding_cond.notify_all()
