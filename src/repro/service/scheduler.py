"""Micro-batching scheduler: many producers, coalesced multi-RHS solves.

:class:`MicroBatchScheduler` is the concurrency layer of the fit service.
Producer threads call :meth:`MicroBatchScheduler.submit` with a
:class:`FitRequest` and immediately get a
:class:`concurrent.futures.Future`; a dedicated batcher thread pulls
requests off a bounded queue (the bound is the backpressure: producers block
once the service is saturated), coalesces them by compatibility key — same
configuration shard, measurement grid and fit options — within a
``max_batch`` / ``max_wait_ms`` window, and dispatches each coalesced batch
to a worker pool.  Workers push each batch through the shard deconvolver's
``fit_many(engine="batch")`` against the shard session's warm caches —
one stacked multi-RHS solve per distinct lambda, one shared GCV scoring
pass for the whole batch — so the marginal cost per request is one gradient
plus one row of a batched solve, while every response stays bit-identical
(to 1e-10) to a direct :meth:`~repro.core.deconvolver.Deconvolver.fit`
call (the session layer's tested guarantee).

The scheduler is SLO-aware and failure-contained:

* Requests carry a ``priority`` and an optional ``deadline_ms``.  Pending
  batches dispatch in priority order, admission control *sheds* requests
  whose projected queue wait already exceeds their deadline budget
  (:class:`~repro.service.errors.RequestShed`), requests that age out in
  the queue are dropped with
  :class:`~repro.service.errors.DeadlineExceeded` instead of solving stale
  work, and the batching window adapts down from observed solve latency
  (:class:`~repro.service.robustness.AdaptiveWindow`) so waiting never
  dominates fast solves.
* Transient solve and session-build failures are retried under a
  :class:`~repro.service.robustness.RetryPolicy`; repeated failures trip a
  per-shard :class:`~repro.service.robustness.CircuitBreaker` that routes
  traffic to a *degraded* serial path (one plain ``fit`` per request —
  bit-exact, just slower) until a half-open probe heals the fast path.
* A supervisor guarantees that no future ever hangs: if the batcher thread
  dies, every queued and pending future fails with
  :class:`~repro.service.errors.SchedulerCrashed` and later submits raise
  it immediately; if a shard runner dies mid-drain its batches fail with
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
stopping; ``drain=False`` cancels whatever has not been dispatched yet.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from collections import deque
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
from repro.service.robustness import AdaptiveWindow, CircuitBreaker, RetryPolicy
from repro.service.telemetry import Telemetry
from repro.utils.rng import SeedLike

__all__ = ["DEFAULT_CONFIG_KEY", "FitRequest", "MicroBatchScheduler"]

#: Pool shard addressed by requests that do not name a configuration.
DEFAULT_CONFIG_KEY = "default"

#: Queue sentinel asking the batcher thread to flush and exit.
_STOP = object()


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

    ``batch_key`` is computed once, by the producer; the batcher and the
    shard runners only read it.
    """

    request: FitRequest
    future: Future
    enqueued_at: float
    batch_key: tuple
    cache_key: str | None = field(default=None)
    deadline_at: float | None = field(default=None)
    settled: bool = field(default=False)


class _Intake:
    """FIFO of same-batch-key request groups, bounded by requests held.

    Each entry is a non-empty list of :class:`_QueuedItem` sharing one batch
    key (``submit`` enqueues a one-item list, ``submit_many`` one list per
    batch key), so the batcher pays one handoff per group instead of one per
    request.  The ``max_requests`` bound counts *requests*, not entries:
    :meth:`put` enqueues the longest prefix of a group that fits, blocking
    until at least one slot frees.  The stop sentinel is exempt from the
    bound, and :meth:`unbound` lifts the bound for good (the crash path, so
    a producer blocked mid-group can finish and have its items failed).
    """

    def __init__(self, max_requests: int) -> None:
        self.max_requests = max_requests
        self._entries: deque = deque()
        self._requests = 0
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)

    def qsize(self) -> int:
        """Number of requests held (not entries)."""
        return self._requests

    def put(self, items: list, timeout: float | None = None) -> int:
        """Enqueue the longest prefix of ``items`` that fits; returns its length.

        Blocks while the intake is full; raises :class:`queue.Full` when no
        slot frees within ``timeout`` seconds.
        """
        with self._not_full:
            if not self._not_full.wait_for(
                lambda: self._requests < self.max_requests, timeout
            ):
                raise queue.Full
            accepted = min(len(items), self.max_requests - self._requests)
            self._entries.append(items if accepted == len(items) else items[:accepted])
            self._requests += accepted
            self._not_empty.notify()
            return accepted

    def put_stop(self) -> None:
        """Enqueue the stop sentinel behind everything accepted so far."""
        with self._lock:
            self._entries.append(_STOP)
            self._not_empty.notify()

    def get(self, timeout: float | None = None):
        """Pop the oldest entry; raises :class:`queue.Empty` on timeout."""
        with self._not_empty:
            if not self._not_empty.wait_for(lambda: self._entries, timeout):
                raise queue.Empty
            return self._pop()

    def get_nowait(self):
        """Pop the oldest entry; raises :class:`queue.Empty` when there is none."""
        with self._lock:
            if not self._entries:
                raise queue.Empty
            return self._pop()

    def _pop(self):
        entry = self._entries.popleft()
        if entry is not _STOP:
            self._requests -= len(entry)
            self._not_full.notify()
        return entry

    def unbound(self) -> None:
        """Lift the bound and wake every blocked producer."""
        with self._lock:
            self.max_requests = math.inf
            self._not_full.notify_all()


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
        Dispatch a coalesced batch as soon as it holds this many requests.
    max_wait_ms:
        Dispatch a partial batch once its oldest request has waited this
        long — the latency bound of the micro-batching window.  With
        ``adaptive_wait`` the *effective* window shrinks toward the
        observed solve latency but never exceeds this bound.
    max_queue:
        Bound of the intake queue, in requests; :meth:`submit` blocks once
        it is full (backpressure) until the batcher catches up.
    workers:
        Size of the solve thread pool; defaults to
        :func:`repro.config.default_pool_size` for an unbounded task count.
        Batches for one shard serialize on the shard lock, so workers buy
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
    adaptive_wait:
        Tune the effective batching window down from observed p95 solve
        latency (never above ``max_wait_ms``).  ``False`` pins the window
        to ``max_wait_ms`` exactly.
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
        max_wait_ms: float = 2.0,
        max_queue: int = 1024,
        workers: int | None = None,
        cache: ResultCache | None = None,
        telemetry: Telemetry | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
        adaptive_wait: bool = True,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        self.pool = pool
        self.max_batch = int(max_batch)
        self.max_wait_seconds = float(max_wait_ms) / 1e3
        self.cache = cache if cache is not None else ResultCache()
        self.telemetry = telemetry if telemetry is not None else Telemetry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.fault_plan = fault_plan
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self.workers = (
            int(workers) if workers is not None else config.default_pool_size(None)
        )
        self._queue = _Intake(int(max_queue))
        self._accept_lock = threading.Lock()
        self._closed = False
        self._discard = False
        self._crashed: SchedulerCrashed | None = None
        self._outstanding = 0
        self._outstanding_cond = threading.Condition()
        self._window = AdaptiveWindow(self.max_wait_seconds) if adaptive_wait else None
        # EWMA latency model feeding admission control and early dispatch:
        # amortized solve seconds per request and per batch.  Plain float
        # stores written by one worker at a time; readers tolerate staleness.
        self._request_cost = 0.0
        self._batch_cost = 0.0
        self._breaker_lock = threading.Lock()
        self._breakers: dict[Hashable, CircuitBreaker] = {}
        # Batches are executed by per-shard runners: one worker drains one
        # shard's batch queue end to end (holding the pool lease once), so
        # consecutive batches of a shard never pay a thread handoff or fight
        # over the shard lock.
        self._shard_lock = threading.Lock()
        self._shard_queues: dict[Hashable, list] = {}
        self._shard_active: set = set()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-service-worker"
        )
        self._batcher = threading.Thread(
            target=self._batch_loop, name="repro-service-batcher", daemon=True
        )
        self._batcher.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._crashed is not None:
            raise SchedulerCrashed("scheduler crashed") from self._crashed
        if self._closed:
            raise RuntimeError("scheduler has been shut down")

    def effective_wait_seconds(self) -> float:
        """The batching window currently in force (adaptive or configured)."""
        if self._window is not None:
            return self._window.current()
        return self.max_wait_seconds

    def projected_wait_seconds(self) -> float:
        """Admission-control queue-wait projection for a new request.

        The EWMA amortized solve cost per request times the number of
        requests already in flight, plus the current batching window.  A
        heuristic, deliberately cheap (two float loads) and conservative:
        it assumes the new request queues behind everything outstanding.
        """
        return self._request_cost * self._outstanding + self.effective_wait_seconds()

    def _shed_exception(self, request: FitRequest) -> RequestShed | None:
        if request.deadline_ms is None:
            return None
        projected = self.projected_wait_seconds() * 1e3
        if projected <= float(request.deadline_ms):
            return None
        return RequestShed(projected, float(request.deadline_ms))

    def submit(self, request: FitRequest, *, timeout: float | None = None) -> Future:
        """Queue one request; returns a future resolving to its result.

        A malformed request (non-finite or mis-shaped measurements, a
        negative or non-finite ``lam`` or ``deadline_ms``) fails its own
        future with ``ValueError`` and is never queued.  Cache hits resolve
        immediately without entering the queue.  A request with a
        ``deadline_ms`` the service cannot meet is shed up front: its future
        fails with :class:`~repro.service.errors.RequestShed` and nothing is
        queued.  When the intake queue is full the call blocks
        (backpressure) until space frees, or raises :class:`queue.Full`
        after ``timeout`` seconds if a timeout is given.  ``timeout=0``
        never blocks: if the intake is full, or another producer holds the
        accept lock (a ``submit_many`` blocked mid-list), it raises
        :class:`queue.Full` at once and queues nothing — the event-loop
        submit of the network edge relies on this.  Raises
        :class:`RuntimeError` after
        :meth:`shutdown` and :class:`~repro.service.errors.SchedulerCrashed`
        after a batcher crash (for cached and uncached content alike).
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
            self._queue.put([item], timeout=timeout)
            with self._outstanding_cond:
                self._outstanding += 1
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
        requests shed, the rest enter the batching queue in order within
        each batch key) but the accept lock and telemetry are touched once
        for the whole list and the intake receives one entry per batch key,
        which matters for bulk producers feeding hundreds of requests at a
        time.

        If a ``timeout`` is given and the queue stays full, the call raises
        :class:`~repro.service.errors.IntakeOverflow` (a
        :class:`queue.Full` subclass) carrying the explicit split: its
        ``accepted`` lists one future per accepted request in input order
        (cache hits and enqueued requests — all of which are still
        processed), its ``rejected`` lists, in input order, the requests
        that never entered the queue.  The rejected requests' futures are
        failed with the same overflow error, so nothing silently drops and
        nothing hangs.
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
                while pending:
                    # Count each slice as it is accepted: if a put times out
                    # mid-list, the already-enqueued items stay correctly
                    # accounted and drain()/shutdown() still converge.
                    accepted = self._queue.put(pending[0], timeout=timeout)
                    with self._outstanding_cond:
                        self._outstanding += accepted
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
        before the threads stop; with ``drain=False`` requests not yet
        dispatched to a worker are cancelled (their futures end in the
        cancelled state).  Idempotent; safe after a crash (the crash path
        already resolved everything).
        """
        with self._accept_lock:
            if self._closed:
                if self._crashed is None:
                    return
            else:
                self._closed = True
                self._discard = not drain
        self._queue.put_stop()
        self._batcher.join(timeout)
        if drain:
            self.drain(timeout)
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
        """``True`` when the batcher thread died and the service is down."""
        return self._crashed is not None

    def queue_depth(self) -> int:
        """Number of accepted requests (not entries) waiting in the intake queue."""
        return self._queue.qsize()

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
            "queued": self._queue.qsize(),
            "outstanding": outstanding,
            "workers": self.workers,
            "max_batch": self.max_batch,
            "max_wait_ms": self.max_wait_seconds * 1e3,
            "effective_wait_ms": self.effective_wait_seconds() * 1e3,
            "request_cost_ms": self._request_cost * 1e3,
            "closed": self._closed,
            "crashed": self._crashed is not None,
            "breakers": breakers,
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
            "telemetry": self.telemetry.snapshot(),
        }

    # ------------------------------------------------------------------
    # Batcher thread
    # ------------------------------------------------------------------

    def _batch_loop(self) -> None:
        pending: dict[tuple, list[_QueuedItem]] = {}
        deadlines: dict[tuple, float] = {}
        priorities: dict[tuple, int] = {}

        def dispatch(key: tuple) -> None:
            items = pending.pop(key)
            deadlines.pop(key, None)
            priorities.pop(key, None)
            shard = key[0]
            with self._shard_lock:
                self._shard_queues.setdefault(shard, []).append(items)
                if shard in self._shard_active:
                    return
                self._shard_active.add(shard)
            self._executor.submit(self._run_shard, shard)

        # Items of the entry being added that sit in no bucket yet; the
        # crash path fails them along with the buckets.
        unplaced: list[_QueuedItem] = []

        def add(entry: list[_QueuedItem]) -> None:
            # One intake entry holds requests of a single batch key; it is
            # split at max_batch boundaries exactly as one-by-one arrival
            # would be.
            nonlocal unplaced
            unplaced = entry
            key = entry[0].batch_key
            now = time.perf_counter()
            while unplaced:
                bucket = pending.get(key)
                if bucket is None:
                    bucket = pending[key] = []
                    deadlines[key] = now + self.effective_wait_seconds()
                    priorities[key] = unplaced[0].request.priority
                chunk = unplaced[: self.max_batch - len(bucket)]
                bucket.extend(chunk)
                unplaced = unplaced[len(chunk) :]
                priorities[key] = max(
                    priorities[key], max(item.request.priority for item in chunk)
                )
                for item in chunk:
                    if item.deadline_at is not None:
                        # Deadline-aware early dispatch: leave an estimated
                        # solve's worth of headroom before the tightest
                        # deadline in the bucket, instead of idling out the
                        # full window.
                        target = max(now, item.deadline_at - self._batch_cost)
                        deadlines[key] = min(deadlines[key], target)
                if len(bucket) >= self.max_batch:
                    dispatch(key)

        try:
            while True:
                timeout = None
                if deadlines:
                    timeout = max(0.0, min(deadlines.values()) - time.perf_counter())
                try:
                    entry = self._queue.get(timeout=timeout)
                except queue.Empty:
                    entry = None
                if entry is _STOP:
                    # FIFO guarantees every accepted entry precedes the stop
                    # sentinel; drain whatever is left, then flush or cancel.
                    while True:
                        try:
                            extra = self._queue.get_nowait()
                        except queue.Empty:
                            break
                        if extra is not _STOP:
                            add(extra)
                    for key in sorted(pending, key=lambda k: -priorities[k]):
                        if self._discard:
                            for stale in pending.pop(key):
                                self._cancel(stale)
                        else:
                            dispatch(key)
                    return
                if entry is not None:
                    add(entry)
                now = time.perf_counter()
                expired = [k for k, d in deadlines.items() if d <= now]
                # Highest priority dispatches first when several buckets
                # expire in the same tick (ties keep dict / arrival order).
                for key in sorted(expired, key=lambda k: -priorities[k]):
                    dispatch(key)
        except BaseException as exc:
            self._on_batcher_crash(exc, pending, unplaced)
            raise

    def _on_batcher_crash(
        self, exc: BaseException, pending: dict, unplaced: list[_QueuedItem]
    ) -> None:
        """Fail every queued and pending future; poison later submits.

        The supervisor path behind the hang-forever fix: the batcher dying
        used to strand whatever sat in the intake queue.  Flag order
        matters — ``_crashed``/``_closed`` are set and the intake bound is
        lifted *before* draining, so any producer blocked in ``put`` (even
        part-way through a bulk submit) completes, releases the accept lock,
        and its items are caught by the locked second drain; producers
        arriving later fail the ``_check_open`` gate instead.
        """
        crash = SchedulerCrashed("the batcher thread crashed; the service is down")
        crash.__cause__ = exc
        self._crashed = crash
        self._closed = True
        self.telemetry.increment("scheduler_crashes")
        # Nothing consumes the intake any more: without a bound, a producer
        # blocked part-way through a bulk submit finishes instead of waiting
        # forever for room while holding the accept lock.
        self._queue.unbound()

        def drain_queue() -> None:
            while True:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    return
                if extra is not _STOP:
                    for item in extra:
                        self._fail(item, crash)

        drain_queue()
        with self._accept_lock:
            drain_queue()
        for items in [unplaced, *pending.values()]:
            for item in items:
                self._fail(item, crash)
        pending.clear()

    # ------------------------------------------------------------------
    # Worker side
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

    def _fail_shard_queue(self, shard: Hashable, exc: BaseException) -> None:
        while True:
            with self._shard_lock:
                batches = self._shard_queues.get(shard)
                if not batches:
                    self._shard_active.discard(shard)
                    return
                items = batches.pop(0)
            for item in items:
                self._fail(item, exc)

    def _run_shard(self, shard: Hashable) -> None:
        """Drain one shard's dispatched batches on a single worker thread.

        The pool lease (and with it the shard lock) is taken once for the
        whole drain, so back-to-back batches of one configuration never pay
        a thread handoff; the runner deactivates atomically with the
        emptiness check, and the batcher starts a new runner when it
        dispatches into an inactive shard.  Session-build failures (e.g. an
        injected fault in the pool factory) are retried per the policy and
        otherwise fail the queued futures — and a batch whose execution
        raises unexpectedly fails *its own* items instead of stranding
        them, so a dying runner never leaves a hang.
        """
        try:
            entry = self._acquire_entry_with_retry(shard)
        except Exception as exc:  # e.g. the pool factory failed
            self._fail_shard_queue(shard, exc)
            return
        try:
            while True:
                with self._shard_lock:
                    batches = self._shard_queues.get(shard)
                    if not batches:
                        self._shard_active.discard(shard)
                        return
                    taken, batches[:] = batches[:], []
                # Adaptive re-batching: everything that queued up while
                # the previous solve ran is taken in one gulp and
                # re-merged by batch key, so sustained load coalesces
                # into maximal batches no matter how the time windows
                # fell at intake.
                merged: dict[tuple, list[_QueuedItem]] = {}
                for items in taken:
                    merged.setdefault(items[0].batch_key, []).extend(items)
                ordered = sorted(
                    merged.values(),
                    key=lambda batch: -max(i.request.priority for i in batch),
                )
                for items in ordered:
                    try:
                        self._run_batch(entry, items)
                    except BaseException as exc:
                        # A runner must never strand its batch: the settled
                        # guard makes double-failing already-resolved items
                        # a no-op.
                        for item in items:
                            self._fail(item, exc)
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
        if self._window is not None:
            self._window.observe(solve_seconds)
        per_request = solve_seconds / max(1, solved)
        self._request_cost = (
            per_request
            if self._request_cost == 0.0
            else 0.8 * self._request_cost + 0.2 * per_request
        )
        self._batch_cost = (
            solve_seconds
            if self._batch_cost == 0.0
            else 0.8 * self._batch_cost + 0.2 * solve_seconds
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
        # Each item is owned by exactly one thread at a time (the batcher or
        # its shard runner), so a plain flag is enough to make resolution
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
