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
measurement grid and fit options — and folds bit-exact repeats into one
solve row.  Each key block is one batch and goes through the shard
deconvolver's ``fit_many`` against the shard session's warm caches — one
stacked multi-RHS solve per distinct lambda, one shared GCV scoring pass
for the whole batch — so the marginal cost per request is one gradient
plus one row of a batched solve, while every response stays bit-identical
(to 1e-10) to a direct :meth:`~repro.core.deconvolver.Deconvolver.fit`
call (the session layer's tested guarantee).

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
  bit-exact, just slower) until a half-open probe heals the fast path.  A
  client fault (:class:`~repro.utils.validation.InvalidRequest`) fails its
  own requests and never counts against the breaker.
* A supervisor guarantees that no future ever hangs: if a shard runner's
  loop fails outside a batch, every queued future on every shard fails with
  :class:`~repro.service.errors.SchedulerCrashed` and later submits raise
  it immediately; a batch whose own execution raises fails its items with
  the causing error.
* An optional :class:`~repro.service.faults.FaultPlan` arms seeded fault
  injection at the solve boundary (solver errors, slow solves, cache
  evictions) for the chaos scenario suite.

Intake works one batch key at a time: ``submit_many`` groups its requests
by key and admits, fingerprints and looks up each key block as a whole, and
``submit`` is the one-request case of the same path.  Results of
finished solves are recorded in a content-addressed
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
from concurrent.futures._base import CANCELLED, CANCELLED_AND_NOTIFIED, FINISHED, PENDING
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro import config
from repro.core.lambda_selection import LAMBDA_METHODS
from repro.core.session import fit_options_bucket
from repro.service.cache import (
    GridFingerprints,
    ResultCache,
    request_fingerprint,
    seed_fingerprint,
)
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
from repro.utils.validation import InvalidRequest, check_lambda_grid

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
      :class:`~repro.utils.validation.InvalidRequest` (a ``ValueError``).

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

        ``(config, seed token, times bytes, sigma bytes, ...)``: the session
        layer's :func:`~repro.core.session.fit_options_bucket`
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


_DONE = frozenset((CANCELLED, CANCELLED_AND_NOTIFIED, FINISHED))


class _BlockFuture(Future):
    """A :class:`~concurrent.futures.Future` sharing its admission's condition.

    A stock future builds its own ``threading.Condition`` (an ``RLock``, the
    bound lock methods and a waiter deque): eleven objects for the cyclic
    garbage collector per request.  The futures of one
    :meth:`MicroBatchScheduler.submit_many` call share one condition instead.  The condition is re-entrant, so
    :func:`concurrent.futures.wait` and ``as_completed``, which acquire the
    condition of every future they watch, work on siblings too.  Settling
    any sibling notifies every waiter of the block, so :meth:`result` and
    :meth:`exception` wait for this future's own state, not for the first
    wake-up.  The class sets ``Future``'s private attributes itself; the
    test matrix over the supported Python versions guards that.
    """

    def __init__(self, condition: threading.Condition) -> None:
        # Not Future.__init__: it would build the condition this shares.
        self._condition = condition
        self._state = PENDING
        self._result = None
        self._exception = None
        self._waiters = []
        self._done_callbacks = []

    def _wait(self, timeout: float | None) -> None:
        with self._condition:
            self._condition.wait_for(lambda: self._state in _DONE, timeout)

    def result(self, timeout: float | None = None):
        """As :meth:`concurrent.futures.Future.result`."""
        if self._state not in _DONE:
            self._wait(timeout)
        # Done, or the wait timed out and the stock call raises TimeoutError.
        return super().result(0)

    def exception(self, timeout: float | None = None):
        """As :meth:`concurrent.futures.Future.exception`."""
        if self._state not in _DONE:
            self._wait(timeout)
        return super().exception(0)


@dataclass(slots=True)
class _QueuedItem:
    """A request in flight: the future to resolve and its timing/content keys.

    ``batch_key`` and ``fingerprint`` are computed once, at intake; the
    shard runners only read them.
    """

    request: FitRequest
    future: Future
    enqueued_at: float
    batch_key: tuple
    fingerprint: str
    deadline_at: float | None = None
    settled: bool = False


@dataclass
class _Admission:
    """What intake made of a list of requests.

    One future per request in input order, all sharing one condition (see
    :class:`_BlockFuture`), the queueable items as one group per batch key
    (input order inside each group) and the outcome counts of the requests
    that never queue.
    """

    futures: list[Future]
    groups: list[list[_QueuedItem]] = field(default_factory=list)
    hits: int = 0
    shed: int = 0
    invalid: int = 0

    def reject(self, position: int, message: str) -> None:
        self.invalid += 1
        self.futures[position].set_exception(InvalidRequest(message))


def _grid_error(times: np.ndarray, sigma) -> str | None:
    """Why no request on this ``(times, sigma)`` grid can be solved, or ``None``.

    ``times`` must be a non-empty 1-D grid of finite, non-negative minutes,
    as the kernel build requires.  ``sigma`` already broadcasts to ``times``
    (the batch key checked it); like
    :meth:`~repro.core.deconvolver.Deconvolver.fit`, it must also be finite
    and positive.
    """
    if times.ndim != 1:
        return f"times must be 1-D, got shape {times.shape}"
    if times.size == 0:
        return "times must not be empty"
    if not (np.isfinite(times).all() and (times >= 0.0).all()):
        return "times must be finite and >= 0"
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if not (np.isfinite(sigma).all() and (sigma > 0.0).all()):
            return "sigma must be positive and finite"
    return None


def _stack_rows(rows: list, times: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Stack one block's measurement vectors and admit them.

    Returns the float matrix of the admitted rows, in order, and per input
    row ``None`` (admitted) or the reason it fails alone.  Malformed content
    has to fail at admission: inside a coalesced batch a short vector breaks
    the shared ``column_stack`` and a NaN poisons the shared solve, failing
    every neighbour with it.
    """
    try:
        matrix = np.array(rows, dtype=float)
    except (TypeError, ValueError):
        matrix = None
    if matrix is not None and matrix.shape == (len(rows), times.size):
        errors: list[str | None] = [None] * len(rows)
    else:
        # Some row has the wrong length or cannot convert: find it.
        errors, kept = [], []
        for row in rows:
            try:
                vector = np.asarray(row, dtype=float)
            except (TypeError, ValueError) as exc:
                errors.append(f"invalid fit request: {exc}")
                continue
            if vector.shape != times.shape:
                errors.append(
                    f"measurements must be 1-D with one value per time point, got "
                    f"shape {vector.shape} for {times.size} times"
                )
                continue
            errors.append(None)
            kept.append(vector)
        matrix = np.array(kept, dtype=float).reshape(len(kept), times.size)
    if not np.isfinite(matrix).all():
        finite = np.isfinite(matrix).all(axis=1)
        stacked = iter(finite.tolist())
        for index, error in enumerate(errors):
            if error is None and not next(stacked):
                errors[index] = "measurements must be finite"
        matrix = matrix[finite]
    return matrix, errors


class MicroBatchScheduler:
    """Coalesce concurrent fit requests into stacked multi-RHS solves.

    Parameters
    ----------
    pool:
        The :class:`~repro.service.pool.SessionPool` whose shards serve the
        requests.
    max_queue:
        Bound on the requests queued for a runner, over all shards;
        :meth:`submit` blocks once it is reached (backpressure) until the
        runners catch up.  It also bounds a batch: a runner solves each key
        block it takes whole, as one ``fit_many`` call.
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
        max_queue: int = 1024,
        workers: int | None = None,
        cache: ResultCache | None = None,
        telemetry: Telemetry | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 1.0,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if max_queue < 1:
            raise ValueError("max_queue must be at least 1")
        if breaker_threshold < 1:
            raise ValueError("breaker_threshold must be at least 1")
        self.pool = pool
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

    def _put(self, items: list[_QueuedItem], timeout: float | None) -> int:
        """Queue the longest prefix of one same-key group that fits.

        The caller holds ``_not_full`` (the shard lock).  Waits while the
        request bound is reached and raises :class:`queue.Full` when no slot
        frees within ``timeout`` seconds.  Starts the shard's runner when
        the shard is inactive.  Returns the number of requests queued.
        """
        if self._queued >= self.max_queue and not self._not_full.wait_for(
            lambda: self._queued < self.max_queue, timeout
        ):
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

    def _admit(self, requests: Sequence[FitRequest]) -> _Admission:
        """Admission, fingerprints and cache lookups, once per batch-key block.

        Request positions are grouped by batch key first; a request whose
        key cannot be formed (e.g. a ``sigma`` that does not broadcast to its
        ``times``) fails alone.  Then each block is checked and looked up as
        a whole, see :meth:`_admit_block`.
        """
        self._check_open()
        condition = threading.Condition()
        admission = _Admission([_BlockFuture(condition) for _ in requests])
        blocks: dict[tuple, list[int]] = {}
        for position, request in enumerate(requests):
            try:
                blocks.setdefault(request.batch_key(), []).append(position)
            except (TypeError, ValueError) as exc:
                admission.reject(position, f"invalid fit request: {exc}")
        now = time.perf_counter()
        projected_ms = self.projected_wait_seconds() * 1e3
        for key, positions in blocks.items():
            self._admit_block(requests, key, positions, admission, now, projected_ms)
        return admission

    def _admit_block(
        self,
        requests: Sequence[FitRequest],
        key: tuple,
        positions: list[int],
        admission: _Admission,
        now: float,
        projected_ms: float,
    ) -> None:
        """Admit the requests of one batch key at ``positions``.

        The grid (``times`` 1-D, ``sigma`` finite and positive, and a
        selection block's method and ``lambda_grid``, which are part of its
        batch key) is checked once and the rows are stacked and checked for length and
        finiteness together.  Each admitted row is fingerprinted from one shared hash
        prefix (:class:`~repro.service.cache.GridFingerprints`, identical to
        :func:`request_fingerprint`) and the whole block is looked up in the
        result cache at once.  ``lam``, ``deadline_ms`` and the deadline
        shed stay per request.  What is neither failed, a cache hit nor shed
        becomes this key's group.
        """
        first = requests[positions[0]]
        times = np.asarray(first.times, dtype=float)
        error = _grid_error(times, first.sigma)
        if error is None and first.lam is None:
            if first.lambda_method not in LAMBDA_METHODS:
                error = f"unknown lambda selection method {first.lambda_method!r}"
            elif first.lambda_grid is not None:
                try:
                    check_lambda_grid(first.lambda_grid)
                except ValueError as exc:
                    error = str(exc)
        if error is not None:
            for position in positions:
                admission.reject(position, error)
            return
        matrix, errors = _stack_rows([requests[p].measurements for p in positions], times)
        # The batch key already holds the grid's identity bytes.
        config, seed_key, times_key, sigma_key = key[:4]
        fingerprints = GridFingerprints(config, times_key, sigma_key, seed_key)
        by_config: dict[str, GridFingerprints] = {}
        data = matrix.tobytes()
        width = times.size * matrix.itemsize
        end = 0
        admitted: list[tuple[int, float | None, str]] = []
        for position, error in zip(positions, errors):
            if error is None:
                request = requests[position]
                start, end = end, end + width
                try:
                    lam = None if request.lam is None else float(request.lam)
                    deadline = None if request.deadline_ms is None else float(request.deadline_ms)
                    if lam is not None and not (math.isfinite(lam) and lam >= 0.0):
                        error = f"lam must be None or finite and >= 0, got {lam!r}"
                    elif deadline is not None and not (math.isfinite(deadline) and deadline >= 0.0):
                        # Not a shed: no amount of retrying makes such a
                        # budget feasible.
                        error = f"deadline_ms must be None or finite and >= 0, got {deadline!r}"
                    else:
                        grid = fingerprints
                        if request.config is not config:
                            # Equal configuration keys may differ in repr.
                            name = repr(request.config)
                            grid = by_config.get(name)
                            if grid is None:
                                grid = by_config[name] = GridFingerprints(
                                    request.config, times_key, sigma_key, seed_key
                                )
                        # Fixed-lambda blocks do not key on the method or
                        # the candidate grid, but the fingerprint covers them.
                        admitted.append(
                            (
                                position,
                                deadline,
                                grid(
                                    data[start:end],
                                    lam,
                                    request.lambda_method,
                                    request.lambda_grid,
                                ),
                            )
                        )
                        continue
                except (AttributeError, TypeError, ValueError) as exc:
                    error = f"invalid fit request: {exc}"
            admission.reject(position, error)
        if self.cache.max_entries:
            cached = self.cache.get_many([fingerprint for _, _, fingerprint in admitted])
        else:
            cached = [None] * len(admitted)
        group: list[_QueuedItem] = []
        futures = admission.futures
        for (position, deadline, fingerprint), hit in zip(admitted, cached):
            if hit is not None:
                admission.hits += 1
                futures[position].set_result(hit)
            elif deadline is None:
                group.append(_QueuedItem(requests[position], futures[position], now, key, fingerprint))
            elif projected_ms > deadline:
                admission.shed += 1
                futures[position].set_exception(RequestShed(projected_ms, deadline))
            else:
                group.append(
                    _QueuedItem(
                        requests[position],
                        futures[position],
                        now,
                        key,
                        fingerprint,
                        now + deadline / 1e3,
                    )
                )
        if group:
            admission.groups.append(group)

    def _record_intake(self, admission: _Admission, rejected: int = 0) -> None:
        hits = admission.hits
        if not (hits or admission.shed or admission.invalid or rejected):
            self.telemetry.increment("requests", len(admission.futures))
            return
        self.telemetry.record_batch(
            {
                "requests": len(admission.futures),
                "cache_hits": hits,
                "completed": hits,
                "shed": admission.shed,
                "errors": admission.invalid,
                "rejected": rejected,
            },
            {"latency_seconds": [0.0] * hits},
        )

    def _enqueue(self, pending: list[list[_QueuedItem]], timeout: float | None) -> None:
        """Queue every group of ``pending`` under one accept-lock hold.

        Groups are removed from ``pending`` as they are queued, so on
        :class:`queue.Full` it holds exactly what was not.  ``timeout=0``
        never blocks, not even on the accept lock.
        """
        if not pending:
            return
        if not self._accept_lock.acquire(blocking=timeout != 0):
            raise queue.Full
        try:
            self._check_open()
            with self._not_full:
                while pending:
                    # Each slice is counted as it is queued: if a wait times
                    # out mid-list, the queued items stay correctly
                    # accounted and drain()/shutdown() still converge.
                    accepted = self._put(pending[0], timeout)
                    if accepted == len(pending[0]):
                        pending.pop(0)
                    else:
                        pending[0] = pending[0][accepted:]
        finally:
            self._accept_lock.release()

    def submit(self, request: FitRequest, *, timeout: float | None = None) -> Future:
        """Queue one request; returns a future resolving to its result.

        The one-request case of :meth:`submit_many`, and admitted the same
        way: a malformed request (non-finite or mis-shaped measurements, a
        ``sigma`` that is not finite and positive or does not fit ``times``,
        a negative or non-finite ``lam`` or ``deadline_ms``) fails its own
        future with :class:`~repro.utils.validation.InvalidRequest` (a
        ``ValueError``) and is never queued.  Cache hits resolve
        immediately without entering the queue.  A request with a
        ``deadline_ms`` the service cannot meet is shed up front: its future
        fails with :class:`~repro.service.errors.RequestShed` and nothing is
        queued.  When ``max_queue`` requests are already queued the call
        blocks (backpressure) until space frees, or raises plain
        :class:`queue.Full` after ``timeout`` seconds if a timeout is given;
        no future is returned then.  ``timeout=0`` never blocks: if the
        queue is full, or another producer holds the accept lock (a
        ``submit_many`` blocked mid-list), it raises :class:`queue.Full` at
        once and queues nothing — the event-loop submit of the network edge
        relies on this.  Raises :class:`RuntimeError` after :meth:`shutdown`
        and :class:`~repro.service.errors.SchedulerCrashed` after a runner
        crash (for cached and uncached content alike).
        """
        admission = self._admit([request])
        self._enqueue(admission.groups, timeout)
        self._record_intake(admission)
        return admission.futures[0]

    def submit_many(
        self, requests: Iterable[FitRequest], *, timeout: float | None = None
    ) -> list[Future]:
        """Bulk intake: queue many requests with one lock round-trip.

        Semantically ``[submit(r) for r in requests]`` (malformed requests
        fail alone, cache hits resolve immediately, deadline-infeasible
        requests shed, the rest are queued in order within each batch key)
        but the work runs once per batch key: the grid checks, the stacked
        finiteness check, the fingerprint prefix and the cache lookup cover
        a whole key block, the accept lock, the shard lock and telemetry
        are taken once for the whole list and each shard queue receives one
        group per batch key, which matters for bulk producers feeding
        hundreds of requests at a time.

        If a ``timeout`` is given and the queue stays full, the call raises
        :class:`~repro.service.errors.IntakeOverflow` (a
        :class:`queue.Full` subclass) carrying the explicit split: its
        ``accepted`` lists one future per accepted request in input order
        (cache hits and queued requests — all of which are still
        processed), its ``rejected`` lists, in input order, the requests
        that were never queued.  The rejected requests' futures are failed
        with the same overflow error, so nothing silently drops and nothing
        hangs.  As with :meth:`submit`, ``timeout=0`` never blocks.
        """
        requests = list(requests)
        admission = self._admit(requests)
        pending = admission.groups
        try:
            self._enqueue(pending, timeout)
        except queue.Full:
            rejected = {id(item.future) for group in pending for item in group}
            overflow = IntakeOverflow(
                [future for future in admission.futures if id(future) not in rejected],
                [
                    request
                    for request, future in zip(requests, admission.futures)
                    if id(future) in rejected
                ],
            )
            for group in pending:
                for item in group:
                    # Never counted as outstanding, so fail directly (no
                    # _settled bookkeeping) — the future must not hang.
                    item.future.set_exception(overflow)
            self._record_intake(admission, rejected=len(rejected))
            raise overflow from None
        self._record_intake(admission)
        return admission.futures

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

    def _batches(
        self, taken: list[list[_QueuedItem]]
    ) -> list[list[list[_QueuedItem]]]:
        """Merge groups by batch key and dedup; one batch per key block.

        This is the only place batches are formed: whatever queued up while
        the previous solve ran coalesces here, however it arrived.  A batch
        is a list of solve rows and a row holds every request taken with one
        fingerprint, so bit-exact repeats ride with their leader.  Batches
        run highest priority first; the sort is stable, so ties keep arrival
        order.
        """
        merged: dict[tuple, dict[str, list[_QueuedItem]]] = {}
        for group in taken:
            rows = merged.setdefault(group[0].batch_key, {})
            for item in group:
                row = rows.get(item.fingerprint)
                if row is None:
                    rows[item.fingerprint] = [item]
                else:
                    row.append(item)
        batches = [list(rows.values()) for rows in merged.values()]
        if len(batches) > 1:
            batches.sort(
                key=lambda batch: -max(item.request.priority for row in batch for item in row)
            )
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
            except InvalidRequest:
                breaker.release_probe()
                raise
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
                for batch in self._batches(taken):
                    try:
                        self._run_batch(entry, batch)
                    except BaseException as exc:
                        # A runner must never strand its batch: the settled
                        # guard makes double-failing already-resolved items
                        # a no-op.
                        for row in batch:
                            for item in row:
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
                    # (one stacked multi-RHS solve) against the shard's warm
                    # session caches.
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
                    )
                self._observe_solve(time.perf_counter() - start, len(to_solve))
                breaker.record_success()
                return results
            except InvalidRequest:
                # The client's fault (e.g. a time grid past the population
                # cap): it says nothing about the shard's health.
                breaker.release_probe()
                raise
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

    def _run_batch(self, entry, batch: list[list[_QueuedItem]]) -> None:
        # Triage pass: a row an earlier batch has solved since it was queued
        # is a late cache hit and delivers even when stale — delivery is
        # free; every other request is checked against its deadline before
        # any solve time is spent, and the first live request of each row
        # is its solve row.
        now = time.perf_counter()
        if self.cache.max_entries:
            cached = self.cache.get_many([row[0].fingerprint for row in batch])
        else:
            cached = [None] * len(batch)
        ready: list[tuple[list[_QueuedItem], object]] = []
        rows: list[list[_QueuedItem]] = []
        size = hits = missed = 0
        for row, hit in zip(batch, cached):
            size += len(row)
            if hit is not None:
                ready.append((row, hit))
                hits += len(row)
                continue
            live = []
            for item in row:
                if item.deadline_at is not None and now > item.deadline_at:
                    self._miss_deadline(item, now)
                    missed += 1
                else:
                    live.append(item)
            if live:
                rows.append(live)
        results: list = []
        if rows:
            leaders = [row[0] for row in rows]
            breaker = self._breaker_for(entry.key)
            degraded = not breaker.allow()
            if not degraded:
                try:
                    results = self._solve_fast(entry, leaders)
                except Exception as exc:
                    # A failure that tripped the shard (now or earlier)
                    # serves this batch on the degraded path instead of
                    # failing it.
                    degraded = breaker.state == "open"
                    results = [exc] * len(rows)
            if degraded:
                results = self._solve_degraded(entry, leaders)
        solved = []
        for row, result in zip(rows, results):
            if isinstance(result, BaseException):
                for item in row:
                    self._fail(item, result)
            else:
                solved.append((row, result))
        if solved and self.cache.max_entries:
            # A cached result must not pin its shard session's factorization
            # caches past pool eviction; releasing keeps the lazy
            # diagnostics and costs only attribute rebinds.
            self.cache.put_many(
                [(row[0].fingerprint, result.release_backing_caches()) for row, result in solved]
            )
            if self.fault_plan is not None:
                self.fault_plan.on_cache_store(self.cache)
        now = time.perf_counter()
        settled = 0
        latencies = []
        try:
            for row, result in solved + ready:
                for item in row:
                    if not self._settle(item):
                        continue
                    settled += 1
                    try:
                        item.future.set_result(result)
                    except InvalidStateError:  # cancelled by its caller
                        continue
                    latencies.append(now - item.enqueued_at)
        finally:
            # One outstanding-count update for everything settled.
            self._settled(settled)
        self.telemetry.record_batch(
            {
                "batches": 1,
                "batched_requests": size,
                "cache_hits": hits,
                "deduplicated": size - hits - missed - len(rows),
                "completed": len(latencies),
            },
            {"batch_size": [size], "latency_seconds": latencies},
        )

    def _settle(self, item: _QueuedItem) -> bool:
        # Each item is owned by exactly one thread at a time (its producer,
        # then whoever takes it from the shard queue under the shard lock:
        # a runner, the crash sweep or a discarding shutdown), so a plain
        # flag is enough to make resolution idempotent — the crash paths may
        # re-fail a batch defensively.
        if item.settled:
            return False
        item.settled = True
        return True

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

    def _settled(self, count: int = 1) -> None:
        if not count:
            return
        with self._outstanding_cond:
            self._outstanding -= count
            if self._outstanding == 0:
                self._outstanding_cond.notify_all()
