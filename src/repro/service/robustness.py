"""Failure-containment primitives for the fit service runtime.

Three small, independently testable pieces the scheduler composes into its
robust solve path:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic seeded jitter for *transient* failures (injected faults,
  flaky session builds); deterministic errors fail fast.
* :class:`CircuitBreaker` — a per-shard trip switch: after
  ``failure_threshold`` consecutive solve/build failures the fast batched
  path is considered broken and traffic routes to the degraded serial
  reference path until a half-open probe succeeds.
* :class:`AdaptiveWindow` — tunes the scheduler's micro-batching window
  from observed solve latency: when solves are much faster than the
  configured ``max_wait_ms`` the window shrinks (waiting would dominate
  latency); it never grows beyond the configured bound, so the configured
  ``max_wait_ms`` stays a hard latency ceiling.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["AdaptiveWindow", "CircuitBreaker", "RetryPolicy"]


def _default_retryable(exc: BaseException) -> bool:
    # Retry only failures that declare themselves transient (e.g. the fault
    # harness's InjectedFault, or any exception carrying transient=True):
    # re-running a deterministic solver on the same inputs cannot help.
    return bool(getattr(exc, "transient", False))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with deterministic seeded jitter.

    Parameters
    ----------
    max_attempts:
        Total attempts including the first (``3`` means up to two retries).
    base_delay_ms:
        Backoff before the first retry; doubles (``multiplier``) per retry.
    multiplier:
        Exponential backoff factor between consecutive retries.
    jitter:
        Fraction of the delay randomised away (``0.5`` draws the actual
        delay uniformly from ``[0.5, 1.0] * delay``).  The draw is a pure
        function of ``(seed, attempt)``, so retry schedules are reproducible
        run to run — the property the deterministic chaos suite asserts on.
    seed:
        Seed of the jitter stream.
    retryable:
        Predicate deciding whether an exception is worth retrying; defaults
        to "the exception carries ``transient=True``".
    """

    max_attempts: int = 3
    base_delay_ms: float = 1.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0
    retryable: Callable[[BaseException], bool] | None = None

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (0-based) may be retried."""
        if attempt + 1 >= self.max_attempts:
            return False
        predicate = self.retryable if self.retryable is not None else _default_retryable
        return predicate(exc)

    def delay_seconds(self, attempt: int) -> float:
        """Backoff before retrying after the 0-based ``attempt`` failed."""
        delay = (self.base_delay_ms / 1e3) * (self.multiplier ** attempt)
        if self.jitter > 0.0:
            fraction = float(np.random.default_rng([self.seed, attempt]).random())
            delay *= (1.0 - self.jitter) + self.jitter * fraction
        return delay


class CircuitBreaker:
    """Consecutive-failure trip switch with a timed half-open probe.

    States: *closed* (fast path allowed), *open* (fast path refused until
    ``reset_after_s`` elapses), *half-open* (one probe allowed through; its
    outcome closes or re-opens the breaker).  All methods are thread-safe.

    Parameters
    ----------
    failure_threshold:
        Consecutive :meth:`record_failure` calls that trip the breaker.
    reset_after_s:
        Seconds the breaker stays open before allowing a half-open probe.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_after_s: float = 1.0,
        clock: Callable[[], float] | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        """Current state: ``"closed"``, ``"open"`` or ``"half-open"``."""
        with self._lock:
            return self._state

    def allow(self) -> bool:
        """Whether the fast path may run now.

        Open breakers refuse until ``reset_after_s`` has elapsed, then admit
        exactly one half-open probe; concurrent callers during the probe are
        refused until the probe settles.
        """
        with self._lock:
            if self._state == "closed":
                return True
            if self._state == "open" and (
                self._clock() - self._opened_at >= self.reset_after_s
            ):
                self._state = "half-open"
                return True
            return False

    def record_success(self) -> None:
        """A fast-path call succeeded: close the breaker, reset the count."""
        with self._lock:
            self._failures = 0
            self._state = "closed"

    def record_failure(self) -> bool:
        """A fast-path call failed; returns ``True`` when this call trips.

        A failure during the half-open probe re-opens immediately (the probe
        is the threshold).
        """
        with self._lock:
            self._failures += 1
            if self._state == "half-open" or self._failures >= self.failure_threshold:
                tripped = self._state != "open"
                self._state = "open"
                self._opened_at = self._clock()
                if tripped:
                    self.trips += 1
                return tripped
            return False


def _percentile_95(samples) -> float:
    """``np.percentile(samples, 95)`` (linear method), bit for bit.

    Sorting a reservoir of a few dozen floats in pure Python costs a few
    microseconds, an order of magnitude less than the NumPy call's array
    conversion and dispatch.  The interpolation mirrors NumPy's exactly,
    including its switch to interpolating down from the upper neighbour
    once the fractional weight reaches one half.
    """
    ordered = sorted(samples)
    position = (len(ordered) - 1) * 0.95
    lower = int(position)
    if lower >= len(ordered) - 1:
        return ordered[-1]
    weight = position - lower
    below, above = ordered[lower], ordered[lower + 1]
    if weight >= 0.5:
        return above - (above - below) * (1 - weight)
    return below + (above - below) * weight


class AdaptiveWindow:
    """Micro-batching window tuned from observed solve latency.

    The effective window is ``clamp(fraction * p95(solve_seconds), floor,
    base)`` over a bounded reservoir of recent per-batch solve durations:
    when solves take much longer than the configured window, nothing
    changes (coalescing while a solve runs is free); when solves are *fast*
    relative to the configured window, waiting the full window would
    dominate end-to-end latency, so the window shrinks toward the solve
    scale.  The configured ``base`` is a hard ceiling — adaptation never
    makes latency worse than the static configuration.

    Parameters
    ----------
    base_seconds:
        The configured ``max_wait_ms`` bound (the ceiling).
    fraction:
        Target window as a fraction of the observed p95 solve duration.
    floor_seconds:
        Lower clamp (``0`` allows fully greedy dispatch under fast solves).
    max_samples:
        Reservoir bound; older solve durations age out.
    """

    def __init__(
        self,
        base_seconds: float,
        *,
        fraction: float = 0.5,
        floor_seconds: float = 0.0,
        max_samples: int = 64,
    ) -> None:
        self.base_seconds = float(base_seconds)
        self.fraction = float(fraction)
        self.floor_seconds = float(floor_seconds)
        self._samples: deque[float] = deque(maxlen=int(max_samples))
        self._lock = threading.Lock()
        self._current = float(base_seconds)

    def observe(self, solve_seconds: float) -> None:
        """Record one per-batch solve duration and retune the window.

        The p95 is recomputed here (once per batch) so :meth:`current`
        stays a lock-plus-load on the batcher's hot path.
        """
        with self._lock:
            self._samples.append(float(solve_seconds))
            p95 = _percentile_95(self._samples)
            self._current = min(
                self.base_seconds, max(self.floor_seconds, self.fraction * p95)
            )

    def current(self) -> float:
        """The effective window in seconds (``base`` until first observation)."""
        with self._lock:
            return self._current
