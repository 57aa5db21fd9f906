"""Counters and latency/batch-size histograms for the fit service runtime.

The service layer (pool, scheduler, cache) records everything observable
about a running fit service into one :class:`Telemetry` object: monotonically
increasing counters (requests, batches, cache hits, errors) and value
histograms (request latency, batch size).  :meth:`Telemetry.snapshot`
collapses all of it into a plain ``dict`` of numbers — percentiles, means,
throughput, coalescing factor — suitable for printing, logging or asserting
on in tests.  All methods are thread-safe; producers and the shard runners
write concurrently.
"""

from __future__ import annotations

import operator
import threading
import time
from collections import defaultdict
from functools import reduce

import numpy as np

__all__ = ["Histogram", "Telemetry"]

#: Histograms keep at most this many observations; past the cap a cheap
#: deterministic decimation (drop every other stored value) keeps memory
#: bounded while preserving the distribution shape for percentile queries.
MAX_OBSERVATIONS = 100_000


class Histogram:
    """Bounded reservoir of scalar observations with percentile queries.

    Observations are stored verbatim until :data:`MAX_OBSERVATIONS` is
    reached, after which the stored half is decimated deterministically (no
    randomness, so snapshots are reproducible).  ``count`` and ``total``
    always reflect *every* observation, decimated or not.
    """

    def __init__(self) -> None:
        self._values: list[float] = []
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self._values.append(value)
        if len(self._values) > MAX_OBSERVATIONS:
            del self._values[::2]

    def observe_many(self, values) -> None:
        """Record every value of ``values`` in order, as repeated :meth:`observe`.

        The stored values, ``count`` and ``total`` come out bit-identical:
        ``total`` is a left fold (not ``sum``, which compensates rounding on
        newer Pythons), and the values are appended in slices that end where
        :meth:`observe` would decimate.
        """
        values = list(map(float, values))
        self.count += len(values)
        self.total = reduce(operator.add, values, self.total)
        stored = self._values
        start = 0
        while start < len(values):
            # Up to and including the value on which observe() decimates.
            end = start + MAX_OBSERVATIONS + 1 - len(stored)
            stored.extend(values[start:end])
            start = end
            if len(stored) > MAX_OBSERVATIONS:
                del stored[::2]

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) of the stored observations."""
        if not self._values:
            return 0.0
        return float(np.percentile(self._values, q))

    def summary(self) -> dict:
        """Count, mean, p50/p95/p99 and max of the observations."""
        if not self._values:
            return {"count": self.count, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0}
        p50, p95, p99 = (float(v) for v in np.percentile(self._values, [50.0, 95.0, 99.0]))
        return {
            "count": self.count,
            "mean": self.total / max(1, self.count),
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "max": float(max(self._values)),
        }


class Telemetry:
    """Thread-safe metrics hub for one fit service.

    Counters and histograms are created on first use, so the scheduler, pool
    and cache can record under their own metric names without registration.
    The conventional names the service layer uses:

    * counters — ``requests`` (accepted), ``completed`` (futures resolved
      with a result), ``cache_hits``, ``deduplicated`` (bit-exact repeats
      sharing one solve row inside a batch), ``batches`` (dispatched),
      ``batched_requests`` (requests routed through batches), ``errors``,
      ``cancelled``;
    * SLO / robustness counters — ``shed`` (early-rejected at admission),
      ``deadline_missed`` (dropped stale before solving), ``retries``
      (transient solve failures retried), ``breaker_trips`` (circuit
      breakers opening), ``degraded_requests`` (served by the degraded
      serial path), ``scheduler_crashes``;
    * histograms — ``latency_seconds`` (submit to result, cache hits
      included), ``batch_size``, ``solve_seconds`` (per-batch solve
      duration);
    * network-edge counters/gauges — per-route counters
      (``net_route_<name>``), ``net_http_requests`` / ``net_http_errors`` /
      ``net_errors``, and the point-in-time gauge ``net_connections``
      written by :class:`repro.service.net.FitServer`.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: defaultdict[str, int] = defaultdict(int)
        self._histograms: dict[str, Histogram] = {}
        self._gauges: dict[str, float] = {}
        self._started_at: float | None = None
        self._last_event_at: float | None = None

    def _touch(self) -> None:
        now = time.perf_counter()
        if self._started_at is None:
            self._started_at = now
        self._last_event_at = now

    def increment(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] += int(amount)
            self._touch()

    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into the histogram ``name`` (creating it empty)."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)
            self._touch()

    def set_gauge(self, name: str, value: float) -> None:
        """Set the point-in-time gauge ``name`` to ``value``.

        Gauges model *current* levels (open connections) rather than
        monotonically growing counts; the network edge writes them and
        :meth:`snapshot` reports the latest values.
        """
        with self._lock:
            self._gauges[name] = float(value)

    def adjust_gauge(self, name: str, delta: float) -> float:
        """Add ``delta`` to the gauge ``name`` (creating it at zero).

        Returns the new value; connection open/close paths use the
        increment/decrement form so concurrent writers stay consistent.
        """
        with self._lock:
            value = self._gauges.get(name, 0.0) + float(delta)
            self._gauges[name] = value
            return value

    def gauge(self, name: str) -> float:
        """Current value of the gauge ``name`` (zero if never written)."""
        with self._lock:
            return self._gauges.get(name, 0.0)

    def record_batch(self, counters: dict, observations: dict) -> None:
        """Apply many counter increments and observations in one locked pass.

        The scheduler's hot path records per-batch metrics (a handful of
        counters plus one latency per request) through this single
        lock round-trip instead of one :meth:`increment`/:meth:`observe`
        call per request.

        Parameters
        ----------
        counters:
            Counter name to increment amount.
        observations:
            Histogram name to a sequence of values to record.
        """
        with self._lock:
            for name, amount in counters.items():
                self._counters[name] += int(amount)
            for name, values in observations.items():
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = self._histograms[name] = Histogram()
                histogram.observe_many(values)
            self._touch()

    def reset(self) -> None:
        """Drop every counter, histogram and the event-span clock.

        Benchmarks call this between a warm-up pass and the timed pass so
        snapshots describe only the measured window.
        """
        with self._lock:
            self._counters.clear()
            self._histograms.clear()
            self._gauges.clear()
            self._started_at = None
            self._last_event_at = None

    def counter(self, name: str) -> int:
        """Current value of the counter ``name`` (zero if never written)."""
        with self._lock:
            return self._counters.get(name, 0)

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock span between the first and the latest recorded event."""
        with self._lock:
            if self._started_at is None or self._last_event_at is None:
                return 0.0
            return self._last_event_at - self._started_at

    def snapshot(self) -> dict:
        """One plain-``dict`` view of every metric.

        Returns
        -------
        dict
            ``counters`` (name to int), ``histograms`` (name to
            :meth:`Histogram.summary`), ``gauges`` (name to the latest
            point-in-time value), ``elapsed_seconds``,
            ``throughput_rps`` (completed requests over the event span),
            ``coalescing_factor`` (batched requests per dispatched batch;
            1.0 when nothing was batched yet), and the SLO rates
            ``shed_rate`` / ``deadline_miss_rate`` (shed and
            deadline-missed requests over accepted requests; 0.0 before any
            request).
        """
        with self._lock:
            counters = dict(self._counters)
            histograms = {name: h.summary() for name, h in self._histograms.items()}
            gauges = dict(self._gauges)
            if self._started_at is None or self._last_event_at is None:
                elapsed = 0.0
            else:
                elapsed = self._last_event_at - self._started_at
        batches = counters.get("batches", 0)
        batched = counters.get("batched_requests", 0)
        completed = counters.get("completed", 0)
        requests = counters.get("requests", 0)
        return {
            "counters": counters,
            "histograms": histograms,
            "gauges": gauges,
            "elapsed_seconds": elapsed,
            "throughput_rps": (completed / elapsed) if elapsed > 0 else 0.0,
            "coalescing_factor": (batched / batches) if batches > 0 else 1.0,
            "shed_rate": (counters.get("shed", 0) / requests) if requests else 0.0,
            "deadline_miss_rate": (
                counters.get("deadline_missed", 0) / requests if requests else 0.0
            ),
        }
