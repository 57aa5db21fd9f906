"""Micro-batching fit service runtime on top of the session layer.

The :mod:`repro.service` package turns the library into a serveable
long-lived runtime for concurrent deconvolution traffic:

* :class:`~repro.service.pool.SessionPool` — fit sessions sharded by
  deconvolver configuration, LRU-bounded by entry count / approximate bytes;
* :class:`~repro.service.scheduler.MicroBatchScheduler` — bounded intake
  from many producer threads, idle shards dispatching at once, busy shards
  coalescing what queues up during a solve into stacked multi-RHS solves,
  futures for responses, graceful drain/shutdown;
* :class:`~repro.service.cache.ResultCache` — content-addressed result
  cache answering bit-exact repeats in O(lookup);
* :class:`~repro.service.telemetry.Telemetry` — counters plus latency and
  batch-size histograms with a ``snapshot()`` dict;
* :mod:`~repro.service.errors` — the typed error taxonomy every accepted
  request terminates in (shed, deadline-missed, crashed, overflowed);
* :mod:`~repro.service.robustness` — retry policy and per-shard circuit
  breaker;
* :mod:`~repro.service.faults` — deterministic seeded fault injection
  behind the solve/build/cache boundaries for the chaos scenario suite;
* :mod:`~repro.service.loadgen` — deterministic seeded workload generation
  and chaos scenarios for benchmarks and ``repro serve-bench``;
* :mod:`~repro.service.net` — the asyncio HTTP network edge
  (versioned wire protocol, ops routes, bundled blocking clients) serving
  a scheduler over real sockets (``repro serve``).  Imported lazily — the
  in-process service layer never pays for it.

Responses are bit-identical (to 1e-10) to direct
:meth:`~repro.core.deconvolver.Deconvolver.fit` calls; the service layer
only changes *when* and *together with what* each request is solved.
"""

from repro.service.cache import ResultCache, request_fingerprint
from repro.service.errors import (
    DeadlineExceeded,
    IntakeOverflow,
    RequestShed,
    SchedulerCrashed,
    ServiceError,
)
from repro.service.faults import FaultPlan, FaultSpec, InjectedFault
from repro.service.loadgen import (
    SCENARIOS,
    Scenario,
    WorkloadSpec,
    build_workload,
    max_coefficient_gap,
    serial_reference,
    warm_serial_reference,
)
from repro.service.pool import PoolEntry, SessionFactory, SessionPool
from repro.service.robustness import CircuitBreaker, RetryPolicy
from repro.service.scheduler import DEFAULT_CONFIG_KEY, FitRequest, MicroBatchScheduler
from repro.service.telemetry import Histogram, Telemetry
from repro.utils.validation import InvalidRequest

__all__ = [
    "DEFAULT_CONFIG_KEY",
    "SCENARIOS",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FaultPlan",
    "FaultSpec",
    "FitRequest",
    "Histogram",
    "InjectedFault",
    "IntakeOverflow",
    "InvalidRequest",
    "MicroBatchScheduler",
    "PoolEntry",
    "RequestShed",
    "ResultCache",
    "RetryPolicy",
    "Scenario",
    "SchedulerCrashed",
    "ServiceError",
    "SessionFactory",
    "SessionPool",
    "Telemetry",
    "WorkloadSpec",
    "build_workload",
    "max_coefficient_gap",
    "request_fingerprint",
    "serial_reference",
    "warm_serial_reference",
]
