"""Typed error taxonomy of the fit service runtime.

Every request accepted by the service terminates in exactly one of four
ways: a result, a :class:`RequestShed` (admission control refused to queue
work it could not finish inside the deadline budget), a
:class:`DeadlineExceeded` (the request aged out before its solve started),
or a crash/overflow error naming what failed.  Callers can branch on the
classes — all of them derive from :class:`ServiceError` — instead of
pattern-matching message strings, and no code path is allowed to leave a
future unresolved (the hang-forever bug class this hierarchy was introduced
to kill).
"""

from __future__ import annotations

import queue

__all__ = [
    "DeadlineExceeded",
    "IntakeOverflow",
    "RequestShed",
    "SchedulerCrashed",
    "ServiceError",
]


class ServiceError(RuntimeError):
    """Base class of every typed service-runtime error.

    Attributes
    ----------
    transient:
        ``True`` when retrying the same work may succeed (the
        :class:`~repro.service.robustness.RetryPolicy` default predicate
        keys on this flag).  Class-level default is ``False``.
    """

    transient = False


class RequestShed(ServiceError):
    """Admission control rejected the request before it entered the queue.

    Raised (as a future's exception) when the projected queue wait already
    exceeds the request's ``deadline_ms`` budget: solving it would only
    produce a stale answer while delaying everyone behind it.  Shed requests
    never consume solver time.

    Parameters
    ----------
    projected_wait_ms:
        The scheduler's queue-wait projection at submit time.
    deadline_ms:
        The request's deadline budget.
    """

    def __init__(self, projected_wait_ms: float, deadline_ms: float) -> None:
        super().__init__(
            f"shed at admission: projected queue wait {projected_wait_ms:.2f} ms "
            f"exceeds the {deadline_ms:.2f} ms deadline budget"
        )
        self.projected_wait_ms = float(projected_wait_ms)
        self.deadline_ms = float(deadline_ms)


class DeadlineExceeded(ServiceError):
    """The request aged past its deadline before its solve started.

    Raised (as a future's exception) by the solve path when a queued
    request's deadline has already lapsed by the time its batch reaches the
    solver — the stale work is dropped instead of computed.

    Parameters
    ----------
    waited_ms:
        How long the request sat in the service before being dropped.
    deadline_ms:
        The request's deadline budget.
    """

    def __init__(self, waited_ms: float, deadline_ms: float) -> None:
        super().__init__(
            f"deadline exceeded: waited {waited_ms:.2f} ms "
            f"against a {deadline_ms:.2f} ms budget"
        )
        self.waited_ms = float(waited_ms)
        self.deadline_ms = float(deadline_ms)


class SchedulerCrashed(ServiceError):
    """A shard runner died; the service is permanently down.

    Every queued future on every shard is failed with this error when a
    shard runner's loop crashes outside a batch, and every later
    :meth:`submit` raises it
    immediately — nothing hangs waiting on a thread that no longer exists.
    The original exception rides along as ``__cause__``.
    """


class IntakeOverflow(ServiceError, queue.Full):
    """``submit_many`` hit the intake bound before enqueueing every request.

    Subclasses :class:`queue.Full` so existing ``except queue.Full`` callers
    keep working, but carries the explicit accepted/rejected split the plain
    exception silently dropped: ``accepted`` holds one future per request in
    input order up to (and including) every cache hit and enqueued request,
    ``rejected`` holds the requests that never entered the queue (their
    futures are failed with this same error, so nothing hangs).

    Parameters
    ----------
    accepted:
        Futures of the requests that were accepted, in input order.
    rejected:
        The requests that were not enqueued before the timeout.
    """

    def __init__(self, accepted: list, rejected: list) -> None:
        super().__init__(
            f"intake queue full: accepted {len(accepted)} request(s), "
            f"rejected {len(rejected)}"
        )
        self.accepted = accepted
        self.rejected = rejected
