"""Unit tests for the failure-containment primitives and error taxonomy.

RetryPolicy / CircuitBreaker are tested in isolation here
(deterministically — injected clocks, seeded jitter); their composition into
the scheduler's solve path is covered by ``test_scenarios.py``.
"""

import queue

import pytest

from repro.service import (
    CircuitBreaker,
    DeadlineExceeded,
    InjectedFault,
    IntakeOverflow,
    RequestShed,
    RetryPolicy,
    SchedulerCrashed,
    ServiceError,
)


class TestRetryPolicy:
    def test_retries_only_transient_failures_by_default(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry(InjectedFault("solver"), attempt=0)
        assert policy.should_retry(InjectedFault("solver"), attempt=1)
        # Deterministic failures (wrong shapes, bad inputs) fail fast.
        assert not policy.should_retry(ValueError("wrong shape"), attempt=0)

    def test_attempt_budget_is_total_attempts(self):
        policy = RetryPolicy(max_attempts=3)
        # attempt is 0-based: the third attempt (index 2) is the last one.
        assert not policy.should_retry(InjectedFault("solver"), attempt=2)
        assert not RetryPolicy(max_attempts=1).should_retry(InjectedFault("x"), 0)

    def test_custom_predicate_overrides_transient_flag(self):
        policy = RetryPolicy(retryable=lambda exc: isinstance(exc, ValueError))
        assert policy.should_retry(ValueError(), attempt=0)
        assert not policy.should_retry(InjectedFault("solver"), attempt=0)

    def test_backoff_grows_and_jitter_is_deterministic(self):
        policy = RetryPolicy(base_delay_ms=1.0, multiplier=2.0, jitter=0.5, seed=7)
        first, second = policy.delay_seconds(0), policy.delay_seconds(1)
        # Jitter draws at most halve the delay, so doubling still dominates.
        assert second > first
        # Pure function of (seed, attempt): same schedule run to run.
        assert policy.delay_seconds(0) == first
        assert RetryPolicy(base_delay_ms=1.0, jitter=0.5, seed=7).delay_seconds(0) == first
        # Bounds: delay in [base * (1 - jitter), base] for attempt 0.
        assert 0.5e-3 <= first <= 1.0e-3

    def test_zero_jitter_is_exact_exponential(self):
        policy = RetryPolicy(base_delay_ms=2.0, multiplier=3.0, jitter=0.0)
        assert policy.delay_seconds(0) == pytest.approx(2e-3)
        assert policy.delay_seconds(2) == pytest.approx(18e-3)


class TestCircuitBreaker:
    def make(self, threshold=3, reset=10.0):
        clock = {"now": 0.0}
        breaker = CircuitBreaker(threshold, reset, clock=lambda: clock["now"])
        return breaker, clock

    def test_trips_after_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        assert not breaker.record_failure()
        assert not breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        assert breaker.record_failure()  # third failure trips
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 1

    def test_success_resets_the_consecutive_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert not breaker.record_failure()  # count restarted
        assert breaker.state == "closed"

    def test_half_open_probe_single_admission_and_heal(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock["now"] = 5.0
        assert breaker.allow()  # the single half-open probe
        assert breaker.state == "half-open"
        assert not breaker.allow()  # concurrent callers refused mid-probe
        breaker.record_success()
        assert breaker.state == "closed" and breaker.allow()

    def test_half_open_probe_failure_reopens_immediately(self):
        breaker, clock = self.make(threshold=3, reset=5.0)
        for _ in range(3):
            breaker.record_failure()
        clock["now"] = 5.0
        assert breaker.allow()
        assert breaker.record_failure()  # one probe failure re-trips
        assert breaker.state == "open" and not breaker.allow()
        assert breaker.trips == 2

    def test_released_probe_reopens_without_a_trip(self):
        breaker, clock = self.make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock["now"] = 5.0
        assert breaker.allow()
        breaker.release_probe()  # a client fault: the probe showed nothing
        assert breaker.state == "open" and breaker.trips == 1
        assert breaker.allow()  # the next call probes again at once
        breaker.record_success()
        assert breaker.state == "closed"

    def test_release_probe_leaves_a_closed_breaker_alone(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.release_probe()
        assert breaker.state == "closed"
        assert breaker.record_failure()  # the earlier failure still counts

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(0)


class TestErrorTaxonomy:
    def test_every_error_derives_from_service_error(self):
        for exc in (
            RequestShed(5.0, 1.0),
            DeadlineExceeded(7.0, 2.0),
            SchedulerCrashed("down"),
            IntakeOverflow([], []),
            InjectedFault("solver"),
        ):
            assert isinstance(exc, ServiceError)
            assert isinstance(exc, RuntimeError)

    def test_intake_overflow_is_a_queue_full_for_legacy_callers(self):
        overflow = IntakeOverflow(["f1"], ["r2", "r3"])
        assert isinstance(overflow, queue.Full)
        assert overflow.accepted == ["f1"]
        assert overflow.rejected == ["r2", "r3"]

    def test_structured_attributes(self):
        shed = RequestShed(12.5, 10.0)
        assert shed.projected_wait_ms == 12.5 and shed.deadline_ms == 10.0
        missed = DeadlineExceeded(30.0, 20.0)
        assert missed.waited_ms == 30.0 and missed.deadline_ms == 20.0
        assert not ServiceError.transient and InjectedFault("x").transient
