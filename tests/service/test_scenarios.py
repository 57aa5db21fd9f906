"""Chaos-facing tests: fault injection, scenarios, and SLO scheduling.

This file covers the composition the unit tests in ``test_robustness.py``
leave out: the scheduler's admission control (shedding), deadline drops,
retry of transient faults, circuit-breaker fallback to the degraded serial
path (bit-exact), session-build containment, the runner-crash supervisor,
the ``submit_many`` overflow split, the shutdown/submit race, and the
deterministic workload scenarios that drive all of it in
``repro serve-bench --scenario``.
"""

import concurrent.futures
import dataclasses
import queue
import threading
import time

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.service import (
    DeadlineExceeded,
    FaultPlan,
    FaultSpec,
    FitRequest,
    InjectedFault,
    IntakeOverflow,
    MicroBatchScheduler,
    RequestShed,
    ResultCache,
    RetryPolicy,
    SchedulerCrashed,
    SessionPool,
    WorkloadSpec,
    build_workload,
    max_coefficient_gap,
    serial_reference,
)
from repro.service.loadgen import (
    SCENARIOS,
    SLOTarget,
    apply_scenario,
    arrival_offsets,
    evaluate_slo,
)


@pytest.fixture(scope="module")
def kernels(paper_parameters, small_kernel):
    from repro.cellcycle.kernel import KernelBuilder

    builder = KernelBuilder(paper_parameters, num_cells=1200, phase_bins=30)
    second = builder.build(np.linspace(0.0, 120.0, 9), rng=5)
    return [small_kernel, second]


@pytest.fixture()
def factory(paper_parameters, kernels):
    def build(_key):
        deconvolver = Deconvolver(parameters=paper_parameters, num_basis=8)
        session = deconvolver.session()
        for kernel in kernels:
            session.register_kernel(kernel)
        return deconvolver

    return build


@pytest.fixture()
def workload(kernels):
    return build_workload(
        kernels,
        WorkloadSpec(num_requests=24, repeat_ratio=0.25, selection_fraction=0.15, seed=11),
    )


def _scaled(request, factor):
    """A copy of ``request`` with its measurements scaled: same batch key, new content."""
    return dataclasses.replace(request, measurements=request.measurements * factor)


class _ScriptedPlan:
    """Duck-typed fault plan raising a scripted number of solver faults."""

    def __init__(self, failures: int, sleep_first_ms: float = 0.0):
        self.failures = failures
        self.sleep_first_ms = sleep_first_ms
        self.calls = 0
        self._lock = threading.Lock()

    def before_solve(self, shard, batch_size):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == 1 and self.sleep_first_ms:
            time.sleep(self.sleep_first_ms / 1e3)
        if call <= self.failures:
            raise InjectedFault("solver")

    def on_cache_store(self, cache):
        pass


class TestFaultPlan:
    def test_decision_stream_is_deterministic(self):
        spec = FaultSpec(solver_error_rate=0.5, slow_solve_rate=0.3, seed=9)
        plans = [FaultPlan(spec, record=True) for _ in range(2)]
        for plan in plans:
            for index in range(50):
                try:
                    plan.before_solve(f"shard-{index % 3}", 4)
                except InjectedFault:
                    pass
        assert plans[0].history == plans[1].history
        assert plans[0].injected == plans[1].injected
        assert plans[0].injected["solver"] > 0

    def test_zero_rate_plan_is_a_pure_observer(self):
        plan = FaultPlan(FaultSpec(), record=True)
        for _ in range(20):
            plan.before_solve("shard", 1)  # never raises, never sleeps
        assert plan.injected == {
            "solver": 0, "slow_solve": 0, "session_build": 0, "cache_eviction": 0,
        }
        assert len(plan.history) == 40  # slow_solve + solver draw per call

    def test_wrap_factory_arms_session_build_failures(self):
        plan = FaultPlan(FaultSpec(session_build_error_rate=1.0))
        wrapped = plan.wrap_factory(lambda key: "built")
        with pytest.raises(InjectedFault):
            wrapped("config")
        assert plan.injected["session_build"] == 1

    def test_cache_eviction_hook_is_seeded(self):
        def filled():
            cache = ResultCache(16)
            for index in range(8):
                cache.put(f"key-{index}", index)
            return cache

        evicted = []
        for _ in range(2):
            cache = filled()
            FaultPlan(FaultSpec(cache_eviction_rate=1.0, cache_eviction_count=3, seed=3)
                      ).on_cache_store(cache)
            evicted.append(sorted(cache._entries))
        assert evicted[0] == evicted[1]
        assert len(evicted[0]) == 5


class TestScenarios:
    def test_apply_scenario_keeps_repeats_bit_exact(self, workload):
        scenario = SCENARIOS["hotkey"]
        stamped = apply_scenario(workload, scenario, seed=11)
        fingerprints = {}
        for before, after in zip(workload, stamped):
            # identical content before stamping -> identical content after
            key = before.fingerprint()
            if key in fingerprints:
                assert after.fingerprint() == fingerprints[key]
            else:
                fingerprints[key] = after.fingerprint()
        # The base workload is untouched (new request objects).
        assert all(r.priority == 0 and r.deadline_ms is None for r in workload)

    def test_apply_scenario_is_deterministic(self, workload):
        scenario = SCENARIOS["heavy_tail"]
        one = apply_scenario(workload, scenario, seed=3)
        two = apply_scenario(workload, scenario, seed=3)
        assert [r.fingerprint() for r in one] == [r.fingerprint() for r in two]
        assert [r.priority for r in one] == [r.priority for r in two]
        assert [r.deadline_ms for r in one] == [r.deadline_ms for r in two]
        heavy = [r for r in one if r.lambda_grid is not None]
        assert heavy and all(r.lam is None for r in heavy)

    def test_hotkey_scenario_skews_traffic(self, workload):
        stamped = apply_scenario(workload, SCENARIOS["hotkey"], seed=0)
        configs = [r.config for r in stamped]
        assert set(configs) <= {f"shard-{i}" for i in range(4)}
        assert configs.count("shard-0") > len(configs) / 2

    def test_arrival_offsets(self):
        steady = arrival_offsets(SCENARIOS["steady"], 10, seed=0)
        assert np.all(steady == 0.0)
        bursty = arrival_offsets(SCENARIOS["bursty"], 64, seed=0)
        assert np.all(np.diff(bursty) >= 0.0)
        assert bursty[-1] > 0.0  # at least one inter-burst pause happened
        again = arrival_offsets(SCENARIOS["bursty"], 64, seed=0)
        assert np.array_equal(bursty, again)

    def test_evaluate_slo_pass_and_fail(self):
        snapshot = {
            "counters": {"requests": 10, "errors": 1},
            "histograms": {"latency_seconds": {"p95": 0.05}},
            "shed_rate": 0.2,
            "deadline_miss_rate": 0.0,
        }
        strict = evaluate_slo(snapshot, SLOTarget(p95_latency_ms=10.0))
        assert not strict["passed"]
        assert not strict["checks"]["p95_latency_ms"][2]
        loose = evaluate_slo(
            snapshot,
            SLOTarget(p95_latency_ms=100.0, max_shed_rate=0.5, max_error_rate=0.2),
        )
        assert loose["passed"]


class TestSLOScheduling:
    def test_infeasible_deadline_is_shed_at_admission(
        self, factory, workload, hold_shard
    ):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool)
        request = workload[0]
        try:
            # One solve seeds the per-request cost model; a stalled shard
            # then keeps a request outstanding, so the projected wait
            # (cost x outstanding) is well above zero.
            scheduler.submit(_scaled(request, 1.3)).result(timeout=30)
            release = hold_shard(scheduler)
            try:
                parked = scheduler.submit(_scaled(request, 1.2))
                shed = scheduler.submit(
                    FitRequest(
                        times=request.times.copy(),
                        measurements=request.measurements.copy(),
                        lam=request.lam,
                        deadline_ms=0.01,  # far below one solve per outstanding request
                    )
                )
                assert shed.done()
                with pytest.raises(RequestShed) as info:
                    shed.result()
                assert info.value.projected_wait_ms > info.value.deadline_ms
                assert scheduler.telemetry.counter("shed") == 1
            finally:
                release()
            assert parked.result(timeout=30) is not None
            # No deadline -> never shed, same cost model.
            assert scheduler.submit(request).result(timeout=30) is not None
        finally:
            scheduler.shutdown()

    def test_stale_queued_request_misses_deadline_instead_of_solving(
        self, factory, workload, hold_shard
    ):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool)
        try:
            request = workload[0]
            with_deadline = FitRequest(
                times=request.times.copy(),
                measurements=request.measurements.copy(),
                lam=request.lam,
                deadline_ms=30.0,
            )
            # Stall the runner deterministically inside a solve it has
            # taken, then let the request queued behind it age out.
            release = hold_shard(scheduler)
            try:
                blocker = scheduler.submit(_scaled(request, 1.2))
                deadline = time.perf_counter() + 5.0
                while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                    time.sleep(0.001)
                future = scheduler.submit(with_deadline)
                time.sleep(0.08)
            finally:
                release()
            with pytest.raises(DeadlineExceeded) as info:
                future.result(timeout=10)
            assert info.value.waited_ms >= 30.0
            assert scheduler.telemetry.counter("deadline_missed") == 1
            assert blocker.result(timeout=10) is not None
        finally:
            scheduler.shutdown()

    def test_priority_orders_batches_within_a_shard_drain(self, factory, kernels):
        plan = _ScriptedPlan(failures=0, sleep_first_ms=120.0)
        pool = SessionPool(factory)
        order = []
        with MicroBatchScheduler(
            pool, workers=1, fault_plan=plan
        ) as scheduler:
            from repro.data.synthetic import single_pulse_profile

            blocker_values = kernels[0].apply_function(single_pulse_profile())
            blocker = scheduler.submit(
                FitRequest(
                    times=np.asarray(kernels[0].times, float).copy(),
                    measurements=blocker_values,
                    lam=1e-3,
                )
            )
            time.sleep(0.02)  # the runner is now asleep inside its solve
            low = FitRequest(
                times=np.asarray(kernels[1].times, float).copy(),
                measurements=kernels[1].apply_function(single_pulse_profile()),
                lam=1e-3,
                priority=0,
            )
            high = FitRequest(
                times=np.asarray(kernels[0].times, float).copy(),
                measurements=blocker_values * 1.1,
                lam=1e-2,
                lambda_method="kfold",  # distinct bucket from the blocker
                priority=5,
            )
            low_future = scheduler.submit(low)
            high_future = scheduler.submit(high)
            low_future.add_done_callback(lambda _f: order.append("low"))
            high_future.add_done_callback(lambda _f: order.append("high"))
            blocker.result(timeout=30)
            low_future.result(timeout=30)
            high_future.result(timeout=30)
        assert order == ["high", "low"]


class TestFailureContainment:
    def test_transient_faults_are_retried_to_success(self, factory, workload):
        plan = _ScriptedPlan(failures=2)
        pool = SessionPool(factory)
        with MicroBatchScheduler(
            pool,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=3, base_delay_ms=0.1),
        ) as scheduler:
            result = scheduler.submit(workload[0]).result(timeout=30)
            assert scheduler.telemetry.counter("retries") == 2
            assert scheduler.telemetry.counter("errors") == 0
        reference = serial_reference(factory("reference"), [workload[0]])[0]
        assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10

    def test_exhausted_retries_fail_with_the_injected_fault(self, factory, workload):
        plan = _ScriptedPlan(failures=100)
        pool = SessionPool(factory)
        with MicroBatchScheduler(
            pool,
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.1),
            breaker_threshold=50,  # keep the breaker out of this test
        ) as scheduler:
            future = scheduler.submit(workload[0])
            with pytest.raises(InjectedFault):
                future.result(timeout=30)
            assert scheduler.telemetry.counter("retries") == 1
            assert scheduler.telemetry.counter("errors") == 1

    def test_tripped_breaker_routes_to_bit_exact_degraded_path(
        self, factory, workload
    ):
        plan = _ScriptedPlan(failures=100)  # the batched engine never recovers
        pool = SessionPool(factory)
        with MicroBatchScheduler(
            pool,
            cache=ResultCache(0),  # force every request through a solve path
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=1),
            breaker_threshold=1,
            breaker_reset_s=3600.0,
        ) as scheduler:
            results = [scheduler.submit(r).result(timeout=30) for r in workload[:4]]
            assert scheduler.telemetry.counter("breaker_trips") == 1
            assert scheduler.telemetry.counter("degraded_requests") == 4
            assert scheduler.telemetry.counter("errors") == 0
        references = serial_reference(factory("reference"), workload[:4])
        assert max_coefficient_gap(results, references) <= 1e-10

    def test_session_build_failures_fail_futures_not_the_service(
        self, factory, workload
    ):
        calls = {"n": 0}

        def flaky_factory(key):
            calls["n"] += 1
            if calls["n"] == 1:
                raise InjectedFault("session_build")
            return factory(key)

        pool = SessionPool(flaky_factory)
        with MicroBatchScheduler(
            pool, retry=RetryPolicy(max_attempts=3, base_delay_ms=0.1)
        ) as scheduler:
            # First build fails transiently, the retry succeeds.
            result = scheduler.submit(workload[0]).result(timeout=30)
            assert result is not None
            assert scheduler.telemetry.counter("retries") == 1
        assert pool.build_failures == 1

    def test_persistent_build_failure_terminates_every_future(self, workload):
        def broken_factory(key):
            raise ValueError("no such configuration")

        pool = SessionPool(broken_factory)
        with MicroBatchScheduler(pool) as scheduler:
            futures = [scheduler.submit(r) for r in workload[:3]]
            for future in futures:
                with pytest.raises(ValueError):
                    future.result(timeout=30)
            assert scheduler.telemetry.counter("errors") == 3


def _crash_batching(taken):
    raise RuntimeError("boom")


def _wait_until_taken(scheduler):
    """Wait for the runner to take everything queued (it then stalls in its solve)."""
    deadline = time.perf_counter() + 5.0
    while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
        time.sleep(0.001)


class TestSupervisor:
    def test_runner_crash_fails_queued_and_poisons_submit(
        self, factory, workload, hold_shard
    ):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool)
        # A stalled shard keeps everything queued when the runner loop dies.
        release = hold_shard(scheduler)
        try:
            blocker = scheduler.submit(workload[2])
            _wait_until_taken(scheduler)
            pending = scheduler.submit(workload[0])
            # Poison the runner loop: forming batches from what it takes
            # raises outside any batch.
            scheduler._batches = _crash_batching
            victim = scheduler.submit(workload[1])
        finally:
            release()
        try:
            with pytest.raises(SchedulerCrashed):
                victim.result(timeout=30)
            # The request accepted *before* the poisoning is failed too, not
            # stranded — the hang-forever bug this supervisor exists to kill.
            with pytest.raises(SchedulerCrashed):
                pending.result(timeout=30)
            # The batch the runner had already formed still completes.
            assert blocker.result(timeout=30) is not None
            deadline = time.perf_counter() + 10.0
            while scheduler._crashed is None and time.perf_counter() < deadline:
                time.sleep(0.005)
            # Later submits fail immediately with the typed error.
            with pytest.raises(SchedulerCrashed):
                scheduler.submit(workload[0])
            with pytest.raises(SchedulerCrashed):
                scheduler.submit_many([workload[2]])
            assert scheduler.telemetry.counter("scheduler_crashes") == 1
            assert scheduler.stats()["crashed"]
        finally:
            del scheduler._batches
            scheduler.shutdown()  # must not hang after the crash

    def test_crash_releases_a_bulk_producer_blocked_mid_list(
        self, factory, workload, hold_shard
    ):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_queue=2)
        bulk = [_scaled(workload[1], 1.0 + 0.1 * k) for k in range(8)]
        futures = []
        release = hold_shard(scheduler)  # stalls the runner in its first solve
        try:
            scheduler.submit(workload[0])
            _wait_until_taken(scheduler)
            producer = threading.Thread(
                target=lambda: futures.extend(scheduler.submit_many(bulk))
            )
            producer.start()  # two requests fit, then it blocks for room
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() < 2 and time.perf_counter() < deadline:
                time.sleep(0.001)
            scheduler._batches = _crash_batching  # the runner's next take crashes its loop
        finally:
            release()
        # Failing the two queued requests must not just let the producer
        # refill the queue and block again while it holds the accept lock.
        producer.join(timeout=10.0)
        assert not producer.is_alive()
        assert len(futures) == len(bulk)
        for future in futures:
            with pytest.raises(SchedulerCrashed):
                future.result(timeout=10)
        del scheduler._batches
        scheduler.shutdown()

    def test_submit_many_overflow_reports_the_split(self, factory, workload, hold_shard):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_queue=1)
        release = hold_shard(scheduler)
        try:
            first = scheduler.submit(workload[0])
            _wait_until_taken(scheduler)  # the runner stalls inside its solve
            with pytest.raises(IntakeOverflow) as info:
                scheduler.submit_many(workload[1:4], timeout=0.05)
            overflow = info.value
            # One request fit in the queue slot; two never entered.
            assert len(overflow.accepted) == 1
            assert [r.fingerprint() for r in overflow.rejected] == [
                r.fingerprint() for r in workload[2:4]
            ]
        finally:
            release()
        scheduler.shutdown(drain=True)
        assert first.result(timeout=30) is not None
        for future in overflow.accepted:
            assert future.result(timeout=30) is not None
        assert scheduler.telemetry.counter("rejected") == 2

    def test_shutdown_submit_race_leaks_nothing(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, workers=2)
        futures = []
        futures_lock = threading.Lock()
        stop = threading.Event()

        def produce(offset):
            index = offset
            while not stop.is_set():
                try:
                    future = scheduler.submit(workload[index % len(workload)])
                except (RuntimeError, queue.Full):
                    return  # the scheduler closed underneath us: expected
                with futures_lock:
                    futures.append(future)
                index += 4

        threads = [
            threading.Thread(target=produce, args=(offset,)) for offset in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.05)  # let the race build up real traffic
        scheduler.shutdown(drain=True, timeout=60.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
        with futures_lock:
            raced = list(futures)
        assert raced  # the race actually submitted something
        done, not_done = concurrent.futures.wait(raced, timeout=60.0)
        assert not not_done  # zero leaked futures, zero deadlocks
        for future in done:
            assert future.result(timeout=0) is not None
