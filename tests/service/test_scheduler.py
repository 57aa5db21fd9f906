"""Tests for the micro-batching scheduler: equivalence, caching, lifecycle.

The load-bearing guarantee is that the service layer changes *when* and
*with what company* each request is solved, never the numbers: every
response must match a direct one-shot ``Deconvolver.fit`` to 1e-10 — under
concurrent producers, coalescing, dedup, cache hits and drain.
"""

import concurrent.futures
import dataclasses
import queue
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.deconvolver import Deconvolver
from repro.core.lambda_selection import LAMBDA_METHODS
from repro.data.synthetic import single_pulse_profile
from repro.service import (
    FaultPlan,
    FitRequest,
    IntakeOverflow,
    InvalidRequest,
    MicroBatchScheduler,
    ResultCache,
    RetryPolicy,
    SessionPool,
    WorkloadSpec,
    build_workload,
    max_coefficient_gap,
    serial_reference,
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


class TestEquivalence:
    def test_concurrent_producers_match_serial_fit(self, factory, workload):
        pool = SessionPool(factory)
        futures = [None] * len(workload)
        with MicroBatchScheduler(pool, workers=2) as scheduler:

            def produce(offset):
                for index in range(offset, len(workload), 4):
                    futures[index] = scheduler.submit(workload[index])

            threads = [threading.Thread(target=produce, args=(offset,)) for offset in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result() for future in futures]
            snapshot = scheduler.telemetry.snapshot()
        references = serial_reference(factory("reference"), workload)
        assert max_coefficient_gap(results, references) <= 1e-10
        # Selections must agree exactly, not just approximately.
        assert [r.lam for r in results] == [r.lam for r in references]
        assert snapshot["counters"]["completed"] == len(workload)

    def test_map_preserves_input_order_and_coalesces(self, factory, workload):
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool) as scheduler:
            results = scheduler.map(workload)
            snapshot = scheduler.telemetry.snapshot()
        references = serial_reference(factory("reference"), workload)
        for result, reference in zip(results, references):
            assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10
        assert snapshot["counters"]["batches"] < len(workload)
        assert snapshot["coalescing_factor"] > 1.0

    def test_mixed_lambda_requests_share_one_batch(self, factory, kernels):
        values = kernels[0].apply_function(single_pulse_profile())
        requests = [
            FitRequest(times=kernels[0].times.copy(), measurements=values * scale, lam=lam)
            for scale, lam in ((1.0, 1e-3), (1.1, 1e-2), (1.2, 1e-3))
        ]
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool) as scheduler:
            results = scheduler.map(requests)
            snapshot = scheduler.telemetry.snapshot()
        # One (grid, sigma) bucket despite two lambda values.
        assert snapshot["counters"]["batches"] == 1
        reference = factory("reference")
        for request, result in zip(requests, results):
            expected = reference.fit(request.times, request.measurements, lam=request.lam)
            assert np.max(np.abs(result.coefficients - expected.coefficients)) <= 1e-10
            assert result.lam == expected.lam


def _malformed(request, kind):
    """A copy of ``request`` broken in one way the admission check rejects."""
    measurements = request.measurements.copy()
    lam = request.lam
    deadline_ms = request.deadline_ms
    sigma = request.sigma
    if kind == "nan":
        measurements[1] = np.nan
    elif kind == "short":
        measurements = measurements[:-1]
    elif kind == "negative_deadline":
        deadline_ms = -5.0
    elif kind == "infinite_deadline":
        deadline_ms = float("inf")
    elif kind == "short_sigma":
        sigma = np.full(3, 0.1)
    elif kind == "nan_sigma":
        sigma = np.full(request.times.size, 0.1)
        sigma[0] = np.nan
    elif kind == "negative_sigma":
        sigma = np.full(request.times.size, -0.1)
    else:
        lam = -1e-3
    # Every other field is kept, so the bad request coalesces with its
    # neighbours' batch key whenever its shape and sigma allow.
    return dataclasses.replace(
        request, measurements=measurements, lam=lam, deadline_ms=deadline_ms, sigma=sigma
    )


def _same_key_group(request, count):
    """``count`` distinct requests sharing ``request``'s batch key."""
    group = [
        dataclasses.replace(request, measurements=request.measurements * (1.0 + 0.1 * k))
        for k in range(count)
    ]
    assert len({member.batch_key() for member in group}) == 1
    return group


class TestMalformedRequestsFailAlone:
    @pytest.mark.parametrize("intake", ["submit", "submit_many"])
    @pytest.mark.parametrize(
        "kind", ["nan", "short", "negative_lam", "negative_deadline", "infinite_deadline"]
    )
    def test_invalid_request_does_not_fail_its_neighbours(
        self, factory, workload, kind, intake
    ):
        bad_positions = {3, 11, 19}
        requests = list(workload)
        for position in bad_positions:
            requests[position] = _malformed(workload[position], kind)
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool) as scheduler:
            if intake == "submit":
                futures = [scheduler.submit(request) for request in requests]
            else:
                futures = scheduler.submit_many(requests)
            scheduler.drain(timeout=60.0)
            counters = scheduler.telemetry.snapshot()["counters"]
        for position in bad_positions:
            # A ValueError (HTTP 400), never a transient RequestShed: an
            # impossible deadline is the client's fault and retrying cannot help.
            with pytest.raises(ValueError):
                futures[position].result(timeout=0)
        valid = [i for i in range(len(requests)) if i not in bad_positions]
        results = [futures[i].result(timeout=0) for i in valid]
        references = serial_reference(factory("reference"), [requests[i] for i in valid])
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]
        assert counters.get("breaker_trips", 0) == 0
        assert counters.get("degraded_requests", 0) == 0
        assert counters["errors"] == len(bad_positions)

    @pytest.mark.parametrize("intake", ["submit", "submit_many"])
    @pytest.mark.parametrize("kind", ["short_sigma", "nan_sigma", "negative_sigma"])
    def test_bad_sigma_fails_alone(self, factory, workload, kind, intake):
        # Bad sigmas, each its own batch key, ahead of the valid requests:
        # each fails with ValueError, like a serial fit, instead of aborting
        # the call or failing at solve time as a server fault that trips the
        # breaker.
        bad = [
            dataclasses.replace(spoilt, sigma=spoilt.sigma * (1.0 + 0.01 * k))
            for k, spoilt in enumerate(_malformed(request, kind) for request in workload)
        ]
        requests = bad + list(workload)
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool) as scheduler:
            if intake == "submit":
                futures = [scheduler.submit(request) for request in requests]
            else:
                futures = scheduler.submit_many(requests)
            scheduler.drain(timeout=60.0)
            counters = scheduler.telemetry.snapshot()["counters"]
        reference = factory("reference")
        for future, request in zip(futures, bad):
            with pytest.raises(ValueError):
                future.result(timeout=0)
            with pytest.raises(ValueError):
                reference.fit(request.times, request.measurements, sigma=request.sigma)
        results = [future.result(timeout=0) for future in futures[len(bad) :]]
        references = serial_reference(factory("reference"), workload)
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]
        assert counters.get("breaker_trips", 0) == 0
        assert counters.get("degraded_requests", 0) == 0
        assert counters["errors"] == len(bad)


    @pytest.mark.parametrize(
        "kind",
        ["nan", "short", "negative_lam", "negative_deadline", "infinite_deadline",
         "short_sigma", "nan_sigma", "negative_sigma"],
    )
    def test_admission_rejection_is_an_invalid_request(self, factory, workload, kind):
        # The typed client fault (still a ValueError, so a 400 on the wire)
        # that the runner keeps away from the shard's breaker.
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            bad, good = scheduler.submit_many([_malformed(workload[0], kind), workload[1]])
            scheduler.drain(timeout=60.0)
        with pytest.raises(InvalidRequest):
            bad.result(timeout=0)
        reference = serial_reference(factory("reference"), [workload[1]])
        assert max_coefficient_gap([good.result(timeout=0)], reference) <= 1e-10

    def test_invalid_request_from_the_session_build_is_not_retried(self, workload):
        # A retry-everything policy and a one-failure breaker: counted as a
        # shard failure, the build's client fault would trip and retry.
        def refuse(_key):
            raise InvalidRequest("no session for this configuration")

        scheduler = MicroBatchScheduler(
            SessionPool(refuse),
            retry=RetryPolicy(max_attempts=3, retryable=lambda exc: True),
            breaker_threshold=1,
        )
        with scheduler:
            futures = scheduler.submit_many(workload[:3])
            scheduler.drain(timeout=60.0)
            counters = scheduler.telemetry.snapshot()["counters"]
        for future in futures:
            with pytest.raises(InvalidRequest, match="no session"):
                future.result(timeout=0)
        assert counters.get("retries", 0) == 0
        assert counters.get("breaker_trips", 0) == 0


class _WidthRecorder(FaultPlan):
    """A pure-observer fault plan recording the row count of every solve."""

    def __init__(self):
        super().__init__()
        self.widths = []

    def before_solve(self, shard, batch_size):
        self.widths.append(batch_size)
        super().before_solve(shard, batch_size)


def _with_repeats(group, count):
    """``count`` requests cycling through ``group``'s contents (fresh arrays)."""
    return [
        dataclasses.replace(
            group[k % len(group)], measurements=group[k % len(group)].measurements.copy()
        )
        for k in range(count)
    ]


class TestCacheAndDedup:
    def test_cache_hit_short_circuits_resolved_future(self, factory, workload):
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool) as scheduler:
            first = scheduler.submit(workload[0]).result()
            batches_before = scheduler.telemetry.counter("batches")
            repeat = FitRequest(
                times=workload[0].times.copy(),
                measurements=workload[0].measurements.copy(),
                lam=workload[0].lam,
            )
            future = scheduler.submit(repeat)
            # Resolved synchronously from the cache: no queueing, no batch.
            assert future.done()
            assert scheduler.telemetry.counter("cache_hits") == 1
            assert scheduler.telemetry.counter("batches") == batches_before
            assert np.array_equal(future.result().coefficients, first.coefficients)

    def test_in_batch_dedup_solves_repeats_once(self, factory, workload):
        pool = SessionPool(factory)
        request = workload[0]
        repeat = FitRequest(
            times=request.times.copy(),
            measurements=request.measurements.copy(),
            lam=request.lam,
        )
        with MicroBatchScheduler(pool) as scheduler:
            results = scheduler.map([request, repeat])
            assert scheduler.telemetry.counter("deduplicated") == 1
        assert np.array_equal(results[0].coefficients, results[1].coefficients)

    def test_disabled_cache_still_dedups(self, factory, workload):
        # Ten same-key requests with four distinct contents: dedup keys on
        # the fingerprint, not on the cache being enabled.
        requests = _with_repeats(_same_key_group(workload[1], 4), 10)
        plan = _WidthRecorder()
        pool = SessionPool(factory)
        with MicroBatchScheduler(
            pool, cache=ResultCache(0), fault_plan=plan
        ) as scheduler:
            results = scheduler.map(requests)
            assert scheduler.telemetry.counter("deduplicated") == 6
        assert plan.widths == [4]
        references = serial_reference(factory("reference"), requests)
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]

    def test_disabled_cache_still_correct(self, factory, workload):
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool, cache=ResultCache(0)) as scheduler:
            results = scheduler.map(workload[:6])
            assert scheduler.telemetry.counter("cache_hits") == 0
        references = serial_reference(factory("reference"), workload[:6])
        assert max_coefficient_gap(results, references) <= 1e-10


class TestLifecycle:
    def test_shutdown_drains_nonempty_queue(self, factory, workload, hold_shard):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool)
        # A stalled shard: the runner takes the first request and blocks in
        # its solve, so the queue is guaranteed non-empty when shutdown
        # arrives.
        release = hold_shard(scheduler)
        futures = [scheduler.submit(workload[0])]
        deadline = time.perf_counter() + 5.0
        while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)
        futures += [scheduler.submit(request) for request in workload[1:5]]
        closer = threading.Thread(target=scheduler.shutdown, kwargs={"drain": True})
        closer.start()
        while not scheduler.closed and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert scheduler.closed and scheduler.queue_depth() == 4
        release()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        results = [future.result(timeout=0) for future in futures]
        references = serial_reference(factory("reference"), workload[:5])
        assert max_coefficient_gap(results, references) <= 1e-10

    def test_shutdown_discard_cancels_pending(self, factory, workload, hold_shard):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool)
        release = hold_shard(scheduler)
        taken = scheduler.submit(workload[3])
        deadline = time.perf_counter() + 5.0
        while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
            time.sleep(0.001)  # the runner takes it, then stalls in its solve
        futures = [scheduler.submit(request) for request in workload[:3]]
        # shutdown(drain=False) cancels the queue at once, then waits for the
        # stalled runner, so it runs off the holding thread.
        closer = threading.Thread(target=scheduler.shutdown, kwargs={"drain": False})
        closer.start()
        concurrent.futures.wait(futures, timeout=10.0)
        assert all(future.cancelled() for future in futures)
        assert scheduler.telemetry.counter("cancelled") == 3
        release()
        closer.join(timeout=60.0)
        assert not closer.is_alive()
        # What a runner had already taken still completes.
        assert taken.result(timeout=0) is not None

    def test_submit_after_shutdown_raises(self, factory, workload):
        scheduler = MicroBatchScheduler(SessionPool(factory))
        scheduler.submit(workload[0]).result()  # populate the cache
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.submit(workload[0])  # cached content must not bypass
        with pytest.raises(RuntimeError):
            scheduler.submit_many([workload[1]])
        scheduler.shutdown()  # idempotent

    def test_backpressure_timeout(self, factory, workload, hold_shard):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_queue=1)
        # Stall the pipeline deterministically: holding the shard's session
        # lock blocks the runner inside its first solve, so the one-slot
        # queue stays full and the third submit hits the bound.
        release = hold_shard(scheduler)
        try:
            futures = [scheduler.submit(workload[0])]
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)  # the runner takes the first item, then blocks
            futures.append(scheduler.submit(workload[1]))  # fills the slot
            with pytest.raises(queue.Full):
                scheduler.submit(workload[2], timeout=0.05)
        finally:
            release()
        scheduler.shutdown(drain=True)
        assert all(future.done() and not future.cancelled() for future in futures)

    def test_zero_timeout_never_waits_for_a_blocked_bulk_producer(
        self, factory, workload, hold_shard
    ):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_queue=1)
        release = hold_shard(scheduler)  # stalls the runner in its first solve
        try:
            first = scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)
            bulk: list = []
            producer = threading.Thread(
                target=lambda: bulk.extend(scheduler.submit_many(workload[1:4]))
            )
            producer.start()  # one request fits, then it blocks holding the accept lock
            while scheduler.outstanding() < 2 and time.perf_counter() < deadline:
                time.sleep(0.001)
            time.sleep(0.02)
            assert scheduler.outstanding() == 2 and producer.is_alive()
            raised: list = []

            def probe():
                try:
                    scheduler.submit(workload[5], timeout=0)
                except queue.Full as exc:
                    raised.append(exc)

            started = time.perf_counter()
            prober = threading.Thread(target=probe)
            prober.start()
            prober.join(timeout=2.0)
            elapsed = time.perf_counter() - started
            assert not prober.is_alive(), "submit(timeout=0) blocked on the accept lock"
            assert len(raised) == 1 and not isinstance(raised[0], IntakeOverflow)
            assert elapsed < 1.0
            assert scheduler.outstanding() == 2
            assert scheduler.queue_depth() == 1
        finally:
            release()
        producer.join(timeout=30.0)
        assert not producer.is_alive()
        scheduler.shutdown(drain=True)
        assert first.result(timeout=30) is not None
        assert all(future.result(timeout=30) is not None for future in bulk)
        assert scheduler.outstanding() == 0

    def test_intake_bound_counts_requests_not_entries(self, factory, workload, hold_shard):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_queue=3)
        # Five requests sharing one batch key travel as one queued group,
        # but only three fit under a three-request bound.
        group = _same_key_group(workload[1], 5)
        release = hold_shard(scheduler)  # stalls the runner in its first solve
        try:
            first = scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)
            with pytest.raises(IntakeOverflow) as info:
                scheduler.submit_many(group, timeout=0.05)
            assert len(info.value.accepted) == 3
            assert [id(request) for request in info.value.rejected] == [
                id(request) for request in group[3:]
            ]
            assert scheduler.queue_depth() == 3
            assert scheduler.outstanding() == 4
        finally:
            release()
        scheduler.shutdown(drain=True)
        assert first.result(timeout=30) is not None
        for future in info.value.accepted:
            assert future.result(timeout=30) is not None
        assert scheduler.queue_depth() == 0
        assert scheduler.outstanding() == 0

    def test_grouped_intake_under_contention(self, factory, workload):
        """Producers racing partial group puts never lose or overcount a request."""
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(
            pool, max_queue=5, cache=ResultCache(0)
        )
        futures = [None] * len(workload)
        depths = []
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:

            def produce(offset):
                indices = list(range(offset, len(workload), 3))
                for index, future in zip(
                    indices, scheduler.submit_many([workload[i] for i in indices])
                ):
                    futures[index] = future
                    depths.append(scheduler.queue_depth())

            threads = [
                threading.Thread(target=produce, args=(offset,)) for offset in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            results = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(switch)
            scheduler.shutdown()
        assert max(depths) <= 5
        assert scheduler.outstanding() == 0 and scheduler.queue_depth() == 0
        references = serial_reference(factory("reference"), workload)
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]

    def test_submit_many_enqueues_one_entry_per_batch_key(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool)
        entries = []
        put = scheduler._put

        def recording_put(items, timeout=None):
            entries.append([item.batch_key for item in items])
            return put(items, timeout)

        scheduler._put = recording_put
        try:
            results = scheduler.map(workload)
        finally:
            scheduler.shutdown()
        assert len(entries) == len({request.batch_key() for request in workload})
        assert all(len(set(keys)) == 1 for keys in entries)
        assert sum(len(keys) for keys in entries) == len(workload)
        references = serial_reference(factory("reference"), workload)
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]

    def test_solver_errors_propagate_to_futures(self, factory, kernels):
        pool = SessionPool(factory)
        # Well-formed, so it passes admission; the solver rejects the method.
        bad = FitRequest(
            times=kernels[0].times.copy(),
            measurements=np.ones(kernels[0].times.size),
            lambda_method="no-such-method",
        )
        with MicroBatchScheduler(pool) as scheduler:
            future = scheduler.submit(bad)
            with pytest.raises(Exception):
                future.result(timeout=10)
            assert scheduler.telemetry.counter("errors") == 1

    def test_queue_accounting_and_graceful_drain(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, workers=2)
        futures = []
        samples = []

        def produce(offset):
            for index in range(offset, len(workload), 2):
                futures.append(scheduler.submit(workload[index]))
                # Sampled under the accept lock, so no submit is half-way
                # between its enqueue and its outstanding increment.
                with scheduler._accept_lock:
                    samples.append((scheduler.queue_depth(), scheduler.outstanding()))

        threads = [threading.Thread(target=produce, args=(offset,)) for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Sampled while submissions raced the drain: queued is a subset of
        # outstanding, and outstanding never exceeds what was accepted.
        for queued, outstanding in samples:
            assert 0 <= queued <= outstanding <= len(workload)
        scheduler.shutdown(drain=True)
        # Graceful drain: every accepted future resolved (no cancellations)
        # and the accounting returns to zero.
        assert all(future.done() and not future.cancelled() for future in futures)
        assert len([future.result() for future in futures]) == len(workload)
        assert scheduler.outstanding() == 0
        assert scheduler.queue_depth() == 0

    def test_default_workers_is_thread_cap(self, factory):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            assert scheduler.workers == scheduler.stats()["workers"] == 4

    def test_validation(self, factory):
        pool = SessionPool(factory)
        # Unknown keywords are rejected, not silently ignored.
        with pytest.raises(TypeError):
            MicroBatchScheduler(pool, max_batch=8)
        with pytest.raises(TypeError):
            MicroBatchScheduler(pool, max_wait_ms=1.0)
        with pytest.raises(TypeError):
            MicroBatchScheduler(pool, adaptive_wait=False)
        with pytest.raises(ValueError):
            MicroBatchScheduler(pool, max_queue=0)

    def test_stats_shape(self, factory, workload):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            scheduler.map(workload[:4])
            stats = scheduler.stats()
        assert {"queued", "outstanding", "workers", "pool", "cache", "telemetry"} <= set(stats)
        assert not {"max_wait_ms", "effective_wait_ms"} & set(stats)
        assert stats["outstanding"] == 0


class TestIdleDispatch:
    """Producers hand work straight to shard runners; no window, no batcher."""

    def test_construction_starts_no_thread(self, factory):
        # No batcher thread; runner threads start with the first request.
        before = set(threading.enumerate())
        scheduler = MicroBatchScheduler(SessionPool(factory))
        try:
            assert [t.name for t in threading.enumerate() if t not in before] == []
        finally:
            scheduler.shutdown()

    def test_idle_shard_solves_a_request_as_a_batch_of_one(self, factory, workload):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            result = scheduler.submit(workload[0]).result(timeout=30)
            snapshot = scheduler.telemetry.snapshot()
        sizes = snapshot["histograms"]["batch_size"]
        assert sizes["count"] == 1 and sizes["max"] == 1
        reference = serial_reference(factory("reference"), [workload[0]])[0]
        assert np.max(np.abs(result.coefficients - reference.coefficients)) <= 1e-10

    def test_requests_queued_during_a_solve_coalesce_into_the_next_batch(
        self, factory, workload, hold_shard
    ):
        scheduler = MicroBatchScheduler(SessionPool(factory))
        group = _same_key_group(workload[1], 5)
        release = hold_shard(scheduler)
        try:
            blocker = scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)  # the runner takes it, then stalls in its solve
            futures = [scheduler.submit(request) for request in group]
            assert scheduler.queue_depth() == len(group)
        finally:
            release()
        try:
            results = [future.result(timeout=30) for future in futures]
            assert blocker.result(timeout=30) is not None
            snapshot = scheduler.telemetry.snapshot()
        finally:
            scheduler.shutdown()
        sizes = snapshot["histograms"]["batch_size"]
        # The blocker alone, then all five one-request groups as one batch.
        assert sizes["count"] == 2 and sizes["max"] == len(group)
        references = serial_reference(factory("reference"), group)
        assert max_coefficient_gap(results, references) <= 1e-10

    @pytest.mark.parametrize("intake", ["submit", "submit_many"])
    def test_runner_solves_what_it_takes_as_one_batch(
        self, factory, workload, hold_shard, intake
    ):
        """Same-key requests queued during a solve re-merge into one batch."""
        scheduler = MicroBatchScheduler(
            SessionPool(factory), cache=ResultCache(0)
        )
        group = _same_key_group(workload[1], 10)
        release = hold_shard(scheduler)
        try:
            scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)
            if intake == "submit":
                futures = [scheduler.submit(request) for request in group]
            else:
                futures = scheduler.submit_many(group)
            assert scheduler.queue_depth() == len(group)
        finally:
            release()
        try:
            results = [future.result(timeout=30) for future in futures]
            snapshot = scheduler.telemetry.snapshot()
        finally:
            scheduler.shutdown()
        sizes = snapshot["histograms"]["batch_size"]
        assert sizes["max"] == len(group)
        assert snapshot["counters"]["batches"] == 1 + 1  # the blocker, then all ten
        references = serial_reference(factory("reference"), group)
        assert max_coefficient_gap(results, references) <= 1e-10


    def test_repeats_ride_with_their_leader(self, factory, workload, hold_shard):
        # Ten requests with four distinct contents are one batch of four
        # solve rows.
        plan = _WidthRecorder()
        scheduler = MicroBatchScheduler(
            SessionPool(factory), fault_plan=plan
        )
        requests = _with_repeats(_same_key_group(workload[1], 4), 10)
        release = hold_shard(scheduler)
        try:
            scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)
            futures = scheduler.submit_many(requests)
            assert scheduler.queue_depth() == len(requests)
        finally:
            release()
        try:
            results = [future.result(timeout=30) for future in futures]
            snapshot = scheduler.telemetry.snapshot()
        finally:
            scheduler.shutdown()
        assert plan.widths == [1, 4]
        assert snapshot["counters"]["batches"] == 1 + 1
        assert snapshot["counters"]["deduplicated"] == 6
        assert snapshot["histograms"]["batch_size"]["max"] == len(requests)
        references = serial_reference(factory("reference"), requests)
        assert max_coefficient_gap(results, references) <= 1e-10


class TestWholeKeyBlocks:
    """A key block is one ``fit_many`` call, however many rows it has."""

    def _run_block(self, factory, workload, count, **options):
        plan = _WidthRecorder()
        group = _same_key_group(dataclasses.replace(workload[1], lam=1e-2), count)
        with MicroBatchScheduler(SessionPool(factory), fault_plan=plan, **options) as scheduler:
            results = [future.result(timeout=60) for future in scheduler.submit_many(group)]
            snapshot = scheduler.telemetry.snapshot()
        references = serial_reference(factory("reference"), group)
        assert max_coefficient_gap(results, references) <= 1e-10
        assert [r.lam for r in results] == [r.lam for r in references]
        return plan.widths, snapshot

    def test_a_block_is_solved_in_one_call(self, factory, workload):
        widths, snapshot = self._run_block(factory, workload, 200)
        assert widths == [200]
        assert snapshot["counters"]["batches"] == 1
        assert snapshot["counters"]["completed"] == 200


_CONFIGS = ["default", "alt", 1, 1.0, True, ("grid", 2)]
_SEEDS = [
    lambda k: k,
    lambda k: np.random.SeedSequence(k),
    lambda k: np.random.default_rng(k),
]


@st.composite
def _content_requests(draw):
    """A request of arbitrary content; nothing ever solves it."""
    size = draw(st.sampled_from([6, 9]))
    content = draw(st.integers(0, 3))  # small, so contents repeat
    grid = draw(st.sampled_from([None, 5, 7]))
    return FitRequest(
        times=np.linspace(0.0, 100.0, size),
        measurements=np.random.default_rng(content).normal(size=size),
        sigma=draw(st.sampled_from([None, 0.5, np.linspace(0.2, 0.4, size)])),
        lam=draw(st.one_of(st.none(), st.sampled_from([0.0, -0.0, 1e-3, 0.1]))),
        lambda_method=draw(st.sampled_from(["gcv", "kfold", "lcurve"])),
        lambda_grid=None if grid is None else np.logspace(-4.0, 0.0, grid),
        rng=draw(st.sampled_from(_SEEDS))(draw(st.integers(0, 2))),
        config=draw(st.sampled_from(_CONFIGS)),
    )


def _never_built(_key):
    raise AssertionError("a cache hit must not reach a solve")


_KINDS = ["valid"] * 4 + [
    "nan",
    "short",
    "negative_lam",
    "negative_deadline",
    "short_sigma",
    "nan_sigma",
    "negative_sigma",
]


def _picked(workload, picks):
    """Fresh request objects: ``workload[index]``, malformed per ``kind``."""
    return [
        dataclasses.replace(workload[index]) if kind == "valid" else _malformed(workload[index], kind)
        for index, kind in picks
    ]


def _outcome(future):
    exc = future.exception(timeout=60)
    return exc if exc is not None else future.result()


_PICKS = st.lists(
    st.tuples(st.integers(0, 23), st.sampled_from(_KINDS)), min_size=1, max_size=14
)


class TestKeyBlocks:
    """Intake admits, fingerprints and looks up one batch-key block at a time."""

    @settings(max_examples=60, deadline=None)
    @given(requests=st.lists(_content_requests(), min_size=1, max_size=12))
    def test_block_fingerprint_matches_request_fingerprint(self, requests):
        expected = [request.fingerprint() for request in requests]
        # Entries keyed by request_fingerprint must hit from the block path:
        # every future resolves from the cache and nothing is solved.
        cache = ResultCache()
        sentinels = {fingerprint: object() for fingerprint in expected}
        for fingerprint, sentinel in sentinels.items():
            cache.put(fingerprint, sentinel)
        scheduler = MicroBatchScheduler(SessionPool(_never_built), cache=cache)
        try:
            bulk = scheduler.submit_many(requests)
            single = [scheduler.submit(request) for request in requests]
        finally:
            scheduler.shutdown()
        hits = 0
        for request, fingerprint, many, one in zip(requests, expected, bulk, single):
            if request.lam is None and request.lambda_method not in LAMBDA_METHODS:
                # An unknown selection method fails at admission, cached or not.
                for future in (many, one):
                    with pytest.raises(ValueError, match="unknown lambda selection method"):
                        future.result(timeout=0)
                continue
            assert many.result(timeout=0) is sentinels[fingerprint]
            assert one.result(timeout=0) is sentinels[fingerprint]
            hits += 2
        assert scheduler.telemetry.counter("cache_hits") == hits

    def test_equal_configs_keep_their_own_fingerprints(self):
        # 1 == 1.0 == True share a batch key but not a repr, so each needs
        # its own fingerprint prefix.
        times = np.linspace(0.0, 100.0, 6)
        requests = [
            FitRequest(times=times.copy(), measurements=np.ones(6), lam=0.1, config=config)
            for config in (1, 1.0, True)
        ]
        assert len({request.batch_key() for request in requests}) == 1
        assert len({request.fingerprint() for request in requests}) == 3
        cache = ResultCache()
        for request in requests:
            cache.put(request.fingerprint(), request)
        with MicroBatchScheduler(SessionPool(_never_built), cache=cache) as scheduler:
            futures = scheduler.submit_many(requests)
        assert all(
            future.result(timeout=0) is request for future, request in zip(futures, requests)
        )

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(picks=_PICKS)
    def test_submit_many_matches_submit_one_by_one(self, factory, workload, picks):
        requests = _picked(workload, picks)
        outcomes = []
        for intake in ("submit_many", "submit"):
            with MicroBatchScheduler(SessionPool(factory)) as scheduler:
                if intake == "submit_many":
                    futures = scheduler.submit_many(requests)
                else:
                    futures = [scheduler.submit(request) for request in requests]
                outcomes.append([_outcome(future) for future in futures])
                counters = scheduler.telemetry.snapshot()["counters"]
            assert counters.get("breaker_trips", 0) == 0
        for (_, kind), many, one in zip(picks, *outcomes):
            if kind != "valid":
                assert isinstance(many, ValueError) and isinstance(one, ValueError)
                continue
            assert np.max(np.abs(many.coefficients - one.coefficients)) <= 1e-10
            assert many.lam == one.lam

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(picks=_PICKS, max_queue=st.integers(1, 4))
    def test_overflow_rejects_in_input_order(
        self, factory, workload, hold_shard, picks, max_queue
    ):
        requests = _picked(workload, picks)
        scheduler = MicroBatchScheduler(
            SessionPool(factory), max_queue=max_queue, cache=ResultCache(0)
        )
        overflow = None
        release = hold_shard(scheduler)
        try:
            scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)
            try:
                futures = scheduler.submit_many(requests, timeout=0.01)
            except IntakeOverflow as exc:
                overflow = exc
                futures = exc.accepted
        finally:
            release()
        scheduler.shutdown(drain=True)
        kept = list(range(len(requests)))
        if overflow is not None:
            position = {id(request): index for index, request in enumerate(requests)}
            rejected = [position[id(request)] for request in overflow.rejected]
            assert rejected == sorted(set(rejected))
            assert all(picks[index][1] == "valid" for index in rejected)
            kept = [index for index in kept if index not in rejected]
        assert len(futures) == len(kept)
        for index, future in zip(kept, futures):
            outcome = _outcome(future)
            if picks[index][1] == "valid":
                assert not isinstance(outcome, BaseException)
            else:
                assert isinstance(outcome, ValueError)


class TestReviewRegressions:
    def test_generator_seeded_requests_do_not_coalesce_or_cache_alias(self, factory, kernels):
        values = kernels[0].apply_function(single_pulse_profile())
        one = FitRequest(
            times=kernels[0].times.copy(), measurements=values.copy(),
            lambda_method="kfold", rng=np.random.default_rng(1),
        )
        two = FitRequest(
            times=kernels[0].times.copy(), measurements=values.copy(),
            lambda_method="kfold", rng=np.random.default_rng(2),
        )
        assert one.batch_key() != two.batch_key()
        assert one.fingerprint() != two.fingerprint()

    def test_batch_key_matches_session_bucket(self, kernels):
        from repro.core.session import fit_options_bucket

        request = FitRequest(times=kernels[0].times.copy(), measurements=np.ones(13), lam=1e-3)
        assert request.batch_key()[2:] == fit_options_bucket(
            request.times, None, 1e-3, "gcv", None
        )

    def test_cached_results_release_solver_caches(self, factory, workload):
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool) as scheduler:
            returned = scheduler.submit(workload[0]).result()
            (cached,) = scheduler.cache._entries.values()
        # The cached result no longer pins the shard's factorizations ...
        assert cached._problem._hessians == {}
        assert cached._problem._workspaces == {}
        assert cached._problem._selection_caches == {}
        # ... but its lazy diagnostics still work and match a direct fit.
        reference = factory("reference").fit(
            workload[0].times, workload[0].measurements, lam=workload[0].lam
        )
        assert cached.data_misfit == pytest.approx(reference.data_misfit, rel=1e-10)
        assert np.allclose(returned.fitted, reference.fitted)
