"""Tests for the micro-batching scheduler: equivalence, caching, lifecycle.

The load-bearing guarantee is that the service layer changes *when* and
*with what company* each request is solved, never the numbers: every
response must match a direct one-shot ``Deconvolver.fit`` to 1e-10 — under
concurrent producers, coalescing, dedup, cache hits and drain.
"""

import dataclasses
import queue
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.data.synthetic import single_pulse_profile
from repro.service import (
    FitRequest,
    IntakeOverflow,
    MicroBatchScheduler,
    ResultCache,
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
        with MicroBatchScheduler(pool, max_batch=8, max_wait_ms=1.0, workers=2) as scheduler:

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
        with MicroBatchScheduler(pool, max_batch=32, max_wait_ms=0.5) as scheduler:
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
        with MicroBatchScheduler(pool, max_batch=8, max_wait_ms=5.0) as scheduler:
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
    if kind == "nan":
        measurements[1] = np.nan
    elif kind == "short":
        measurements = measurements[:-1]
    else:
        lam = -1e-3
    # Every other field is kept, so the bad request coalesces with its
    # neighbours' batch key whenever its shape allows.
    return dataclasses.replace(request, measurements=measurements, lam=lam)


class TestMalformedRequestsFailAlone:
    @pytest.mark.parametrize("intake", ["submit", "submit_many"])
    @pytest.mark.parametrize("kind", ["nan", "short", "negative_lam"])
    def test_invalid_request_does_not_fail_its_neighbours(
        self, factory, workload, kind, intake
    ):
        bad_positions = {3, 11, 19}
        requests = list(workload)
        for position in bad_positions:
            requests[position] = _malformed(workload[position], kind)
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool, max_batch=32, max_wait_ms=5.0) as scheduler:
            if intake == "submit":
                futures = [scheduler.submit(request) for request in requests]
            else:
                futures = scheduler.submit_many(requests)
            scheduler.drain(timeout=60.0)
            counters = scheduler.telemetry.snapshot()["counters"]
        for position in bad_positions:
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


class TestCacheAndDedup:
    def test_cache_hit_short_circuits_resolved_future(self, factory, workload):
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool, max_batch=8, max_wait_ms=0.5) as scheduler:
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
        with MicroBatchScheduler(pool, max_batch=8, max_wait_ms=5.0) as scheduler:
            results = scheduler.map([request, repeat])
            assert scheduler.telemetry.counter("deduplicated") == 1
        assert np.array_equal(results[0].coefficients, results[1].coefficients)

    def test_disabled_cache_still_correct(self, factory, workload):
        pool = SessionPool(factory)
        with MicroBatchScheduler(pool, cache=ResultCache(0), max_wait_ms=0.5) as scheduler:
            results = scheduler.map(workload[:6])
            assert scheduler.telemetry.counter("cache_hits") == 0
        references = serial_reference(factory("reference"), workload[:6])
        assert max_coefficient_gap(results, references) <= 1e-10


class TestLifecycle:
    def test_shutdown_drains_nonempty_queue(self, factory, workload):
        pool = SessionPool(factory)
        # A very long batching window: nothing dispatches on its own, so the
        # queue is guaranteed non-empty when shutdown arrives.
        scheduler = MicroBatchScheduler(pool, max_batch=64, max_wait_ms=60_000.0)
        futures = [scheduler.submit(request) for request in workload[:5]]
        scheduler.shutdown(drain=True)
        results = [future.result(timeout=0) for future in futures]
        references = serial_reference(factory("reference"), workload[:5])
        assert max_coefficient_gap(results, references) <= 1e-10

    def test_shutdown_discard_cancels_pending(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_batch=64, max_wait_ms=60_000.0)
        futures = [scheduler.submit(request) for request in workload[:3]]
        scheduler.shutdown(drain=False)
        assert all(future.cancelled() for future in futures)
        assert scheduler.telemetry.counter("cancelled") == 3

    def test_submit_after_shutdown_raises(self, factory, workload):
        scheduler = MicroBatchScheduler(SessionPool(factory))
        scheduler.submit(workload[0]).result()  # populate the cache
        scheduler.shutdown()
        with pytest.raises(RuntimeError):
            scheduler.submit(workload[0])  # cached content must not bypass
        with pytest.raises(RuntimeError):
            scheduler.submit_many([workload[1]])
        scheduler.shutdown()  # idempotent

    def test_backpressure_timeout(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_batch=1, max_queue=1, max_wait_ms=60_000.0)
        # Stall the pipeline deterministically: holding the shard-queue lock
        # blocks the batcher inside its first dispatch, so the one-slot
        # intake queue stays full and the third submit hits the bound.
        scheduler._shard_lock.acquire()
        try:
            futures = [scheduler.submit(workload[0])]
            deadline = time.perf_counter() + 5.0
            while scheduler._queue.qsize() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)  # batcher takes the first item, then blocks
            futures.append(scheduler.submit(workload[1]))  # fills the slot
            with pytest.raises(queue.Full):
                scheduler.submit(workload[2], timeout=0.05)
        finally:
            scheduler._shard_lock.release()
        scheduler.shutdown(drain=True)
        assert all(future.done() and not future.cancelled() for future in futures)

    def test_intake_bound_counts_requests_not_entries(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_batch=1, max_queue=3, max_wait_ms=60_000.0)
        # Five requests sharing one batch key travel as one intake entry,
        # but only three fit under a three-request bound.
        group = [
            dataclasses.replace(
                workload[1], measurements=workload[1].measurements * (1.0 + 0.1 * k)
            )
            for k in range(5)
        ]
        assert len({request.batch_key() for request in group}) == 1
        scheduler._shard_lock.acquire()  # stalls the batcher in its first dispatch
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
            scheduler._shard_lock.release()
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
            pool, max_batch=4, max_queue=5, max_wait_ms=0.5, cache=ResultCache(0)
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
        scheduler = MicroBatchScheduler(pool, max_batch=8, max_wait_ms=0.5)
        entries = []
        put = scheduler._queue.put

        def recording_put(items, timeout=None):
            entries.append([item.batch_key for item in items])
            return put(items, timeout)

        scheduler._queue.put = recording_put
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
        with MicroBatchScheduler(pool, max_wait_ms=0.5) as scheduler:
            future = scheduler.submit(bad)
            with pytest.raises(Exception):
                future.result(timeout=10)
            assert scheduler.telemetry.counter("errors") == 1

    def test_queue_accounting_and_graceful_drain(self, factory, workload):
        pool = SessionPool(factory)
        scheduler = MicroBatchScheduler(pool, max_batch=4, max_wait_ms=10.0, workers=2)
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
        with pytest.raises(ValueError):
            MicroBatchScheduler(pool, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(pool, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            MicroBatchScheduler(pool, max_queue=0)

    def test_stats_shape(self, factory, workload):
        with MicroBatchScheduler(SessionPool(factory), max_wait_ms=0.5) as scheduler:
            scheduler.map(workload[:4])
            stats = scheduler.stats()
        assert {"queued", "outstanding", "workers", "pool", "cache", "telemetry"} <= set(stats)
        assert stats["outstanding"] == 0


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
        with MicroBatchScheduler(pool, max_wait_ms=0.5) as scheduler:
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
