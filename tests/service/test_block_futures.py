"""The futures of one admission block share one condition and stay futures.

``submit_many`` hands out one :class:`concurrent.futures.Future` per request,
and all futures of one call share a single ``threading.Condition``.  The
standard consumers must keep working on them: ``concurrent.futures.wait`` and
``as_completed`` (which acquire every watched future's condition, so a
shared one has to be re-entrant), ``asyncio.wrap_future``, and cancelling one
future while its siblings resolve.  Settling one sibling wakes every waiter
of the block, so a waiter must keep waiting until its own future settles or
its timeout passes.
"""

import asyncio
import concurrent.futures
import dataclasses
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.service import (
    DeadlineExceeded,
    FitRequest,
    MicroBatchScheduler,
    SessionPool,
    WorkloadSpec,
    build_workload,
    max_coefficient_gap,
    serial_reference,
)
from repro.service.scheduler import _BlockFuture


@pytest.fixture(scope="module")
def kernels(paper_parameters, small_kernel):
    from repro.cellcycle.kernel import KernelBuilder

    builder = KernelBuilder(paper_parameters, num_cells=1200, phase_bins=30)
    return [small_kernel, builder.build(np.linspace(0.0, 120.0, 9), rng=5)]


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
        WorkloadSpec(num_requests=16, repeat_ratio=0.25, selection_fraction=0.15, seed=5),
    )


def _check(results, requests, factory):
    references = serial_reference(factory("reference"), requests)
    assert max_coefficient_gap(results, references) <= 1e-10
    assert [r.lam for r in results] == [r.lam for r in references]


class TestSharedCondition:
    def test_one_condition_per_call(self, factory, workload, hold_shard):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            release = hold_shard(scheduler)
            first = scheduler.submit_many(workload[:4])
            second = scheduler.submit_many(workload[4:8])
            single = scheduler.submit(workload[8])
            release()
            for future in first + second + [single]:
                assert isinstance(future, concurrent.futures.Future)
                future.result(timeout=60)
        assert len({id(future._condition) for future in first}) == 1
        assert len({id(future._condition) for future in second}) == 1
        assert first[0]._condition is not second[0]._condition
        assert single._condition is not first[0]._condition

    def test_pending_result_outlasts_a_sibling_settle(self):
        condition = threading.Condition()
        mine, sibling = _BlockFuture(condition), _BlockFuture(condition)
        outcome = []

        def wait():
            try:
                outcome.append(mine.result(timeout=30.0))
            except BaseException as exc:  # recorded, asserted below
                outcome.append(exc)

        waiter = threading.Thread(target=wait)
        waiter.start()
        time.sleep(0.05)
        sibling.set_result("sibling")  # wakes the waiter, which must wait on
        time.sleep(0.1)
        assert outcome == [] and waiter.is_alive()
        mine.set_result("mine")
        waiter.join(timeout=30.0)
        assert outcome == ["mine"]

    def test_timeout_still_raises_while_siblings_settle(self):
        condition = threading.Condition()
        mine = _BlockFuture(condition)
        siblings = [_BlockFuture(condition) for _ in range(5)]

        def settle():
            for index, sibling in enumerate(siblings):
                time.sleep(0.02)
                sibling.set_result(index)

        settler = threading.Thread(target=settle)
        settler.start()
        start = time.perf_counter()
        with pytest.raises(concurrent.futures.TimeoutError):
            mine.exception(timeout=0.3)
        assert time.perf_counter() - start >= 0.3
        settler.join()
        assert [sibling.result(timeout=0) for sibling in siblings] == list(range(5))
        with pytest.raises(concurrent.futures.TimeoutError):
            mine.result(timeout=0)

    def test_exception_and_callbacks(self):
        condition = threading.Condition()
        failed, ok = _BlockFuture(condition), _BlockFuture(condition)
        seen = []
        failed.add_done_callback(seen.append)
        error = ValueError("bad")
        failed.set_exception(error)
        ok.set_result(1)
        assert seen == [failed]
        assert failed.exception(timeout=0) is error
        with pytest.raises(ValueError, match="bad"):
            failed.result()
        assert ok.exception() is None and ok.result() == 1


class TestStandardConsumers:
    def test_wait_and_as_completed(self, factory, workload):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            futures = scheduler.submit_many(workload)
            done, pending = concurrent.futures.wait(futures, timeout=60)
            assert not pending and len(done) == len(workload)
            again = scheduler.submit_many(workload)
            completed = list(concurrent.futures.as_completed(again, timeout=60))
        assert sorted(map(id, completed)) == sorted(map(id, again))
        _check([future.result() for future in futures], workload, factory)

    def test_wait_first_completed_on_pending_siblings(self, factory, workload, hold_shard):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            release = hold_shard(scheduler)
            futures = scheduler.submit_many(workload[:6])
            done, pending = concurrent.futures.wait(
                futures, timeout=0.05, return_when=concurrent.futures.FIRST_COMPLETED
            )
            assert not done and len(pending) == 6
            release()
            done, pending = concurrent.futures.wait(
                futures, timeout=60, return_when=concurrent.futures.FIRST_COMPLETED
            )
            assert done
            concurrent.futures.wait(futures, timeout=60)
        _check([future.result(timeout=0) for future in futures], workload[:6], factory)

    def test_asyncio_wrap_future(self, factory, workload):
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:

            async def gather():
                futures = scheduler.submit_many(workload)
                return await asyncio.gather(*(asyncio.wrap_future(f) for f in futures))

            results = asyncio.run(gather())
        _check(results, workload, factory)

    def test_cancel_one_while_siblings_resolve(self, factory, workload, hold_shard):
        requests = [r for r in workload if r.lam is not None][:6]
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            release = hold_shard(scheduler)
            futures = scheduler.submit_many(requests)
            assert futures[2].cancel()
            release()
            assert scheduler.drain(timeout=60)
        assert futures[2].cancelled()
        with pytest.raises(concurrent.futures.CancelledError):
            futures[2].result(timeout=0)
        kept = [index for index in range(len(requests)) if index != 2]
        _check(
            [futures[index].result(timeout=0) for index in kept],
            [requests[index] for index in kept],
            factory,
        )


class TestBlockSettle:
    """Settling a batch keeps the ``Future`` contract on a shared condition."""

    def test_waiters_callbacks_and_a_cancelled_future(self, factory, workload, hold_shard):
        requests = [r for r in workload if r.lam is not None][:6]
        calls = {}
        lock_held = []

        def callback(future):
            calls[id(future)] = calls.get(id(future), 0) + 1
            lock_held.append(future._condition._is_owned())

        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            release = hold_shard(scheduler)
            futures = scheduler.submit_many(requests)
            for future in futures:
                future.add_done_callback(callback)
            assert futures[2].cancel()
            live = [future for index, future in enumerate(futures) if index != 2]
            waited, streamed = [], []
            waiter = threading.Thread(
                target=lambda: waited.append(concurrent.futures.wait(live, timeout=60))
            )
            streamer = threading.Thread(
                target=lambda: streamed.extend(concurrent.futures.as_completed(live, timeout=60))
            )
            waiter.start()
            streamer.start()
            time.sleep(0.05)
            release()
            waiter.join(timeout=60)
            streamer.join(timeout=60)
            assert not waiter.is_alive() and not streamer.is_alive()
            assert scheduler.drain(timeout=60)
            snapshot = scheduler.telemetry.snapshot()
        (done, pending), = waited
        assert done == set(live) and not pending
        assert sorted(map(id, streamed)) == sorted(map(id, live))
        # Every callback ran once (the cancelled one at cancel time), never
        # under the shared condition.
        assert sorted(calls.values()) == [1] * len(futures)
        assert not any(lock_held)
        assert futures[2].cancelled()
        assert snapshot["counters"]["completed"] == len(live)
        assert scheduler.outstanding() == 0
        kept = [requests[index] for index in range(len(requests)) if index != 2]
        _check([future.result(timeout=0) for future in live], kept, factory)

    def test_a_deadline_miss_in_the_block_fails_alone(self, factory, workload, hold_shard):
        requests = [r for r in workload if r.lam is not None][:5]
        late = dataclasses.replace(requests[3], deadline_ms=20.0)
        block = requests[:3] + [late] + requests[4:]
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            release = hold_shard(scheduler)
            scheduler.submit(workload[0])
            deadline = time.perf_counter() + 5.0
            while scheduler.queue_depth() > 0 and time.perf_counter() < deadline:
                time.sleep(0.001)
            futures = scheduler.submit_many(block)
            time.sleep(0.1)
            release()
            assert scheduler.drain(timeout=60)
            snapshot = scheduler.telemetry.snapshot()
        with pytest.raises(DeadlineExceeded):
            futures[3].result(timeout=0)
        kept = [0, 1, 2, 4]
        _check([futures[i].result(timeout=0) for i in kept], [block[i] for i in kept], factory)
        assert snapshot["counters"]["deadline_missed"] == 1
        assert snapshot["counters"]["completed"] == 1 + len(kept)


def test_waiters_on_one_block_under_fast_switching(factory, kernels):
    """More waiting threads than cores, one shared condition, each its own result."""
    values = kernels[0].apply_function(np.sin)
    rounds = [
        [
            FitRequest(
                times=kernels[0].times.copy(),
                measurements=values * (1.0 + 0.05 * k + 0.01 * round_),
                lam=1e-2,
            )
            for k in range(16)
        ]
        for round_ in range(3)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with MicroBatchScheduler(SessionPool(factory)) as scheduler:
            for requests in rounds:
                futures = scheduler.submit_many(requests)
                outcomes = [None] * len(futures)

                def wait(index):
                    outcomes[index] = futures[index].result(timeout=60)

                threads = [threading.Thread(target=wait, args=(i,)) for i in range(len(futures))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                assert all(o is f.result(timeout=0) for o, f in zip(outcomes, futures))
                _check(outcomes, requests, factory)
            assert scheduler.telemetry.counter("cache_hits") == 0
    finally:
        sys.setswitchinterval(interval)
