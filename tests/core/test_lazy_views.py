"""Batched results are lazy views: a column's sibling problem is built on demand.

``fit_many`` gives each result its coefficients, a private copy of its
measurement row and the shared template problem.  The sibling problem
behind the lazy diagnostics is built only when one is first read (k-fold
selection still builds its siblings up front, because it solves on them).  The diagnostics must equal what a sibling built
eagerly gives, pickling and ``detach`` must still produce self-contained
results, and a released result that never read a diagnostic must not pin
the template's solver caches.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.core.problem import DeconvolutionProblem
from repro.data.synthetic import single_pulse_profile
from repro.service import FitRequest, MicroBatchScheduler, SessionPool

LAMS = [1e-3, 1e-2, 1e-3, 3e-2, 1e-2]


@pytest.fixture()
def deconvolver(small_kernel, paper_parameters):
    return Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)


@pytest.fixture()
def matrix(small_kernel, rng):
    base = small_kernel.apply_function(single_pulse_profile())
    return np.column_stack(
        [base * (1.0 + 0.1 * k) + 0.02 * rng.normal(size=base.size) for k in range(5)]
    )


@pytest.fixture()
def sibling_calls(monkeypatch):
    """Count the sibling problems built from here on."""
    calls = []
    original = DeconvolutionProblem._sibling

    def counting(self, measurements):
        calls.append(measurements)
        return original(self, measurements)

    monkeypatch.setattr(DeconvolutionProblem, "_sibling", counting)
    return calls


def _template(deconvolver, times):
    return deconvolver.fit_workspace(times).template


@pytest.mark.parametrize("lam", [1e-2, LAMS, None], ids=["single", "mixed", "gcv"])
def test_diagnostics_equal_an_eager_sibling(deconvolver, matrix, lam):
    times = deconvolver.kernel.times
    results = deconvolver.fit_many(times, matrix, lam=lam)
    template = _template(deconvolver, times)
    for column, result in enumerate(results):
        assert result._problem is None and result._template is template
        eager = template.with_measurements(matrix[:, column])
        x = result.coefficients
        assert np.array_equal(result.fitted, eager.forward.predict(x))
        assert result.data_misfit == eager.data_misfit(x)
        assert result.roughness == eager.roughness(x)
        assert result.constraint_violations == eager.constraint_set.violations(x)
        assert np.array_equal(result.sigma, eager.sigma)
        assert result.cost() == eager.cost(x, result.lam)


def test_no_sibling_until_a_diagnostic_is_read(deconvolver, matrix, sibling_calls):
    times = deconvolver.kernel.times
    single = deconvolver.fit_many(times, matrix, lam=1e-2)
    mixed = deconvolver.fit_many(times, matrix, lam=LAMS)
    assert sibling_calls == []
    # Reading the solution itself builds nothing either.
    _ = [r.coefficients for r in single + mixed], single[0].profile(0.5)
    assert sibling_calls == []
    _ = single[1].data_misfit
    assert len(sibling_calls) == 1
    _ = single[1].fitted, single[1].roughness, single[1].constraint_violations
    assert len(sibling_calls) == 1


def test_siblings_built_where_a_solve_needs_them(deconvolver, matrix, sibling_calls):
    times = deconvolver.kernel.times
    deconvolver.fit_many(times, matrix[:, :1], lam=1e-2)  # a one-row stacked solve
    assert len(sibling_calls) == 0
    deconvolver.fit_many(times, matrix[:, :3], lambda_method="kfold")
    assert len(sibling_calls) == 3


def test_results_do_not_share_rows_with_the_caller(deconvolver, matrix):
    times = deconvolver.kernel.times
    original = matrix.copy()
    results = deconvolver.fit_many(times, matrix, lam=1e-2)
    misfit = _template(deconvolver, times).with_measurements(original[:, 0]).data_misfit(
        results[0].coefficients
    )
    matrix[:] = 0.0  # the caller reuses its buffer
    results[0].measurements[:] = -1.0  # and writes to the result's own array
    assert results[0].data_misfit == misfit
    np.testing.assert_array_equal(results[1].measurements, original[:, 1])


def test_pickle_and_detach_materialize(deconvolver, matrix):
    times = deconvolver.kernel.times
    results = deconvolver.fit_many(times, matrix, lam=LAMS)
    clone = pickle.loads(pickle.dumps(results[0]))
    assert clone._problem is None and clone._template is None
    assert clone.data_misfit == results[0].data_misfit
    assert np.array_equal(clone.fitted, results[0].fitted)
    assert clone.constraint_violations == results[0].constraint_violations
    expected = results[1].data_misfit
    fresh = deconvolver.fit_many(times, matrix, lam=LAMS)[1]
    assert fresh.detach() is fresh
    assert fresh._problem is None and fresh._template is None and fresh._row is None
    assert fresh.data_misfit == expected


def test_release_swaps_in_one_released_twin(deconvolver, matrix):
    times = deconvolver.kernel.times
    results = deconvolver.fit_many(times, matrix, lam=1e-2)
    template = _template(deconvolver, times)
    expected = [template.with_measurements(matrix[:, c]).data_misfit(r.coefficients)
                for c, r in enumerate(results)]
    for result in results:
        assert result.release_backing_caches() is result
    twin = results[0]._template
    assert twin is not template
    assert all(result._template is twin for result in results)
    assert twin.forward is template.forward and twin.basis is template.basis
    assert template._workspaces  # the template keeps its factorizations
    assert twin._hessians == {} and twin._workspaces == {}
    assert twin._selection_caches == {} and twin._gram is None
    assert [result.data_misfit for result in results] == expected
    # A second batch on the same template reuses the twin.
    again = deconvolver.fit_many(times, matrix, lam=1e-2)
    assert again[0].release_backing_caches()._template is twin


def test_cached_unread_results_pin_no_solver_cache(
    factory_scheduler, small_kernel, paper_parameters
):
    values = small_kernel.apply_function(single_pulse_profile())
    requests = [
        FitRequest(times=small_kernel.times.copy(), measurements=values * scale, lam=1e-2)
        for scale in (1.0, 1.1, 1.2, 1.3)
    ]
    with factory_scheduler() as scheduler:
        futures = scheduler.submit_many(requests)
        scheduler.drain(timeout=60)
        cached = list(scheduler.cache._entries.values())
    assert len(cached) == len(requests)
    for entry in cached:
        assert entry._problem is None
        backing = entry._template
        assert backing._hessians == {} and backing._workspaces == {}
        assert backing._selection_caches == {}
    reference = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=8)
    for request, future in zip(requests, futures):
        expected = reference.fit(request.times, request.measurements, lam=request.lam)
        assert future.result(timeout=0).data_misfit == pytest.approx(
            expected.data_misfit, rel=1e-10
        )


@pytest.fixture()
def factory_scheduler(small_kernel, paper_parameters):
    def build(_key):
        return Deconvolver(small_kernel, parameters=paper_parameters, num_basis=8)

    return lambda: MicroBatchScheduler(SessionPool(build))


def test_concurrent_first_reads_agree(deconvolver, matrix):
    """Threads racing to build one result's sibling all read the same values."""
    times = deconvolver.kernel.times
    template = _template(deconvolver, times)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            results = deconvolver.fit_many(times, matrix, lam=LAMS)
            seen = [[] for _ in results]

            def read():
                for result, out in zip(results, seen):
                    out.append((result.data_misfit, result.roughness))

            threads = [threading.Thread(target=read) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for column, (result, out) in enumerate(zip(results, seen)):
                eager = template.with_measurements(matrix[:, column])
                x = result.coefficients
                expected = (eager.data_misfit(x), eager.roughness(x))
                assert out == [expected] * len(threads)
    finally:
        sys.setswitchinterval(interval)
