"""Per-stage timing harness for the warm-started, shared-factorization solve path.

Times the layers the solve-path PRs thread through -- QP solve (cold,
cached-workspace and warm-started), lambda search (GCV and both k-fold CV
engines), residual bootstrap, Monte-Carlo kernel build and multi-species
``fit_many`` batches -- on one representative deconvolution workload, and
emits a JSON baseline (``BENCH_solvepath.json``) so the perf trajectory can
be tracked across PRs.

Run the full-size benchmark and refresh the committed baseline with::

    PYTHONPATH=src python -m repro.benchmarks.solvepath --output BENCH_solvepath.json

The CI bench-regression job re-times the default sizes with fewer repeats and
fails on any stage slower than the committed baseline by more than a generous
tolerance::

    python -m repro.benchmarks.solvepath --quick --compare BENCH_solvepath.json

A ``--smoke`` mode (small sizes, one repeat) runs inside the tier-1 test flow
(``tests/test_bench_smoke.py``) so the harness itself cannot rot.
"""

from __future__ import annotations

import json
import platform
import time
from typing import Any, Callable

import numpy as np

# Wall-clock seed timings of the stages before the shared-factorization
# solve path landed (PR 1), measured at the default sizes below on the PR's
# build machine.  Kept in the emitted JSON so every report carries its own
# reference point.
SEED_BASELINE_SECONDS = {
    # problem.solve on an assembled problem; the seed had no caches, so its
    # every solve matches today's "qp_solve" stage definition.
    "qp_solve": 2.06e-4,
    "lambda_gcv": 6.0e-4,
    "lambda_kfold": 5.13e-2,
    "bootstrap": 7.03e-1,
    "kernel_build": 8.7e-3,
}

# Timings of the PR 1 solve path at the default sizes (same machine), before
# the batched CV / kernel / multi-species layer (PR 2) landed: the stages
# that existed are PR 1's committed BENCH_solvepath.json numbers, the
# fit_many stages were measured by running this workload against the PR 1
# tree.  They anchor the ``speedup_vs_pr1`` column of every default-size
# report.
PR1_BASELINE_SECONDS = {
    "qp_solve": 3.396e-5,
    "qp_solve_warm": 2.669e-5,
    "problem_assembly_cold": 3.487e-3,
    "lambda_gcv": 2.256e-4,
    "lambda_kfold": 1.450e-2,
    "bootstrap": 1.316e-2,
    "kernel_build": 7.877e-3,
    "fit_many_gcv": 4.345e-3,
    "fit_many_kfold": 1.190e-1,
}

# Timings of the PR 2 batched CV / kernel / multi-species layer at the
# default sizes (same machine): the values of PR 2's committed
# BENCH_solvepath.json.  They anchor the ``speedup_vs_pr2`` column, i.e. what
# the batched multi-RHS engine and the fused kernel build (PR 3) bought.
PR2_BASELINE_SECONDS = {
    "qp_solve": 3.622e-5,
    "qp_solve_warm": 2.489e-5,
    "problem_assembly_cold": 3.355e-3,
    "lambda_gcv": 1.574e-4,
    "lambda_kfold": 1.392e-3,
    "bootstrap": 1.297e-2,
    "kernel_build": 3.280e-3,
    "fit_many_gcv": 3.853e-3,
    "fit_many_kfold": 1.753e-2,
}

# Timings of the PR 3 batched multi-RHS / fused-kernel tree at the default
# sizes (same machine): the values of PR 3's committed BENCH_solvepath.json.
# The stages the session layer (PR 4) introduced were measured by running
# their equivalent workload against the PR 3 tree: ``problem_assembly_warm``
# is PR 3's cold assembly (nothing was memoised), ``session_multi_grid`` is
# one fresh Deconvolver + one ``fit`` per grid with pre-built kernels, and
# ``fit_stream`` is the same vectors as individual warm ``fit`` calls.  They anchor the ``speedup_vs_pr3`` column, i.e. what the
# shared assembly pipeline, cross-grid session caches and streaming API
# bought.  ``qp_solve_batch`` was likewise re-measured against the PR 3 tree
# (that solver path is untouched by PR 4); PR 3's committed 8.9e-4 was an
# outlier recorded under machine load.
PR3_BASELINE_SECONDS = {
    "qp_solve": 3.753e-5,
    "qp_solve_warm": 2.666e-5,
    "qp_solve_batch": 1.40e-4,
    "problem_assembly_cold": 3.596e-3,
    "problem_assembly_warm": 3.371e-3,
    "lambda_gcv": 1.656e-4,
    "lambda_kfold": 9.078e-4,
    "bootstrap": 2.171e-3,
    "kernel_build": 3.699e-3,
    "fit_many_gcv": 2.909e-3,
    "fit_many_kfold": 1.000e-2,
    "session_multi_grid": 3.388e-2,
    "fit_stream": 4.260e-3,
}

# Timings of the PR 4 session/streaming tree at the default sizes (same
# machine): the values of PR 4's committed BENCH_solvepath.json.  The
# ``service_throughput`` entry is the equivalent workload run against the
# PR 4 tree — the same seeded 320-request mix as one-request-at-a-time warm
# ``Deconvolver.fit`` calls (PR 4 had no service runtime, so one-at-a-time is
# exactly what a service caller got).  They anchor the ``speedup_vs_pr4``
# column, i.e. what the micro-batching service runtime (scheduler, shard
# pool, result cache) and the lazy-diagnostics result layer bought.
PR4_BASELINE_SECONDS = {
    "qp_solve": 3.374e-5,
    "qp_solve_warm": 2.574e-5,
    "qp_solve_batch": 1.412e-4,
    "problem_assembly_cold": 2.179e-3,
    "problem_assembly_warm": 3.311e-4,
    "lambda_gcv": 1.561e-4,
    "lambda_kfold": 7.888e-4,
    "bootstrap": 1.544e-3,
    "kernel_build": 3.706e-3,
    "fit_many_gcv": 2.882e-3,
    "fit_many_kfold": 1.015e-2,
    "session_multi_grid": 1.562e-3,
    "fit_stream": 1.685e-3,
    "service_throughput": 4.792e-2,
}

# Timings of the PR 5 service-runtime tree at the default sizes (same
# machine): the values of PR 5's committed BENCH_solvepath.json.  They
# anchor the ``speedup_vs_pr5`` column — in this PR chiefly a *regression*
# guard: the SLO admission control, adaptive batching window and breaker
# bookkeeping added to the scheduler must keep ``service_throughput`` within
# a few percent of the PR 5 happy path (no ``service_slo`` entry: PR 5 had
# no deadline/priority machinery to time).
PR5_BASELINE_SECONDS = {
    "qp_solve": 3.383e-5,
    "qp_solve_warm": 2.670e-5,
    "qp_solve_batch": 1.324e-4,
    "problem_assembly_cold": 2.145e-3,
    "problem_assembly_warm": 3.487e-4,
    "lambda_gcv": 1.666e-4,
    "lambda_kfold": 8.700e-4,
    "bootstrap": 1.516e-3,
    "kernel_build": 3.787e-3,
    "fit_many_gcv": 1.413e-3,
    "fit_many_kfold": 9.490e-3,
    "session_multi_grid": 1.245e-3,
    "fit_stream": 7.192e-4,
    "service_throughput": 9.532e-3,
}

# Timings of the PR 6 SLO/fault-injection tree at the default sizes (same
# machine): the values of PR 6's committed BENCH_solvepath.json.  They
# anchor the ``speedup_vs_pr6`` column — what the pluggable kernel-backend
# layer bought.  Under the numpy reference (the default) the dispatch must
# cost ~nothing, so this column doubles as the dispatch-overhead guard.
PR6_BASELINE_SECONDS = {
    "qp_solve": 4.749e-5,
    "qp_solve_warm": 2.515e-5,
    "qp_solve_batch": 2.105e-4,
    "problem_assembly_cold": 3.270e-3,
    "problem_assembly_warm": 5.916e-4,
    "lambda_gcv": 2.928e-4,
    "lambda_kfold": 1.677e-3,
    "bootstrap": 2.156e-3,
    "kernel_build": 5.436e-3,
    "fit_many_gcv": 2.005e-3,
    "fit_many_kfold": 1.320e-2,
    "session_multi_grid": 2.495e-3,
    "fit_stream": 1.716e-3,
    "service_throughput": 1.551e-2,
    "service_slo": 2.186e-2,
}

# Timings of the PR 8 network-edge tree (which also carries PR 7's pluggable
# kernel-backend dispatch — PR 7 never refreshed the committed baseline, so
# its anchor and PR 8's are one snapshot) at the default sizes (same
# machine): the values of PR 8's committed BENCH_solvepath.json.  They
# anchor the ``speedup_vs_pr8`` column — what the cross-lambda stacked
# eig-solve bought; it shows up in ``service_throughput`` (mixed-lambda
# micro-batches collapse to one LAPACK call).
PR8_BASELINE_SECONDS = {
    "qp_solve": 5.321e-5,
    "qp_solve_warm": 4.239e-5,
    "qp_solve_batch": 2.368e-4,
    "problem_assembly_cold": 3.270e-3,
    "problem_assembly_warm": 5.044e-4,
    "lambda_gcv": 2.696e-4,
    "lambda_kfold": 1.482e-3,
    "bootstrap": 2.309e-3,
    "kernel_build": 5.239e-3,
    "fit_many_gcv": 2.662e-3,
    "fit_many_kfold": 1.672e-2,
    "session_multi_grid": 2.130e-3,
    "fit_stream": 1.270e-3,
    "service_throughput": 1.927e-2,
    "service_slo": 2.787e-2,
}

DEFAULT_CONFIG = {
    "num_cells": 6000,
    "phase_bins": 80,
    "num_times": 16,
    "num_basis": 14,
    "num_replicates": 50,
    "lambda_count": 13,
    "num_species": 8,
    "num_grids": 4,
    "num_stream": 32,
    "num_service": 320,
    "repeats": 5,
}

SMOKE_CONFIG = {
    "num_cells": 800,
    "phase_bins": 30,
    "num_times": 8,
    "num_basis": 8,
    "num_replicates": 4,
    "lambda_count": 5,
    "num_species": 3,
    "num_grids": 2,
    "num_stream": 6,
    "num_service": 12,
    "repeats": 1,
}

# CI sizes: the default workload (so stages are comparable against the
# committed baseline) with fewer repeats to keep the job short.
QUICK_REPEATS = 2


def _time(function: Callable[[], Any], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``function()``."""
    best = np.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return float(best)


def run_solvepath_benchmark(
    *,
    num_cells: int = DEFAULT_CONFIG["num_cells"],
    phase_bins: int = DEFAULT_CONFIG["phase_bins"],
    num_times: int = DEFAULT_CONFIG["num_times"],
    num_basis: int = DEFAULT_CONFIG["num_basis"],
    num_replicates: int = DEFAULT_CONFIG["num_replicates"],
    lambda_count: int = DEFAULT_CONFIG["lambda_count"],
    num_species: int = DEFAULT_CONFIG["num_species"],
    num_grids: int = DEFAULT_CONFIG["num_grids"],
    num_stream: int = DEFAULT_CONFIG["num_stream"],
    num_service: int = DEFAULT_CONFIG["num_service"],
    repeats: int = DEFAULT_CONFIG["repeats"],
    rng: int = 0,
) -> dict:
    """Time every solve-path stage once and return the report dictionary.

    Stages (seconds each):

    * ``kernel_build`` -- batched ``build_from_history`` on a shared
      population history (memoised pair expansion, Horner volume pass).
    * ``problem_assembly_cold`` -- fresh problem assembly (design, penalty,
      constraint rows) plus one solve with the module-level assembly memos
      cleared first: the genuinely cold path, whose remaining win is the
      shared ``AssemblyContext`` (one quadrature + one basis table pass for
      the whole constraint stack instead of one per constraint).
    * ``problem_assembly_warm`` -- the same fresh assembly with the memos
      warm: the constraint tables and penalty Gram come from the
      module-level caches, so only the design products and the solve remain.
    * ``session_multi_grid`` -- one fit on each of ``num_grids`` measurement
      grids through a fresh ``FitSession`` with pre-registered kernels: the
      per-fit work matches the cold stage's (one assembly, one solve), so
      the number is directly comparable to ``problem_assembly_cold *
      num_grids`` — per-grid assembly rides the warm memos and the shared
      constraint rows, amortising it to near zero.
    * ``fit_stream`` -- ``num_stream`` measurement vectors submitted one at
      a time to a warm session and flushed once: the streaming API's
      amortised multi-RHS cost versus one ``fit`` per vector.
    * ``qp_solve`` -- ``problem.solve`` on an assembled problem through the
      per-lambda cached Hessian/Cholesky workspace (the seed solver
      refactorized here on every call).
    * ``qp_solve_warm`` -- workspace solve warm-started with the previous
      solution and active set.
    * ``qp_solve_batch`` -- one stacked multi-RHS ``solve_batch`` over
      ``num_replicates`` gradients sharing the per-lambda factorization
      (whole batch, not per row).
    * ``lambda_gcv`` -- eigendecomposition GCV over the lambda grid.
    * ``lambda_kfold`` -- k-fold CV through the per-fold generalised
      eigendecomposition plan.  With best-of-``repeats`` timing the plan is
      cached after the first repeat, so this measures the *warm* CV call:
      diagonal rescales plus the batched KKT verification of the remembered
      active sets, with constrained solves only where the sets changed.
    * ``bootstrap`` -- residual bootstrap through the batched engine (all
      replicates as one multi-RHS solve seeded with the base fit's active
      set).
    * ``fit_many_gcv`` / ``fit_many_kfold`` -- multi-species batch of
      ``num_species`` fits sharing one workspace and the lambda grid's
      eigendecompositions/fold plans across species; final solves run
      through the batched engine grouped by selected lambda.
    * ``service_throughput`` -- the seeded mixed service workload
      (``num_service`` requests over the session grids: mixed genes, noise
      levels, smoothing settings, 30% bit-exact repeats, 5% automatic
      selection) pushed through the micro-batching scheduler
      (``repro.service``) on a warm pool.  The report's ``service`` section
      carries the serial one-request-at-a-time reference timing, the
      speedup, the coalescing factor, p95 latency and the verified maximum
      coefficient gap against direct fits.
    * ``service_slo`` -- the same request count reshaped by the ``hotkey``
      chaos scenario (traffic sharded over four pool configurations with one
      taking ~90%, half the requests carrying deadlines, mixed priorities)
      through the SLO-aware scheduler.  The report's ``service_slo`` section
      carries the shed rate, deadline-miss rate, p95 latency and the SLO
      verdict — the cost and behaviour of the admission-control machinery
      under skewed traffic.
    """
    from repro import backends as kernel_backends
    from repro.cellcycle.kernel import KernelBuilder
    from repro.cellcycle.parameters import CellCycleParameters
    from repro.cellcycle.population import PopulationSimulator
    from repro.core.basis import SplineBasis
    from repro.core.constraints import clear_assembly_caches, default_constraints
    from repro.core.deconvolver import Deconvolver
    from repro.core.forward import ForwardModel
    from repro.core.lambda_selection import (
        default_lambda_grid,
        generalized_cross_validation,
        k_fold_cross_validation,
    )
    from repro.core.problem import DeconvolutionProblem
    from repro.core.uncertainty import bootstrap_deconvolution
    from repro.data.synthetic import ftsz_like_profile

    parameters = CellCycleParameters()
    times = np.linspace(0.0, 150.0, int(num_times))
    builder = KernelBuilder(
        parameters, num_cells=int(num_cells), phase_bins=int(phase_bins)
    )
    simulator = PopulationSimulator(
        parameters, builder.volume_model, builder.initial_condition
    )
    history = simulator.run(int(num_cells), float(times.max()), rng)
    kernel = builder.build_from_history(history, times, simulator)
    truth = ftsz_like_profile()
    measurements = kernel.apply_function(truth)
    basis = SplineBasis(num_basis=int(num_basis))
    lambdas = default_lambda_grid(int(lambda_count))

    def fresh_problem() -> DeconvolutionProblem:
        return DeconvolutionProblem(
            ForwardModel(kernel, basis),
            measurements,
            constraints=default_constraints(),
            parameters=parameters,
        )

    stages: dict[str, float] = {}
    stages["kernel_build"] = _time(
        lambda: builder.build_from_history(history, times, simulator), repeats
    )

    lam = 1e-3

    def cold_assembly() -> None:
        # Cold constraint assembly: drop the module-level memos so every
        # repeat re-pays the quadrature and basis tables (the shared
        # AssemblyContext still serves all three constraints — the stage's
        # remaining win over PR 3).  The penalty Gram rides the shared
        # ``basis`` instance's own cache, exactly as in the PR 1-3 stage
        # definition, so the timing stays comparable across baselines.
        clear_assembly_caches()
        fresh_problem().solve(lam, backend="active_set")

    stages["problem_assembly_cold"] = _time(cold_assembly, repeats)

    fresh_problem()  # warm the module-level assembly memos
    stages["problem_assembly_warm"] = _time(
        lambda: fresh_problem().solve(lam, backend="active_set"), repeats
    )
    problem = fresh_problem()
    base = problem.solve(lam, backend="active_set")
    stages["qp_solve"] = _time(
        lambda: problem.solve(lam, backend="active_set"), repeats
    )
    stages["qp_solve_warm"] = _time(
        lambda: problem.solve(
            lam, backend="active_set", x0=base.x, active_set=base.active_set
        ),
        repeats,
    )
    batch_rng = np.random.default_rng(3)
    replicate_matrix = measurements[:, None] + 0.01 * batch_rng.normal(
        size=(measurements.size, int(num_replicates))
    )
    stages["qp_solve_batch"] = _time(
        lambda: problem.solve_batch(
            lam, replicate_matrix, shared_active_set=base.active_set
        ),
        repeats,
    )

    stages["lambda_gcv"] = _time(
        lambda: generalized_cross_validation(problem, lambdas), repeats
    )
    stages["lambda_kfold"] = _time(
        lambda: k_fold_cross_validation(
            problem, lambdas, num_folds=min(5, int(num_times)), backend="auto", rng=0
        ),
        repeats,
    )

    deconvolver = Deconvolver(kernel, parameters=parameters, num_basis=int(num_basis))
    stages["bootstrap"] = _time(
        lambda: bootstrap_deconvolution(
            deconvolver,
            times,
            measurements,
            lam=lam,
            num_replicates=int(num_replicates),
            rng=0,
        ),
        repeats,
    )

    # Multi-species batch: scaled copies of the base series with seeded noise.
    species_rng = np.random.default_rng(7)
    matrix = np.column_stack(
        [
            measurements * (1.0 + 0.2 * species)
            + 0.01 * species_rng.normal(size=measurements.size)
            for species in range(int(num_species))
        ]
    )
    batch_deconvolver = Deconvolver(
        kernel, parameters=parameters, num_basis=int(num_basis)
    )
    stages["fit_many_gcv"] = _time(
        lambda: batch_deconvolver.fit_many(times, matrix, lambda_method="gcv"),
        repeats,
    )
    stages["fit_many_kfold"] = _time(
        lambda: batch_deconvolver.fit_many(times, matrix, lambda_method="kfold"),
        repeats,
    )

    # Session stage: one experiment spanning several measurement time grids,
    # one fit per grid — the per-fit work is exactly the cold stage's (one
    # assembly, one solve), so the timing is directly comparable to
    # ``problem_assembly_cold * num_grids``.  Kernels are pre-built (from the
    # shared history) and registered, and the deconvolver is constructed in
    # the setup, so the stage isolates what a fresh session amortises: warm
    # per-grid assembly plus the batched solves.
    grids_per_session = max(1, int(num_grids))
    session_grids = [
        np.linspace(0.0, 150.0 - 5.0 * index, int(num_times))
        for index in range(grids_per_session)
    ]
    session_kernels = [kernel] + [
        builder.build_from_history(history, grid, simulator)
        for grid in session_grids[1:]
    ]
    grid_rng = np.random.default_rng(13)
    session_vectors = [
        grid_kernel.apply_function(truth)
        + 0.01 * grid_rng.normal(size=grid_kernel.num_measurements)
        for grid_kernel in session_kernels
    ]
    session_deconvolver = Deconvolver(parameters=parameters, num_basis=int(num_basis))

    def run_session_multi_grid() -> None:
        session = session_deconvolver.session(fresh=True)
        for grid_kernel in session_kernels:
            session.register_kernel(grid_kernel)
        for grid, vector in zip(session_grids, session_vectors):
            session.submit(grid, vector, lam=lam)
        session.flush()

    run_session_multi_grid()  # warm the assembly/penalty memos
    stages["session_multi_grid"] = _time(run_session_multi_grid, repeats)

    # Streaming: vectors arrive one at a time on a warm session and are
    # flushed through one stacked multi-RHS solve.
    stream_rng = np.random.default_rng(17)
    stream_vectors = measurements[None, :] + 0.01 * stream_rng.normal(
        size=(max(2, int(num_stream)), measurements.size)
    )
    stream_session = Deconvolver(
        kernel, parameters=parameters, num_basis=int(num_basis)
    ).session()
    stream_session.submit(times, stream_vectors[0], lam=lam)
    stream_session.flush()

    def run_fit_stream() -> None:
        for vector in stream_vectors:
            stream_session.submit(times, vector, lam=lam)
        stream_session.flush()

    stages["fit_stream"] = _time(run_fit_stream, repeats)

    # Service throughput: the seeded mixed workload through the
    # micro-batching scheduler on a warm session pool, versus the same
    # requests as one-at-a-time ``fit`` calls.  The result cache is cleared
    # inside the timed function so within-workload repeats hit (that is the
    # service's job) but nothing leaks across repeats.
    from repro.service import (
        MicroBatchScheduler,
        SessionPool,
        WorkloadSpec,
        build_workload,
        max_coefficient_gap,
        serial_reference,
        warm_serial_reference,
    )

    def service_factory(_key) -> Deconvolver:
        service_deconvolver = Deconvolver(parameters=parameters, num_basis=int(num_basis))
        service_session = service_deconvolver.session()
        for grid_kernel in session_kernels:
            service_session.register_kernel(grid_kernel)
        return service_deconvolver

    workload = build_workload(
        session_kernels,
        WorkloadSpec(
            num_requests=max(2, int(num_service)),
            repeat_ratio=0.3,
            selection_fraction=0.05,
            seed=23,
        ),
    )
    scheduler = MicroBatchScheduler(
        SessionPool(service_factory), max_batch=64, workers=2
    )
    scheduler.map(workload)  # warm the pool's kernels/assembly/factorizations

    def run_service() -> None:
        scheduler.cache.clear()
        scheduler.map(workload)

    stages["service_throughput"] = _time(run_service, repeats)
    service_reference = service_factory("serial-reference")
    warm_serial_reference(service_reference, workload)
    serial_results: list = []

    def run_serial() -> None:
        serial_results[:] = serial_reference(service_reference, workload)

    service_serial = _time(run_serial, repeats)
    scheduler.cache.clear()
    scheduler.telemetry.reset()
    service_results = scheduler.map(workload)
    service_snapshot = scheduler.telemetry.snapshot()
    scheduler.shutdown()
    service_gap = max_coefficient_gap(service_results, serial_results)
    service_report = {
        "requests": len(workload),
        "serial_seconds": service_serial,
        "speedup_vs_serial": round(service_serial / stages["service_throughput"], 2),
        "throughput_rps": round(len(workload) / stages["service_throughput"], 1),
        "coalescing_factor": round(service_snapshot["coalescing_factor"], 2),
        "p95_latency_ms": round(
            service_snapshot["histograms"]["latency_seconds"]["p95"] * 1e3, 3
        ),
        "max_coefficient_gap": service_gap,
    }

    # Service SLO: the hotkey chaos scenario (sharded traffic, one hot
    # shard, deadlines and priorities on half the requests) through the
    # SLO-aware scheduler.  Futures resolving with typed shed/deadline
    # errors are part of the contract, so the timed loop waits on
    # ``exception()`` instead of ``result()``.
    from repro.service.loadgen import SCENARIOS, apply_scenario, evaluate_slo

    slo_scenario = SCENARIOS["hotkey"]
    slo_workload = apply_scenario(workload, slo_scenario, seed=23)
    slo_scheduler = MicroBatchScheduler(
        SessionPool(service_factory), max_batch=64, workers=2
    )

    def run_service_slo() -> None:
        slo_scheduler.cache.clear()
        for future in slo_scheduler.submit_many(slo_workload):
            future.exception()

    run_service_slo()  # warm every shard the skewed traffic addresses
    stages["service_slo"] = _time(run_service_slo, repeats)
    slo_scheduler.cache.clear()
    slo_scheduler.telemetry.reset()
    run_service_slo()
    slo_snapshot = slo_scheduler.telemetry.snapshot()
    slo_scheduler.shutdown()
    slo_verdict = evaluate_slo(slo_snapshot, slo_scenario.slo)
    slo_report = {
        "scenario": slo_scenario.name,
        "requests": len(slo_workload),
        "shed_rate": round(slo_snapshot["shed_rate"], 4),
        "deadline_miss_rate": round(slo_snapshot["deadline_miss_rate"], 4),
        "p95_latency_ms": round(
            slo_snapshot["histograms"]["latency_seconds"]["p95"] * 1e3, 3
        ),
        "errors": slo_snapshot["counters"].get("errors", 0),
        "slo_passed": bool(slo_verdict["passed"]),
    }

    config = {
        "num_cells": int(num_cells),
        "phase_bins": int(phase_bins),
        "num_times": int(num_times),
        "num_basis": int(num_basis),
        "num_replicates": int(num_replicates),
        "lambda_count": int(lambda_count),
        "num_species": int(num_species),
        "num_grids": int(num_grids),
        "num_stream": int(num_stream),
        "num_service": int(num_service),
        "repeats": int(repeats),
    }
    is_default = all(config[key] == DEFAULT_CONFIG[key] for key in DEFAULT_CONFIG if key != "repeats")

    def baseline_speedups(baseline: dict[str, float]) -> dict[str, float] | None:
        if not is_default:
            return None
        speedups = {
            stage: round(seconds / stages[stage], 2)
            for stage, seconds in baseline.items()
            if stages.get(stage, 0.0) > 0.0
        }
        return speedups or None

    backend_report = {
        "active": kernel_backends.active_backend().name,
        "requested": kernel_backends.requested_backend(),
    }

    return {
        "benchmark": "solvepath",
        "config": config,
        "backend": backend_report,
        "stages_seconds": stages,
        "service": service_report,
        "service_slo": slo_report,
        "seed_baseline_seconds": SEED_BASELINE_SECONDS if is_default else None,
        "speedup_vs_seed": baseline_speedups(SEED_BASELINE_SECONDS),
        "pr1_baseline_seconds": PR1_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr1": baseline_speedups(PR1_BASELINE_SECONDS),
        "pr2_baseline_seconds": PR2_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr2": baseline_speedups(PR2_BASELINE_SECONDS),
        "pr3_baseline_seconds": PR3_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr3": baseline_speedups(PR3_BASELINE_SECONDS),
        "pr4_baseline_seconds": PR4_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr4": baseline_speedups(PR4_BASELINE_SECONDS),
        "pr5_baseline_seconds": PR5_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr5": baseline_speedups(PR5_BASELINE_SECONDS),
        "pr6_baseline_seconds": PR6_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr6": baseline_speedups(PR6_BASELINE_SECONDS),
        "pr8_baseline_seconds": PR8_BASELINE_SECONDS if is_default else None,
        "speedup_vs_pr8": baseline_speedups(PR8_BASELINE_SECONDS),
        "platform": platform.platform(),
    }


def write_baseline(report: dict, path: str) -> None:
    """Write a benchmark report as indented JSON."""
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def format_report(report: dict) -> str:
    """Human-readable per-stage summary of a report.

    Each stage line carries a backend column: the kernel backend the stage
    executed on (the report's active backend).
    """
    lines = [f"solvepath benchmark ({report['config']})"]
    backend = report.get("backend") or {}
    active_name = backend.get("active", "numpy")
    if backend:
        lines.append(
            f"  backend: active {active_name!r}, "
            f"requested {backend.get('requested', active_name)!r}"
        )
    seed_speedups = report.get("speedup_vs_seed") or {}
    pr1_speedups = report.get("speedup_vs_pr1") or {}
    pr2_speedups = report.get("speedup_vs_pr2") or {}
    pr3_speedups = report.get("speedup_vs_pr3") or {}
    pr4_speedups = report.get("speedup_vs_pr4") or {}
    pr5_speedups = report.get("speedup_vs_pr5") or {}
    pr6_speedups = report.get("speedup_vs_pr6") or {}
    pr8_speedups = report.get("speedup_vs_pr8") or {}
    for stage, seconds in sorted(report["stages_seconds"].items()):
        line = f"  {stage:26s} {seconds * 1e3:10.3f} ms  [{active_name}]"
        if stage in seed_speedups:
            line += f"   ({seed_speedups[stage]:.1f}x vs seed)"
        if stage in pr1_speedups:
            line += f"   ({pr1_speedups[stage]:.1f}x vs PR1)"
        if stage in pr2_speedups:
            line += f"   ({pr2_speedups[stage]:.1f}x vs PR2)"
        if stage in pr3_speedups:
            line += f"   ({pr3_speedups[stage]:.1f}x vs PR3)"
        if stage in pr4_speedups:
            line += f"   ({pr4_speedups[stage]:.1f}x vs PR4)"
        if stage in pr5_speedups:
            line += f"   ({pr5_speedups[stage]:.1f}x vs PR5)"
        if stage in pr6_speedups:
            line += f"   ({pr6_speedups[stage]:.1f}x vs PR6)"
        if stage in pr8_speedups:
            line += f"   ({pr8_speedups[stage]:.1f}x vs PR8)"
        lines.append(line)
    service = report.get("service")
    if service:
        lines.append(
            "  service: {requests} requests, {speedup_vs_serial:.2f}x vs one-at-a-time "
            "({throughput_rps:.0f} rps, coalescing {coalescing_factor:.1f}, "
            "p95 {p95_latency_ms:.2f} ms, max gap {max_coefficient_gap:.1e})".format(**service)
        )
    slo = report.get("service_slo")
    if slo:
        lines.append(
            "  service_slo ({scenario}): {requests} requests, shed {shed_rate:.1%}, "
            "deadline misses {deadline_miss_rate:.1%}, p95 {p95_latency_ms:.2f} ms, "
            "SLO {verdict}".format(
                verdict="pass" if slo["slo_passed"] else "FAIL", **slo
            )
        )
    return "\n".join(lines)


def compare_reports(
    report: dict, baseline: dict, *, tolerance: float = 3.0, min_seconds: float = 1e-3
) -> tuple[bool, str]:
    """Per-stage regression check of a report against a committed baseline.

    A stage regresses when it is slower than
    ``tolerance * max(baseline, min_seconds)``: the ratio tolerance absorbs
    machine-to-machine differences, and the ``min_seconds`` floor keeps
    microsecond-scale stages (whose absolute timings on a noisy shared CI
    runner can legitimately exceed any fixed ratio of a fast reference
    machine) from tripping the gate — those stages only fail once they cross
    ``tolerance * min_seconds`` outright.  Stages missing from the
    *baseline* are listed but do not fail the check (new stages appear
    before their baseline is refreshed); stages the baseline has but the
    current run lacks DO fail it — a stage silently dropping out of the
    benchmark is itself a regression in coverage.

    Returns ``(ok, table)`` with a readable per-stage diff table.
    """
    if tolerance <= 1.0:
        raise ValueError("tolerance must be greater than 1.0")
    stages = report.get("stages_seconds", {})
    reference = baseline.get("stages_seconds", {})
    lines = [
        f"{'stage':26s} {'current':>12s} {'baseline':>12s} {'ratio':>8s}  verdict",
    ]
    ok = True
    for stage in sorted(set(stages) | set(reference)):
        current = stages.get(stage)
        base = reference.get(stage)
        if current is None:
            ok = False
            lines.append(f"{stage:26s} {'-':>12s} {base * 1e3:10.3f} ms {'-':>8s}  REGRESSION (stage missing from current run)")
            continue
        if base is None:
            lines.append(f"{stage:26s} {current * 1e3:10.3f} ms {'-':>12s} {'-':>8s}  missing in baseline (ignored)")
            continue
        ratio = current / base if base > 0 else float("inf")
        verdict = "ok"
        if current > tolerance * max(base, min_seconds):
            verdict = f"REGRESSION (> {tolerance:.1f}x)"
            ok = False
        elif ratio > tolerance:
            verdict = "ok (below floor)"
        lines.append(
            f"{stage:26s} {current * 1e3:10.3f} ms {base * 1e3:10.3f} ms {ratio:7.2f}x  {verdict}"
        )
    report_config = {k: v for k, v in report.get("config", {}).items() if k != "repeats"}
    baseline_config = {k: v for k, v in baseline.get("config", {}).items() if k != "repeats"}
    if report_config != baseline_config:
        lines.append(
            "note: config differs from baseline "
            f"({report_config} vs {baseline_config}); ratios are not comparable"
        )
    return ok, "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.benchmarks.solvepath``."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="small sizes, one repeat")
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"default sizes with {QUICK_REPEATS} repeats (the CI bench gate)",
    )
    parser.add_argument("--output", default=None, help="write the JSON report here")
    parser.add_argument("--repeats", type=int, default=None, help="override repeat count")
    parser.add_argument(
        "--compare",
        default=None,
        metavar="BASELINE_JSON",
        help="compare per-stage timings against a committed baseline report",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=3.0,
        help="slowdown factor at which --compare fails a stage (default 3.0)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=1e-3,
        help="baseline floor in seconds for the --compare gate; stages faster "
        "than this only fail once they exceed tolerance * floor (default 1e-3)",
    )
    args = parser.parse_args(argv)
    if args.smoke and args.quick:
        parser.error("--smoke and --quick are mutually exclusive")

    config = dict(SMOKE_CONFIG if args.smoke else DEFAULT_CONFIG)
    if args.quick:
        config["repeats"] = QUICK_REPEATS
    if args.repeats is not None:
        config["repeats"] = args.repeats
    report = run_solvepath_benchmark(**config)
    print(format_report(report))
    if args.output:
        write_baseline(report, args.output)
        print(f"wrote {args.output}")
    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        ok, table = compare_reports(
            report, baseline, tolerance=args.tolerance, min_seconds=args.floor
        )
        print(f"\nbench regression gate vs {args.compare} (tolerance {args.tolerance:.1f}x):")
        print(table)
        if not ok:
            print("FAILED: at least one stage regressed beyond tolerance")
            return 1
        print("ok: no stage regressed beyond tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
