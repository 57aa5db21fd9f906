"""Command-line interface for running the paper's experiments.

Usage::

    python -m repro.cli figure2 [--noise 0.1] [--cells 8000] [--seed 42]
    python -m repro.cli figure3 [--realisations 3] [--cells 8000] [--seed 7]
    python -m repro.cli figure4
    python -m repro.cli figure5 [--output profile.csv]
    python -m repro.cli sensitivity
    python -m repro.cli ablations [--study volume|constraints|lambda|all]
    python -m repro.cli serve-bench [--requests 96] [--grids 2] [--verbose]
    python -m repro.cli serve-bench --http [--http-clients 4]
    python -m repro.cli serve [--host 127.0.0.1] [--port 8732]

Each sub-command runs the corresponding experiment driver — all of which
route their fits through the experiment-scoped ``FitSession`` layer — and
prints the series / metrics that the paper figure reports.  ``figure5`` can
additionally write the deconvolved profile to CSV.  ``serve-bench`` load
tests the micro-batching fit service (``repro.service``) against
one-request-at-a-time fits and verifies every response to 1e-10; with
``--http`` the same workload travels over real sockets through the network
edge (``repro.service.net``) and the same gate applies end to end.
``serve`` runs that network edge in the foreground (the HTTP fit routes
plus the ``/healthz`` / ``/metrics`` / ``/pool`` ops routes) until
interrupted.
"""

from __future__ import annotations

import argparse
from typing import Sequence

import numpy as np

from repro import config
from repro.cellcycle.celltypes import CellType
from repro.data.io import save_profile_csv
from repro.data.timeseries import PhaseProfile
from repro.experiments.ablations import (
    run_constraint_ablation,
    run_lambda_ablation,
    run_volume_model_ablation,
)
from repro.experiments.figure2 import run_oscillator_experiment
from repro.experiments.figure3 import run_noisy_oscillator_experiment
from repro.experiments.figure4 import run_celltype_experiment
from repro.experiments.figure5 import run_ftsz_experiment
from repro.experiments.reporting import format_series, format_table
from repro.experiments.sensitivity import run_mu_sst_sensitivity
from repro.viz.ascii import ascii_compare


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="In silico synchronization of cellular populations (DAC 2011 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    oscillator = subparsers.add_parser("figure2", help="Lotka-Volterra oscillator deconvolution")
    oscillator.add_argument("--noise", type=float, default=0.0, help="noise fraction (0.1 for Figure 3)")
    oscillator.add_argument("--cells", type=int, default=8000, help="Monte-Carlo founder cells")
    oscillator.add_argument("--seed", type=int, default=42, help="random seed")
    oscillator.add_argument("--plot", action="store_true", help="also print an ASCII plot")

    noisy = subparsers.add_parser(
        "figure3", help="noisy oscillator deconvolution, aggregated over noise realisations"
    )
    noisy.add_argument("--noise", type=float, default=0.10, help="noise fraction")
    noisy.add_argument("--realisations", type=int, default=3, help="independent noise realisations")
    noisy.add_argument("--cells", type=int, default=8000, help="Monte-Carlo founder cells")
    noisy.add_argument("--seed", type=int, default=7, help="random seed")

    subparsers.add_parser("figure4", help="cell-type distribution vs reference")

    ftsz = subparsers.add_parser("figure5", help="ftsZ population vs deconvolved expression")
    ftsz.add_argument("--cells", type=int, default=10_000, help="Monte-Carlo founder cells")
    ftsz.add_argument("--seed", type=int, default=2011, help="random seed")
    ftsz.add_argument("--output", type=str, default=None, help="write the deconvolved profile to this CSV")

    sensitivity = subparsers.add_parser(
        "sensitivity", help="sensitivity of the recovery to the assumed SW-to-ST transition phase"
    )
    sensitivity.add_argument("--cells", type=int, default=4000, help="Monte-Carlo founder cells")
    sensitivity.add_argument("--seed", type=int, default=17, help="random seed")

    ablations = subparsers.add_parser(
        "ablations", help="volume-model / constraint / lambda ablation studies"
    )
    ablations.add_argument(
        "--study",
        choices=["volume", "constraints", "lambda", "all"],
        default="all",
        help="which ablation study to run",
    )
    ablations.add_argument("--cells", type=int, default=6000, help="Monte-Carlo founder cells")
    ablations.add_argument("--seed", type=int, default=5, help="random seed")

    serve = subparsers.add_parser(
        "serve-bench",
        help="micro-batching fit service benchmark (scheduler vs one-request-at-a-time fits)",
    )
    serve.add_argument("--requests", type=int, default=96, help="requests in the seeded workload")
    serve.add_argument("--cells", type=int, default=3000, help="Monte-Carlo founder cells per kernel")
    serve.add_argument("--grids", type=int, default=2, help="distinct measurement time grids")
    serve.add_argument("--seed", type=int, default=0, help="workload seed")
    serve.add_argument("--repeat-ratio", type=float, default=0.3,
                       help="fraction of requests that bit-exactly repeat an earlier one")
    serve.add_argument("--selection-fraction", type=float, default=0.05,
                       help="fraction of fresh requests using automatic lambda selection")
    serve.add_argument("--workers", type=int, default=2, help="scheduler worker threads")
    serve.add_argument(
        "--scenario",
        choices=["all", "steady", "bursty", "heavy_tail", "hotkey",
                 "cache_hostile", "slow_consumer"],
        default=None,
        help="run the chaos scenario suite (deadlines, priorities, skew) instead of "
             "the plain throughput benchmark; 'all' runs every scenario",
    )
    serve.add_argument("--faults", action="store_true",
                       help="arm each scenario's seeded fault plan (solver errors, slow "
                            "solves, build failures, cache evictions)")
    serve.add_argument("--verbose", action="store_true",
                       help="also print pool / session / cache / telemetry stats")
    serve.add_argument("--http", action="store_true",
                       help="drive the workload over real sockets through the network edge "
                            "(HTTP front end) instead of in-process submits; the same "
                            "1e-10 equivalence gate applies end to end")
    serve.add_argument("--http-clients", type=int, default=4,
                       help="concurrent HTTP client threads for --http")

    server = subparsers.add_parser(
        "serve",
        help="run the fit service network edge (HTTP) in the foreground",
    )
    server.add_argument("--host", type=str, default=config.DEFAULT_NET_HOST,
                        help="bind host (loopback by default)")
    server.add_argument("--port", type=int, default=config.DEFAULT_NET_PORT,
                        help="bind TCP port (0 picks an ephemeral port)")
    server.add_argument("--cells", type=int, default=3000,
                        help="Monte-Carlo founder cells per kernel")
    server.add_argument("--grids", type=int, default=2,
                        help="distinct measurement time grids to register")
    server.add_argument("--workers", type=int, default=2, help="scheduler worker threads")
    return parser


def _run_figure2(args: argparse.Namespace) -> int:
    result = run_oscillator_experiment(
        noise_fraction=args.noise, num_cells=args.cells, rng=args.seed
    )
    for name in ("x1", "x2"):
        print(format_series(f"{name} population", result.times, result.population[name],
                            x_label="minutes", y_label="concentration"))
        times, values = result.deconvolved[name].profile_vs_time(19)
        print(format_series(f"{name} deconvolved", times, values,
                            x_label="minutes", y_label="concentration"))
        if args.plot:
            print(ascii_compare(
                {
                    "single cell": (result.times, result.single_cell[name]),
                    "population": (result.times, result.population[name]),
                },
                x_label="minutes", y_label=name,
            ))
    print(format_table(
        ["species", "deconv NRMSE", "improvement", "correlation"],
        [[name, comp.nrmse, comp.improvement_factor, comp.correlation]
         for name, comp in result.comparisons.items()],
    ))
    return 0


def _run_figure3(args: argparse.Namespace) -> int:
    summary = run_noisy_oscillator_experiment(
        noise_fraction=args.noise,
        num_realisations=args.realisations,
        rng=args.seed,
        num_cells=args.cells,
    )
    example = summary.example
    for name, comp in example.comparisons.items():
        print(format_series(f"{name} population (noisy)", example.times,
                            example.population[name],
                            x_label="minutes", y_label="concentration"))
    print(format_table(
        ["species", "mean NRMSE", "mean improvement"],
        [[name, summary.mean_nrmse[name], summary.mean_improvement[name]]
         for name in sorted(summary.mean_nrmse)],
    ))
    print(f"aggregated over {summary.num_realisations} noise realisation(s) "
          f"at {example.noise_fraction:.0%} noise")
    return 0


def _run_ablations(args: argparse.Namespace) -> int:
    if args.study in ("volume", "all"):
        scores = run_volume_model_ablation(num_cells=args.cells, rng=args.seed)
        print(format_table(
            ["volume model", "deconvolution NRMSE"],
            [[name, value] for name, value in scores.items()],
        ))
    if args.study in ("constraints", "all"):
        constraint_scores = run_constraint_ablation(num_cells=args.cells, rng=args.seed + 1)
        print(format_table(
            ["constraint stack", "NRMSE", "negativity"],
            [[name, entry["nrmse"], entry["negativity"]]
             for name, entry in constraint_scores.items()],
        ))
    if args.study in ("lambda", "all"):
        lambda_scores = run_lambda_ablation(num_cells=args.cells, rng=args.seed + 2)
        print(format_table(
            ["smoothing", "deconvolution NRMSE"],
            [[name, value] for name, value in lambda_scores.items()],
        ))
    return 0


def _run_figure4(args: argparse.Namespace) -> int:
    result = run_celltype_experiment()
    rows = []
    for index, time in enumerate(result.simulated.times):
        row = [time]
        row += [result.simulated.fractions[t][index] for t in CellType.ordered()]
        rows.append(row)
    print(format_table(["minutes"] + [t.value for t in CellType.ordered()], rows, precision=3))
    print(f"mean |simulated - reference| = {result.mean_error:.3f}")
    return 0


def _run_figure5(args: argparse.Namespace) -> int:
    result = run_ftsz_experiment(num_cells=args.cells, rng=args.seed)
    series = result.dataset.series
    print(format_series("population ftsZ", series.times, series.values,
                        x_label="minutes", y_label="expression"))
    times, values = result.result.profile_vs_time(21)
    print(format_series("deconvolved ftsZ", times, values,
                        x_label="simulated minutes", y_label="expression"))
    print(f"deconvolved onset phase: {result.deconvolved_onset_phase:.3f} "
          f"(population: {result.population_onset_phase:.3f})")
    if args.output:
        phases, profile_values = result.result.profile_on_grid(201)
        path = save_profile_csv(PhaseProfile(phases, profile_values, name="ftsZ_deconvolved"), args.output)
        print(f"wrote deconvolved profile to {path}")
    return 0


def _build_service_stack(cells: int, grids: int):
    """Build the kernels and the session factory every service command shares.

    Distinct measurement schedules are generated for however many grids were
    asked for (shrinking span and density so every grid is unique); the
    returned :class:`~repro.service.pool.SessionFactory` creates one
    deconvolver per pool shard with every kernel pre-registered.
    """
    from repro.cellcycle.kernel import KernelBuilder
    from repro.cellcycle.parameters import CellCycleParameters
    from repro.service import SessionFactory

    parameters = CellCycleParameters()
    builder = KernelBuilder(parameters, num_cells=cells, phase_bins=60)
    schedules = [
        np.linspace(0.0, 150.0 - 5.0 * index, max(8, 16 - index))
        for index in range(max(1, grids))
    ]
    print(f"Building {len(schedules)} population kernel(s) ({cells} cells each) ...")
    kernels = [builder.build(times, rng=index) for index, times in enumerate(schedules)]
    factory = SessionFactory(parameters=parameters, num_basis=12, kernels=kernels)
    return kernels, factory


def _run_serve_bench(args: argparse.Namespace) -> int:
    import time

    from repro.service import (
        MicroBatchScheduler,
        SessionPool,
        WorkloadSpec,
        build_workload,
        max_coefficient_gap,
        serial_reference,
        warm_serial_reference,
    )

    kernels, factory = _build_service_stack(args.cells, args.grids)

    if args.scenario is not None:
        return _run_serve_scenarios(args, kernels, factory)

    spec = WorkloadSpec(
        num_requests=args.requests,
        repeat_ratio=args.repeat_ratio,
        selection_fraction=args.selection_fraction,
        seed=args.seed,
    )
    workload = build_workload(kernels, spec)
    pool = SessionPool(factory)
    reference = factory("serial-reference")

    if args.http:
        return _run_serve_bench_http(args, workload, pool, reference)

    with MicroBatchScheduler(
        pool,
        workers=args.workers,
    ) as scheduler:
        # Warm both paths so the timed passes measure the steady-state
        # service, not first-request kernel/assembly setup.
        scheduler.map(workload)
        scheduler.cache.clear()
        scheduler.telemetry.reset()
        warm_serial_reference(reference, workload)

        start = time.perf_counter()
        streamed = scheduler.map(workload)
        scheduler_seconds = time.perf_counter() - start
        snapshot = scheduler.telemetry.snapshot()

        start = time.perf_counter()
        references = serial_reference(reference, workload)
        serial_seconds = time.perf_counter() - start

        gap = max_coefficient_gap(streamed, references)
        lambdas_equal = [r.lam for r in streamed] == [r.lam for r in references]
        latency = snapshot["histograms"]["latency_seconds"]
        counters = snapshot["counters"]
        rows = [
            ["requests", float(len(workload))],
            ["scheduler ms", scheduler_seconds * 1e3],
            ["serial ms", serial_seconds * 1e3],
            ["speedup", serial_seconds / scheduler_seconds],
            ["throughput rps", len(workload) / scheduler_seconds],
            ["coalescing factor", snapshot["coalescing_factor"]],
            ["p50 latency ms", latency["p50"] * 1e3],
            ["p95 latency ms", latency["p95"] * 1e3],
            ["p99 latency ms", latency["p99"] * 1e3],
            ["cache hits", float(counters.get("cache_hits", 0))],
            ["deduplicated", float(counters.get("deduplicated", 0))],
            ["max |coef gap|", gap],
        ]
        print(format_table(["metric", "value"], rows))
        if args.verbose:
            print("scheduler stats:")
            stats = scheduler.stats()
            for section in ("pool", "cache"):
                print(f"  {section}: { {k: v for k, v in stats[section].items() if k != 'sessions'} }")
            for key, session_stats in stats["pool"]["sessions"].items():
                print(f"  session {key}: {session_stats}")
            print(f"  telemetry counters: {counters}")
            print(f"  batch size: {snapshot['histograms'].get('batch_size')}")
    if not lambdas_equal:
        print("FAILED: scheduler lambdas deviate from the one-shot fits")
        return 1
    if gap > 1e-10:
        print(f"FAILED: scheduler responses deviate from direct fits by {gap:.2e} (> 1e-10)")
        return 1
    print("ok: every scheduler response matches its one-shot fit to 1e-10 "
          "(exact lambda agreement)")
    return 0


def _run_serve_bench_http(args: argparse.Namespace, workload, pool, reference) -> int:
    """Drive the seeded workload through the network edge over real sockets.

    The workload is split round-robin over ``--http-clients`` threads, each
    holding its own keep-alive :class:`~repro.service.net.FitHTTPClient`;
    every response (decoded from the wire) must match the one-shot serial
    reference to 1e-10 with exact lambda agreement, and the ops routes must
    answer with live data while the load is running.  Exit code 1 on a gap.
    """
    import concurrent.futures
    import time

    from repro.service import MicroBatchScheduler, max_coefficient_gap, serial_reference
    from repro.service.net import FitHTTPClient, WireFit, serve_in_thread

    wires = [WireFit.from_request(request) for request in workload]
    with MicroBatchScheduler(
        pool,
        workers=args.workers,
    ) as scheduler:
        with serve_in_thread(scheduler) as handle:
            print(f"Serving on {handle.host}:{handle.port} "
                  f"({args.http_clients} client thread(s), {len(workload)} requests) ...")

            def run_client(offset: int) -> list[tuple[int, object]]:
                out = []
                with FitHTTPClient(handle.host, handle.port) as client:
                    for index in range(offset, len(wires), args.http_clients):
                        out.append((index, client.fit(wires[index])))
                return out

            start = time.perf_counter()
            with concurrent.futures.ThreadPoolExecutor(args.http_clients) as executor:
                futures = [executor.submit(run_client, i) for i in range(args.http_clients)]
                # Ops routes must answer with live data *while* fits stream.
                with FitHTTPClient(handle.host, handle.port) as ops:
                    health = ops.healthz()
                    metrics = ops.metrics()
                indexed = [pair for future in futures for pair in future.result()]
            http_seconds = time.perf_counter() - start
            results = [result for _index, result in sorted(indexed)]
        snapshot = scheduler.telemetry.snapshot()

    start = time.perf_counter()
    references = serial_reference(reference, workload)
    serial_seconds = time.perf_counter() - start

    gap = max_coefficient_gap(results, references)
    lambdas_equal = [r.lam for r in results] == [r.lam for r in references]
    rows = [
        ["requests", float(len(workload))],
        ["http ms", http_seconds * 1e3],
        ["serial ms", serial_seconds * 1e3],
        ["throughput rps", len(workload) / http_seconds],
        ["coalescing factor", snapshot["coalescing_factor"]],
        ["http requests seen", float(snapshot["counters"].get("net_http_requests", 0))],
        ["max |coef gap|", gap],
    ]
    print(format_table(["metric", "value"], rows))
    if args.verbose:
        print(f"  /healthz during load: {health}")
        print(f"  /metrics counters during load: {metrics['counters']}")
    if health.get("status") != "ok":
        print(f"FAILED: /healthz reported {health!r} under load")
        return 1
    if metrics["counters"].get("net_http_requests", 0) <= 0:
        print("FAILED: /metrics showed no live traffic under load")
        return 1
    if not lambdas_equal:
        print("FAILED: wire lambdas deviate from the one-shot fits")
        return 1
    if gap > 1e-10:
        print(f"FAILED: wire responses deviate from direct fits by {gap:.2e} (> 1e-10)")
        return 1
    print("ok: every wire response matches its one-shot fit to 1e-10 "
          "(exact lambda agreement)")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the network edge in the foreground until interrupted."""
    import asyncio

    from repro.service import MicroBatchScheduler, SessionPool
    from repro.service.net import FitServer

    _kernels, factory = _build_service_stack(args.cells, args.grids)
    pool = SessionPool(factory)

    async def serve() -> None:
        server = FitServer(scheduler, host=args.host, port=args.port)
        await server.start()
        print(f"repro fit service listening on http://{server.host}:{server.port}")
        print("routes: POST /v1/fit  POST /v1/fit/batch  /healthz  /metrics  /pool")
        # Ctrl-C cancels this task; the cancellation must propagate, since
        # only a cancelled main task makes asyncio.run raise
        # KeyboardInterrupt below.
        try:
            await server.serve_forever()
        finally:
            await server.aclose()

    with MicroBatchScheduler(
        pool,
        workers=args.workers,
    ) as scheduler:
        try:
            asyncio.run(serve())
        except KeyboardInterrupt:
            print("shutting down")
    return 0


def _run_serve_scenarios(args: argparse.Namespace, kernels, factory) -> int:
    """Run the chaos scenario suite: SLO-shaped traffic, optional faults.

    Every accepted request must terminate (result, shed, deadline miss or a
    typed error — zero hung futures) and every solved response must match
    the one-shot serial reference to 1e-10; the per-scenario SLO verdict is
    reported alongside.  Exit code 1 on a hang or a bit-exactness gap.
    """
    import concurrent.futures
    import time

    from repro.service import (
        SCENARIOS,
        DeadlineExceeded,
        FaultPlan,
        MicroBatchScheduler,
        RequestShed,
        SessionPool,
        WorkloadSpec,
        max_coefficient_gap,
        serial_reference,
    )
    from repro.service.loadgen import (
        apply_scenario,
        arrival_offsets,
        build_workload,
        evaluate_slo,
    )

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    reference = factory("serial-reference")
    rows = []
    worst_gap = 0.0
    hung_total = 0
    failed_slos = []
    for name in names:
        scenario = SCENARIOS[name]
        print(f"scenario {name}: {scenario.description}")
        spec = WorkloadSpec(
            num_requests=args.requests,
            repeat_ratio=(
                scenario.repeat_ratio
                if scenario.repeat_ratio is not None
                else args.repeat_ratio
            ),
            selection_fraction=args.selection_fraction,
            seed=args.seed,
        )
        workload = apply_scenario(
            build_workload(kernels, spec), scenario, seed=args.seed
        )
        offsets = arrival_offsets(scenario, len(workload), seed=args.seed)
        plan = FaultPlan(scenario.faults) if args.faults else None
        pool = SessionPool(factory if plan is None else plan.wrap_factory(factory))
        with MicroBatchScheduler(
            pool,
            workers=args.workers,
            fault_plan=plan,
        ) as scheduler:
            start = time.perf_counter()
            futures = []
            drained = 0
            for offset, request in zip(offsets, workload):
                delay = float(offset) - (time.perf_counter() - start)
                if delay > 0.0:
                    time.sleep(delay)
                if scenario.client_window > 0:
                    # Slow consumer: cap the submitted-but-unconsumed window,
                    # blocking on the oldest response before submitting more.
                    while len(futures) - drained >= scenario.client_window:
                        concurrent.futures.wait([futures[drained]], timeout=300.0)
                        drained += 1
                futures.append(scheduler.submit(request))
            done, hung = concurrent.futures.wait(futures, timeout=300.0)
            snapshot = scheduler.telemetry.snapshot()
            if args.verbose and plan is not None:
                print(f"  injected faults: {plan.stats()['injected']}")
        solved = []
        shed = missed = errors = 0
        for index, future in enumerate(futures):
            if future in hung:
                continue
            exc = future.exception()
            if exc is None:
                solved.append((index, future.result()))
            elif isinstance(exc, RequestShed):
                shed += 1
            elif isinstance(exc, DeadlineExceeded):
                missed += 1
            else:
                errors += 1
        gap = 0.0
        if solved:
            references = serial_reference(
                reference, [workload[index] for index, _ in solved]
            )
            gap = max_coefficient_gap([result for _, result in solved], references)
        worst_gap = max(worst_gap, gap)
        hung_total += len(hung)
        verdict = evaluate_slo(snapshot, scenario.slo)
        if not verdict["passed"]:
            failed_slos.append(name)
        latency = snapshot["histograms"].get("latency_seconds", {"p95": 0.0})
        rows.append([
            name,
            float(len(workload)),
            float(len(solved)),
            float(shed),
            float(missed),
            float(errors),
            float(len(hung)),
            latency["p95"] * 1e3,
            gap,
            1.0 if verdict["passed"] else 0.0,
        ])
        if args.verbose:
            for criterion, (observed, limit, ok) in verdict["checks"].items():
                marker = "ok" if ok else "FAIL"
                print(f"  {criterion}: {observed:.4g} (limit {limit:.4g}) {marker}")
    print(format_table(
        ["scenario", "requests", "solved", "shed", "missed", "errors",
         "hung", "p95 ms", "max gap", "SLO pass"],
        rows,
    ))
    if hung_total:
        print(f"FAILED: {hung_total} future(s) never terminated")
        return 1
    if worst_gap > 1e-10:
        print(f"FAILED: solved responses deviate from direct fits by {worst_gap:.2e} (> 1e-10)")
        return 1
    if failed_slos:
        print(f"SLO violations in: {', '.join(failed_slos)} (see table)")
    print("ok: every request terminated; every solved response matches its "
          "one-shot fit to 1e-10")
    return 0


def _run_sensitivity(args: argparse.Namespace) -> int:
    result = run_mu_sst_sensitivity(num_cells=args.cells, rng=args.seed)
    print(format_table(
        ["assumed mu_sst", "deconvolution NRMSE"],
        [[value, error] for value, error in zip(result.assumed_values, result.errors)],
    ))
    print(f"true mu_sst = {result.true_value}; best assumed = {result.best_assumed_value()}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "figure2": _run_figure2,
        "figure3": _run_figure3,
        "figure4": _run_figure4,
        "figure5": _run_figure5,
        "sensitivity": _run_sensitivity,
        "ablations": _run_ablations,
        "serve-bench": _run_serve_bench,
        "serve": _run_serve,
    }
    with np.printoptions(precision=4, suppress=True):
        return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
