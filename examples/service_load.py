"""Load-test the micro-batching fit service with concurrent producers.

`repro.service` turns the library into a long-lived serving runtime:

* a `SessionPool` shards warm `FitSession`s by deconvolver configuration
  (LRU-bounded, so a service over many experiments stays within budget);
* a `MicroBatchScheduler` accepts requests from many producer threads,
  solves at once on an idle shard, coalesces compatible requests that queue
  up while a shard is busy, and solves each batch as one stacked multi-RHS
  `fit_many` call;
* a content-addressed `ResultCache` answers bit-exact repeats in O(lookup);
* `Telemetry` records counters plus latency / batch-size histograms.

This example drives the scheduler from four concurrent producer threads with
a deterministic seeded workload (mixed grids, genes, noise levels, repeats),
then verifies every response against a one-request-at-a-time
`Deconvolver.fit` reference — the results are bit-identical, the service
only changes when and with what company each request is solved.

Run with:  python examples/service_load.py
"""

import threading
import time

import numpy as np

from repro import CellCycleParameters, Deconvolver, KernelBuilder
from repro.experiments.reporting import format_table
from repro.service import (
    MicroBatchScheduler,
    SessionPool,
    WorkloadSpec,
    build_workload,
    max_coefficient_gap,
    serial_reference,
)

PRODUCERS = 4
REQUESTS = 48


def main() -> None:
    parameters = CellCycleParameters()
    builder = KernelBuilder(parameters, num_cells=3000, phase_bins=50)
    grids = [np.linspace(0.0, 150.0, 14), np.linspace(0.0, 120.0, 11)]
    print("Building one population kernel per measurement grid ...")
    kernels = [builder.build(times, rng=index) for index, times in enumerate(grids)]

    def factory(_key):
        deconvolver = Deconvolver(parameters=parameters, num_basis=12)
        session = deconvolver.session()
        for kernel in kernels:
            session.register_kernel(kernel)
        return deconvolver

    pool = SessionPool(factory, max_entries=4)
    workload = build_workload(
        kernels,
        WorkloadSpec(num_requests=REQUESTS, repeat_ratio=0.25, selection_fraction=0.1, seed=7),
    )

    with MicroBatchScheduler(pool, max_batch=16, workers=2) as scheduler:
        # Warm pass (kernel registration, assembly, factorizations), then
        # reset the metrics so the report covers only the measured window.
        scheduler.map(workload)
        scheduler.cache.clear()
        scheduler.telemetry.reset()

        # Concurrent producers: each thread owns a slice of the workload and
        # submits it request by request, the way service traffic arrives.
        futures: list = [None] * len(workload)

        def produce(offset: int) -> None:
            for index in range(offset, len(workload), PRODUCERS):
                futures[index] = scheduler.submit(workload[index])

        print(f"Streaming {REQUESTS} requests from {PRODUCERS} producer threads ...")
        start = time.perf_counter()
        threads = [threading.Thread(target=produce, args=(offset,)) for offset in range(PRODUCERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        results = [future.result() for future in futures]
        elapsed = time.perf_counter() - start
        snapshot = scheduler.telemetry.snapshot()

    references = serial_reference(factory("reference"), workload)
    gap = max_coefficient_gap(results, references)
    latency = snapshot["histograms"]["latency_seconds"]
    counters = snapshot["counters"]
    rows = [
        ["requests", float(REQUESTS)],
        ["wall ms", elapsed * 1e3],
        ["throughput rps", REQUESTS / elapsed],
        ["batches", float(counters.get("batches", 0))],
        ["coalescing factor", snapshot["coalescing_factor"]],
        ["cache hits + dedup", float(counters.get("cache_hits", 0) + counters.get("deduplicated", 0))],
        ["p95 latency ms", latency["p95"] * 1e3],
        ["max |coef gap|", gap],
    ]
    print(format_table(["metric", "value"], rows))
    assert gap <= 1e-10, f"service responses deviate from direct fits ({gap:.2e})"
    print("every response matches its one-shot Deconvolver.fit to 1e-10")


if __name__ == "__main__":
    main()
