"""Multi-species batch deconvolution through the batched multi-RHS engine.

Eight synthetic "genes" measured on the same population time course are
deconvolved with one `Deconvolver.fit_many` call.  Everything expensive is
shared across the batch:

* one Monte-Carlo kernel and one design/constraint assembly (`FitWorkspace`);
* one GCV eigendecomposition and one set of k-fold plans for the whole
  lambda search (filled by the first species, reused by the rest);
* one stacked multi-RHS QP solve for all species: a shared factorization
  handles every column, and the per-species active-set loop only runs where
  the positivity pattern genuinely differs.

The same fits as a loop of `Deconvolver.fit` calls (the serial reference)
are timed for comparison; the two agree to solver precision.

Run with:  python examples/multi_species_batch.py
"""

import time

import numpy as np

from repro import (
    CellCycleParameters,
    Deconvolver,
    GaussianMagnitudeNoise,
    KernelBuilder,
)
from repro.analysis.metrics import nrmse
from repro.data.synthetic import single_pulse_profile
from repro.experiments.reporting import format_table

NUM_SPECIES = 8


def make_truth_profiles():
    """Eight synthetic single-cell profiles peaking across the cycle."""
    centers = np.linspace(0.15, 0.85, NUM_SPECIES)
    return [
        single_pulse_profile(center=center, width=0.12, amplitude=2.0, baseline=0.3)
        for center in centers
    ]


def main() -> None:
    parameters = CellCycleParameters()
    times = np.linspace(0.0, 150.0, 16)

    print("Building the shared population kernel Q(phi, t) ...")
    kernel = KernelBuilder(parameters, num_cells=6000, phase_bins=80).build(times, rng=0)

    # Forward-simulate eight species on the same culture, with noise.
    truths = make_truth_profiles()
    noise = GaussianMagnitudeNoise(0.05)
    columns = []
    for index, truth in enumerate(truths):
        clean = kernel.apply_function(truth)
        columns.append(noise.apply(clean, rng=100 + index))
    matrix = np.column_stack(columns)

    deconvolver = Deconvolver(kernel, parameters=parameters, num_basis=14)

    print(f"Deconvolving {NUM_SPECIES} species as one batched fit_many call ...")
    start = time.perf_counter()
    results = deconvolver.fit_many(times, matrix, lambda_method="kfold")
    batch_seconds = time.perf_counter() - start
    print(f"  fit_many      : {batch_seconds * 1e3:.1f} ms total "
          f"({batch_seconds / NUM_SPECIES * 1e3:.1f} ms per species)")

    # The serial reference: one fit per species on a fresh deconvolver.
    reference = Deconvolver(kernel, parameters=parameters, num_basis=14)
    start = time.perf_counter()
    serial_results = [
        reference.fit(times, matrix[:, column], lambda_method="kfold")
        for column in range(NUM_SPECIES)
    ]
    serial_seconds = time.perf_counter() - start
    print(f"  loop of fit   : {serial_seconds * 1e3:.1f} ms total")
    worst_gap = max(
        float(np.max(np.abs(a.coefficients - b.coefficients)))
        for a, b in zip(results, serial_results)
    )
    print(f"  max |batch - serial| coefficient gap: {worst_gap:.2e}")

    dense = np.linspace(0.0, 1.0, 201)
    rows = []
    for index, (truth, result) in enumerate(zip(truths, results)):
        rows.append(
            [
                index,
                result.lam,
                nrmse(result.profile(dense), truth(dense)),
                "yes" if result.solver_converged else "no",
            ]
        )
    print(format_table(["species", "lambda", "NRMSE vs truth", "converged"], rows))


if __name__ == "__main__":
    main()
