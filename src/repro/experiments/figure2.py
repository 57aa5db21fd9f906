"""Figure 2 experiment: deconvolution of a noiseless Lotka-Volterra population.

A Lotka-Volterra oscillator tuned to a 150-minute period plays the role of the
"true" cell-cycle-regulated single-cell expression.  Its two species are
convolved with the volume-density kernel of an initially synchronous swarmer
culture to produce noiseless population data, which is then deconvolved; the
experiment reports the single-cell, population and deconvolved series for both
species together with recovery metrics (the paper's Figure 2).

The same driver, with ``noise_fraction > 0``, generates the noisy variant used
for Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.comparison import ProfileComparison, compare_to_truth
from repro.cellcycle.kernel import KernelBuilder, VolumeKernel
from repro.cellcycle.parameters import CellCycleParameters
from repro.core.deconvolver import Deconvolver
from repro.core.result import DeconvolutionResult
from repro.core.session import fit_options_bucket
from repro.data.noise import GaussianMagnitudeNoise
from repro.data.timeseries import PhaseProfile
from repro.dynamics.lotka_volterra import LotkaVolterraModel
from repro.dynamics.phase_profiles import extract_phase_profiles
from repro.utils.rng import SeedLike, as_generator


@dataclass
class OscillatorExperimentResult:
    """Series and metrics of the oscillator deconvolution experiment.

    Attributes
    ----------
    times:
        Population measurement times (minutes).
    single_cell:
        True single-cell series per species, sampled at ``times`` (the
        oscillator solution itself, wrapping past one cycle as in the paper's
        figures).
    population:
        Population series per species (noisy when ``noise_fraction > 0``).
    population_clean:
        Noiseless population series per species.
    deconvolved:
        Deconvolution results per species.
    truth_profiles:
        Ground-truth phase profiles per species.
    comparisons:
        Recovery metrics per species.
    kernel:
        The volume-density kernel used for both convolution and deconvolution.
    noise_fraction:
        Gaussian noise level (fraction of the series magnitude).
    """

    times: np.ndarray
    single_cell: dict[str, np.ndarray]
    population: dict[str, np.ndarray]
    population_clean: dict[str, np.ndarray]
    deconvolved: dict[str, DeconvolutionResult]
    truth_profiles: dict[str, PhaseProfile]
    comparisons: dict[str, ProfileComparison]
    kernel: VolumeKernel
    noise_fraction: float = 0.0
    model: LotkaVolterraModel | None = None
    metadata: dict = field(default_factory=dict)

    def improvement_factors(self) -> dict[str, float]:
        """Per-species factor by which deconvolution beats the raw population curve."""
        return {name: comp.improvement_factor for name, comp in self.comparisons.items()}


def run_oscillator_experiment(
    *,
    noise_fraction: float = 0.0,
    num_times: int = 19,
    t_end: float = 180.0,
    num_cells: int = 8000,
    phase_bins: int = 80,
    num_basis: int = 14,
    lam: float | None = None,
    lambda_method: str = "gcv",
    parameters: CellCycleParameters | None = None,
    model: LotkaVolterraModel | None = None,
    rng: SeedLike = 42,
) -> OscillatorExperimentResult:
    """Run the Figure 2 (noiseless) / Figure 3 (noisy) oscillator experiment.

    Parameters
    ----------
    noise_fraction:
        Standard deviation of the added Gaussian noise as a fraction of each
        series' magnitude (0 reproduces Figure 2, 0.10 reproduces Figure 3).
    num_times:
        Number of population measurements on ``[0, t_end]``.
    t_end:
        Experiment duration in minutes (the paper plots 0-180 minutes).
    num_cells, phase_bins:
        Monte-Carlo kernel resolution.
    num_basis:
        Spline basis size for the deconvolution.
    lam:
        Fixed smoothing parameter; selected by ``lambda_method`` when ``None``.
    lambda_method:
        ``"gcv"`` or ``"kfold"``.
    parameters:
        Cell-cycle parameters; defaults to the paper's Caulobacter values.
    model:
        Oscillator; defaults to the 150-minute-period paper oscillator.
    rng:
        Master seed for kernel simulation and noise.
    """
    generator = as_generator(rng)
    parameters = parameters if parameters is not None else CellCycleParameters()
    if model is None:
        model = LotkaVolterraModel.paper_oscillator()

    period = parameters.mean_cycle_time
    times = np.linspace(0.0, float(t_end), int(num_times))

    # Ground-truth synchronous profiles over one cell cycle.
    truth_profiles = extract_phase_profiles(model, period, num_points=401)

    # The "single cell" curves of the figure: the oscillator solution itself
    # over the full experiment window (it wraps past one cycle after 150 min).
    solution = model.simulate(float(t_end), num_points=721)
    sampled = solution.interpolate(times)
    single_cell = {
        name: sampled[:, model.species_index(name)] for name in model.species_names
    }

    # Forward-convolve the truth with the population kernel.
    builder = KernelBuilder(parameters, num_cells=num_cells, phase_bins=phase_bins)
    kernel = builder.build(times, generator)
    population_clean = {
        name: kernel.apply_function(profile) for name, profile in truth_profiles.items()
    }

    population: dict[str, np.ndarray] = {}
    sigmas: dict[str, np.ndarray | None] = {}
    for name, clean in population_clean.items():
        if noise_fraction > 0:
            noise = GaussianMagnitudeNoise(noise_fraction)
            population[name] = noise.apply(clean, generator)
            sigmas[name] = noise.standard_deviations(clean)
        else:
            population[name] = clean.copy()
            sigmas[name] = None

    # All species run through one experiment-scoped session: species sharing
    # a (grid, sigma) bucket are solved as one stacked multi-RHS batch, one
    # fit_many call per bucket in first-seen order, and every species reuses
    # the same assembled problem and lambda-selection factorizations.
    deconvolver = Deconvolver(kernel, parameters=parameters, num_basis=num_basis)
    session = deconvolver.session()
    buckets: dict[tuple, list[str]] = {}
    for name in model.species_names:
        key = fit_options_bucket(times, sigmas[name], lam, lambda_method, None)
        buckets.setdefault(key, []).append(name)
    fitted: dict[str, DeconvolutionResult] = {}
    for names in buckets.values():
        fits = session.fit_many(
            times,
            np.column_stack([population[name] for name in names]),
            sigma=sigmas[names[0]],
            lam=None if lam is None else [lam] * len(names),
            lambda_method=lambda_method,
            rng=generator,
        )
        fitted.update(zip(names, fits))
    deconvolved = {name: fitted[name] for name in model.species_names}
    comparisons = {
        name: compare_to_truth(result, truth_profiles[name])
        for name, result in deconvolved.items()
    }

    return OscillatorExperimentResult(
        times=times,
        single_cell=single_cell,
        population=population,
        population_clean=population_clean,
        deconvolved=deconvolved,
        truth_profiles=truth_profiles,
        comparisons=comparisons,
        kernel=kernel,
        noise_fraction=float(noise_fraction),
        model=model,
        metadata={"num_cells": num_cells, "phase_bins": phase_bins, "num_basis": num_basis},
    )
