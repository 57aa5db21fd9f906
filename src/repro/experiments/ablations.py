"""Ablation studies of the method's design choices.

These drivers back the A1-A4 benchmarks listed in ``DESIGN.md``:

* volume-model ablation — how much the smooth (eq. 11) volume model matters
  relative to the linear and piecewise-linear baselines;
* constraint ablation — recovery quality with the positivity, RNA-conservation
  and rate-continuity constraints toggled on and off;
* lambda ablation — recovery quality across the smoothing-parameter grid and
  for the automatic selectors;
* kernel convergence — Monte-Carlo convergence of ``Q(phi, t)`` with
  population size and phase resolution.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.metrics import nrmse
from repro.cellcycle.kernel import KernelBuilder
from repro.cellcycle.parameters import CellCycleParameters
from repro.cellcycle.volume import make_volume_model
from repro.core.constraints import default_constraints
from repro.core.deconvolver import Deconvolver
from repro.core.lambda_selection import default_lambda_grid
from repro.data.noise import GaussianMagnitudeNoise
from repro.data.synthetic import ftsz_like_profile
from repro.data.timeseries import PhaseProfile
from repro.utils.rng import SeedLike, as_generator


def _standard_setup(
    *,
    truth: PhaseProfile | None,
    num_times: int,
    t_end: float,
    num_cells: int,
    phase_bins: int,
    noise_fraction: float,
    volume_model_name: str,
    parameters: CellCycleParameters,
    rng,
):
    """Generate a (kernel, truth, noisy series, sigma) tuple shared by the ablations."""
    generator = as_generator(rng)
    if truth is None:
        truth = ftsz_like_profile(onset=parameters.mu_sst, peak=0.4, amplitude=10.0, baseline=0.1)
    times = np.linspace(0.0, t_end, num_times)
    builder = KernelBuilder(
        parameters,
        make_volume_model(volume_model_name),
        num_cells=num_cells,
        phase_bins=phase_bins,
    )
    kernel = builder.build(times, generator)
    clean = kernel.apply_function(truth)
    if noise_fraction > 0:
        noise = GaussianMagnitudeNoise(noise_fraction)
        values = noise.apply(clean, generator)
        sigma = noise.standard_deviations(clean)
    else:
        values = clean
        sigma = None
    return kernel, truth, times, values, sigma


def run_volume_model_ablation(
    *,
    truth: PhaseProfile | None = None,
    volume_models: tuple[str, ...] = ("linear", "piecewise_linear", "smooth"),
    noise_fraction: float = 0.05,
    num_times: int = 16,
    t_end: float = 150.0,
    num_cells: int = 6000,
    phase_bins: int = 80,
    num_basis: int = 14,
    lam: float | None = None,
    parameters: CellCycleParameters | None = None,
    rng: SeedLike = 5,
) -> dict[str, float]:
    """NRMSE of the deconvolved profile for each cell-volume model.

    The *same* volume model is used for data generation and inversion in each
    arm, so the comparison isolates how the volume model shapes the
    identifiability of ``f(phi)`` rather than model mismatch.
    """
    parameters = parameters if parameters is not None else CellCycleParameters()
    scores: dict[str, float] = {}
    for name in volume_models:
        kernel, truth_profile, times, values, sigma = _standard_setup(
            truth=truth,
            num_times=num_times,
            t_end=t_end,
            num_cells=num_cells,
            phase_bins=phase_bins,
            noise_fraction=noise_fraction,
            volume_model_name=name,
            parameters=parameters,
            rng=rng,
        )
        deconvolver = Deconvolver(kernel, parameters=parameters, num_basis=num_basis)
        result = deconvolver.session().fit(times, values, sigma=sigma, lam=lam)
        phases = np.linspace(0.0, 1.0, 201)
        scores[name] = nrmse(result.profile(phases), truth_profile(phases))
    return scores


def run_constraint_ablation(
    *,
    truth: PhaseProfile | None = None,
    noise_fraction: float = 0.05,
    num_times: int = 16,
    t_end: float = 150.0,
    num_cells: int = 6000,
    phase_bins: int = 80,
    num_basis: int = 14,
    lam: float | None = None,
    parameters: CellCycleParameters | None = None,
    rng: SeedLike = 6,
) -> dict[str, dict[str, float]]:
    """Recovery metrics with the constraint stack toggled.

    Returns a mapping from configuration name to
    ``{"nrmse": ..., "negativity": ...}`` where negativity is the most
    negative value of the estimate (zero when positivity holds).
    """
    parameters = parameters if parameters is not None else CellCycleParameters()
    kernel, truth_profile, times, values, sigma = _standard_setup(
        truth=truth,
        num_times=num_times,
        t_end=t_end,
        num_cells=num_cells,
        phase_bins=phase_bins,
        noise_fraction=noise_fraction,
        volume_model_name="smooth",
        parameters=parameters,
        rng=rng,
    )
    configurations = {
        "none": dict(positivity=False, rna_conservation=False, rate_continuity=False),
        "positivity_only": dict(positivity=True, rna_conservation=False, rate_continuity=False),
        "no_rate_continuity": dict(positivity=True, rna_conservation=True, rate_continuity=False),
        "full": dict(positivity=True, rna_conservation=True, rate_continuity=True),
    }
    phases = np.linspace(0.0, 1.0, 201)
    scores: dict[str, dict[str, float]] = {}
    for name, toggles in configurations.items():
        # One session per constraint stack (the stack is part of the session
        # configuration); the kernel object itself is shared across arms.
        deconvolver = Deconvolver(
            kernel,
            parameters=parameters,
            num_basis=num_basis,
            constraints=default_constraints(**toggles),
        )
        result = deconvolver.session().fit(times, values, sigma=sigma, lam=lam)
        estimate = result.profile(phases)
        scores[name] = {
            "nrmse": nrmse(estimate, truth_profile(phases)),
            "negativity": float(min(0.0, np.min(estimate))),
        }
    return scores


def run_lambda_ablation(
    *,
    truth: PhaseProfile | None = None,
    lambdas: np.ndarray | None = None,
    noise_fraction: float = 0.10,
    num_times: int = 16,
    t_end: float = 150.0,
    num_cells: int = 6000,
    phase_bins: int = 80,
    num_basis: int = 14,
    parameters: CellCycleParameters | None = None,
    rng: SeedLike = 9,
) -> dict[str, float]:
    """NRMSE across a lambda sweep plus the automatic GCV and k-fold choices.

    Keys are either a formatted lambda value, ``"gcv"`` or ``"kfold"``.
    """
    parameters = parameters if parameters is not None else CellCycleParameters()
    kernel, truth_profile, times, values, sigma = _standard_setup(
        truth=truth,
        num_times=num_times,
        t_end=t_end,
        num_cells=num_cells,
        phase_bins=phase_bins,
        noise_fraction=noise_fraction,
        volume_model_name="smooth",
        parameters=parameters,
        rng=rng,
    )
    if lambdas is None:
        lambdas = default_lambda_grid(num=7, low=1e-5, high=1e1)
    deconvolver = Deconvolver(kernel, parameters=parameters, num_basis=num_basis)
    phases = np.linspace(0.0, 1.0, 201)
    # The whole sweep runs against one session: the fixed lambdas as one
    # stacked fit_many call, then one call per automatic selector, all
    # sharing the assembled problem and its per-lambda factorizations.
    session = deconvolver.session()
    column = values[:, None]
    names = [f"lambda={lam:.3g}" for lam in lambdas] + ["gcv", "kfold"]
    results = session.fit_many(
        times,
        np.repeat(column, len(lambdas), axis=1),
        sigma=sigma,
        lam=[float(lam) for lam in lambdas],
    )
    for method in ("gcv", "kfold"):
        results += session.fit_many(times, column, sigma=sigma, lambda_method=method)
    truth_values = truth_profile(phases)
    return {
        name: nrmse(result.profile(phases), truth_values)
        for name, result in zip(names, results)
    }


def run_kernel_convergence_study(
    *,
    cell_counts: tuple[int, ...] = (500, 2000, 8000),
    phase_bins: int = 80,
    reference_cells: int = 40_000,
    num_times: int = 6,
    t_end: float = 150.0,
    parameters: CellCycleParameters | None = None,
    rng: SeedLike = 3,
) -> dict[int, float]:
    """Monte-Carlo convergence of the kernel with the number of simulated cells.

    Each kernel is compared to a high-resolution reference built with
    ``reference_cells`` founders; the score is the mean absolute difference of
    the kernel densities, which should decrease as the population grows.
    """
    parameters = parameters if parameters is not None else CellCycleParameters()
    times = np.linspace(0.0, t_end, num_times)
    generator = as_generator(rng)
    reference = KernelBuilder(
        parameters, num_cells=reference_cells, phase_bins=phase_bins
    ).build(times, generator)
    scores: dict[int, float] = {}
    for count in cell_counts:
        kernel = KernelBuilder(parameters, num_cells=int(count), phase_bins=phase_bins).build(
            times, generator
        )
        scores[int(count)] = float(np.mean(np.abs(kernel.density - reference.density)))
    return scores
