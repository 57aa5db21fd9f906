"""Bootstrap uncertainty bands for deconvolved profiles.

The paper reports point estimates of ``f(phi)``; downstream uses (parameter
estimation, feature calls such as "the delay is resolved") benefit from a
confidence band.  This module implements a residual bootstrap: the model is
fitted once, synthetic data sets are generated by adding resampled (or
parametrically redrawn) residuals to the fitted measurements, each synthetic
set is re-deconvolved, and pointwise percentile bands are taken over the
replicate profiles.

All replicates run against the measurement grid of the base fit, so they
share the deconvolver's :class:`~repro.core.deconvolver.FitWorkspace` (kernel,
design matrix, constraint rows, per-lambda QP factorization).  The whole
replicate family is solved as **one stacked multi-RHS solve**
(:meth:`~repro.core.problem.DeconvolutionProblem.solve_batch`) against the
shared factorization, with the base fit's active set pinned for the batched
KKT verification — the per-replicate active-set loop only runs for
replicates whose positivity pattern actually differs from the base fit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.deconvolver import Deconvolver
from repro.core.result import DeconvolutionResult
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_in_range, ensure_1d


@dataclass
class BootstrapResult:
    """Pointwise bootstrap band for a deconvolved profile.

    Attributes
    ----------
    phases:
        Phase grid of the band.
    estimate:
        Profile of the original (non-resampled) fit.
    lower, upper:
        Pointwise percentile band over the bootstrap replicates.
    replicates:
        Matrix of replicate profiles, shape ``(num_replicates, len(phases))``.
    coverage:
        Nominal two-sided coverage of the band (e.g. 0.9).
    base_result:
        The original deconvolution result.
    """

    phases: np.ndarray
    estimate: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    replicates: np.ndarray
    coverage: float
    base_result: DeconvolutionResult

    @property
    def num_replicates(self) -> int:
        """Number of bootstrap replicates."""
        return int(self.replicates.shape[0])

    def band_width(self) -> np.ndarray:
        """Pointwise width of the band (upper minus lower)."""
        return self.upper - self.lower

    def contains(self, truth_values: np.ndarray) -> float:
        """Fraction of phase points at which ``truth_values`` falls inside the band."""
        truth_values = ensure_1d(truth_values, "truth_values")
        if truth_values.size != self.phases.size:
            raise ValueError("truth_values must match the band's phase grid")
        inside = (truth_values >= self.lower) & (truth_values <= self.upper)
        return float(np.mean(inside))


def bootstrap_deconvolution(
    deconvolver: Deconvolver,
    times: np.ndarray,
    measurements: np.ndarray,
    *,
    sigma: np.ndarray | float | None = None,
    lam: float | None = None,
    num_replicates: int = 50,
    coverage: float = 0.9,
    parametric: bool = True,
    num_phase_points: int = 201,
    rng: SeedLike = 0,
) -> BootstrapResult:
    """Residual-bootstrap confidence band for a deconvolved profile.

    Parameters
    ----------
    deconvolver:
        Configured :class:`~repro.core.deconvolver.Deconvolver`.
    times, measurements, sigma:
        The population data to deconvolve (same arguments as ``fit``).
    lam:
        Smoothing parameter for every fit.  When ``None`` it is selected once
        on the original data and then held fixed across replicates (standard
        practice; re-selecting per replicate is slower and noisier).
    num_replicates:
        Number of bootstrap replicates.
    coverage:
        Two-sided nominal coverage of the band (0.9 gives the 5th-95th
        percentile band).
    parametric:
        If ``True`` replicate noise is drawn from a Gaussian with the
        measurement sigmas (parametric bootstrap); otherwise the centred
        residuals of the base fit are resampled with replacement.
    num_phase_points:
        Resolution of the phase grid of the returned band.
    rng:
        Seed or generator.  The base fit draws from it first (a kernel
        build, k-fold folds), then each replicate's noise in replicate
        order.

    Returns
    -------
    BootstrapResult
        Pointwise percentile band plus the replicate profile matrix.
    """
    num_replicates = int(num_replicates)
    if num_replicates < 2:
        raise ValueError("num_replicates must be at least 2")
    check_in_range(coverage, "coverage", 0.0, 1.0, inclusive=False)
    generator = as_generator(rng)
    times = ensure_1d(times, "times")
    measurements = ensure_1d(measurements, "measurements")

    base = deconvolver.fit(times, measurements, sigma=sigma, lam=lam, rng=generator)
    fixed_lam = base.lam
    phases = np.linspace(0.0, 1.0, int(num_phase_points))
    estimate = base.profile(phases)

    residuals = base.residuals
    centred = residuals - np.mean(residuals)
    # All replicate noise is drawn up front, then the whole family is one
    # multi-RHS solve.
    synthetic = np.empty((num_replicates, measurements.size))
    for index in range(num_replicates):
        if parametric:
            noise = generator.normal(0.0, base.sigma)
        else:
            noise = generator.choice(centred, size=centred.size, replace=True)
        synthetic[index] = base.fitted + noise
    workspace = deconvolver.fit_workspace(times, sigma=sigma, rng=generator)
    batch = workspace.template.solve_batch(
        fixed_lam, synthetic.T, shared_active_set=base.solver_active_set
    )
    replicate_profiles = batch.x @ deconvolver.basis.evaluate(phases).T

    tail = 0.5 * (1.0 - coverage)
    lower = np.quantile(replicate_profiles, tail, axis=0)
    upper = np.quantile(replicate_profiles, 1.0 - tail, axis=0)
    return BootstrapResult(
        phases=phases,
        estimate=estimate,
        lower=lower,
        upper=upper,
        replicates=replicate_profiles,
        coverage=float(coverage),
        base_result=base,
    )
