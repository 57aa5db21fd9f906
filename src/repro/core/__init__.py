"""Deconvolution core — the paper's primary contribution.

The expression estimate ``f(phi)`` is represented in a natural-cubic-spline
basis (:mod:`repro.core.basis`), fitted to population measurements through the
volume-density kernel (:mod:`repro.core.forward`) by minimising a
regularised least-squares criterion (eq. 5) subject to positivity, RNA
conservation across division and rate-continuity constraints
(:mod:`repro.core.constraints`).  The :class:`~repro.core.deconvolver.Deconvolver`
facade wires all of this together and selects the smoothing parameter by
cross-validation or GCV (:mod:`repro.core.lambda_selection`).
"""

from repro.core.basis import SplineBasis
from repro.core.forward import ForwardModel, convolve_profile
from repro.core.constraints import (
    AssemblyContext,
    ConstraintSet,
    PositivityConstraint,
    RNAConservationConstraint,
    RateContinuityConstraint,
    assembly_context,
    default_constraints,
)
from repro.core.problem import DeconvolutionProblem
from repro.core.result import DeconvolutionResult
from repro.core.deconvolver import Deconvolver
from repro.core.session import FitSession, FitWorkspace
from repro.core.lambda_selection import (
    LAMBDA_METHODS,
    LambdaSelectionResult,
    generalized_cross_validation,
    k_fold_cross_validation,
    select_lambda,
    default_lambda_grid,
)
from repro.core.diagnostics import FitDiagnostics, compute_diagnostics
from repro.core.uncertainty import BootstrapResult, bootstrap_deconvolution

__all__ = [
    "SplineBasis",
    "ForwardModel",
    "convolve_profile",
    "AssemblyContext",
    "assembly_context",
    "FitSession",
    "FitWorkspace",
    "ConstraintSet",
    "PositivityConstraint",
    "RNAConservationConstraint",
    "RateContinuityConstraint",
    "default_constraints",
    "DeconvolutionProblem",
    "DeconvolutionResult",
    "Deconvolver",
    "LAMBDA_METHODS",
    "LambdaSelectionResult",
    "generalized_cross_validation",
    "k_fold_cross_validation",
    "select_lambda",
    "default_lambda_grid",
    "FitDiagnostics",
    "compute_diagnostics",
    "BootstrapResult",
    "bootstrap_deconvolution",
]
