"""Monte-Carlo estimation of the fractional volume-density kernel ``Q(phi, t)``.

``Q(phi, t)`` is the fraction of total population volume that sits in a small
phase interval around ``phi`` at experiment time ``t`` (Sec. 2.2, eq. 3).  The
population measurement of a species with synchronous expression ``f(phi)`` is
then the integral transform ``G(t) = \\int Q(phi, t) f(phi) dphi``.

Because cells traverse their cycles at different rates and divide
asymmetrically, ``Q`` has no closed form; as in the paper it is estimated by
simulating a large population and volume-weighted binning of the cell phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import config
from repro.backends import smooth_rows, uniform_bin_indices, weighted_bincount
from repro.cellcycle.parameters import CellCycleParameters
from repro.cellcycle.phase import InitialCondition
from repro.cellcycle.population import PopulationHistory, PopulationSimulator
from repro.cellcycle.volume import SmoothVolumeModel, VolumeModel
from repro.utils.gridding import bin_centers, bin_edges
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import ensure_1d, ensure_2d


@dataclass
class VolumeKernel:
    """Discretised fractional volume-density kernel.

    Attributes
    ----------
    times:
        Measurement times (minutes), shape ``(Nm,)``.
    phase_edges:
        Edges of the phase bins, shape ``(nb + 1,)``.
    density:
        Kernel values ``Q(phi_j, t_m)`` at the bin centres, shape
        ``(Nm, nb)``.  Each row integrates to one:
        ``sum_j density[m, j] * dphi_j == 1``.
    num_cells:
        Number of live cells underlying each row (diagnostic).
    """

    times: np.ndarray
    phase_edges: np.ndarray
    density: np.ndarray
    num_cells: np.ndarray

    def __post_init__(self) -> None:
        self.times = ensure_1d(self.times, "times")
        self.phase_edges = ensure_1d(self.phase_edges, "phase_edges")
        self.density = ensure_2d(self.density, "density")
        self.num_cells = np.asarray(self.num_cells, dtype=int)
        expected = (self.times.size, self.phase_edges.size - 1)
        if self.density.shape != expected:
            raise ValueError(
                f"density has shape {self.density.shape}, expected {expected}"
            )
        # Derived arrays are cached lazily; the kernel data is treated as
        # immutable after construction.
        self._phase_widths: np.ndarray | None = None
        self._weighted_density: np.ndarray | None = None

    @property
    def phase_centers(self) -> np.ndarray:
        """Bin-centre phases, shape ``(nb,)``."""
        return bin_centers(self.phase_edges)

    @property
    def phase_widths(self) -> np.ndarray:
        """Bin widths, shape ``(nb,)`` (cached)."""
        if self._phase_widths is None:
            self._phase_widths = np.diff(self.phase_edges)
        return self._phase_widths

    @property
    def weighted_density(self) -> np.ndarray:
        """Quadrature weights ``density * phase_widths``, shape ``(Nm, nb)``.

        Cached: :meth:`apply` and :meth:`design_matrix` both integrate
        against this product, so it is computed once per kernel instead of on
        every call.
        """
        if self._weighted_density is None:
            self._weighted_density = self.density * self.phase_widths[None, :]
        return self._weighted_density

    @property
    def num_measurements(self) -> int:
        """Number of measurement times."""
        return int(self.times.size)

    @property
    def num_bins(self) -> int:
        """Number of phase bins."""
        return int(self.phase_edges.size - 1)

    def row_integrals(self) -> np.ndarray:
        """Integral of each kernel row over phase (should be one)."""
        return self.density @ self.phase_widths

    def apply(self, profile_values: np.ndarray) -> np.ndarray:
        """Forward-transform a synchronous profile sampled at the bin centres.

        Parameters
        ----------
        profile_values:
            ``f(phi_j)`` at :attr:`phase_centers`, shape ``(nb,)`` or
            ``(nb, k)`` for several species at once.

        Returns
        -------
        numpy.ndarray
            Population values ``G(t_m)`` with shape ``(Nm,)`` or ``(Nm, k)``.
        """
        values = np.asarray(profile_values, dtype=float)
        if values.shape[0] != self.num_bins:
            raise ValueError(
                f"profile has {values.shape[0]} samples but the kernel has {self.num_bins} bins"
            )
        return self.weighted_density @ values

    def apply_function(self, profile: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Forward-transform a callable synchronous profile ``f(phi)``."""
        return self.apply(np.asarray(profile(self.phase_centers), dtype=float))

    def design_matrix(self, basis_matrix: np.ndarray) -> np.ndarray:
        """Design matrix mapping basis coefficients to population measurements.

        Parameters
        ----------
        basis_matrix:
            Basis functions evaluated at the bin centres, shape ``(nb, Nc)``.

        Returns
        -------
        numpy.ndarray
            Matrix ``A`` of shape ``(Nm, Nc)`` with
            ``A[m, i] = \\int Q(phi, t_m) psi_i(phi) dphi``.
        """
        basis_matrix = ensure_2d(basis_matrix, "basis_matrix")
        if basis_matrix.shape[0] != self.num_bins:
            raise ValueError("basis_matrix rows must match the number of phase bins")
        return self.weighted_density @ basis_matrix

    def restrict(self, indices: np.ndarray) -> "VolumeKernel":
        """Kernel restricted to a subset of measurement times (for cross-validation)."""
        indices = np.asarray(indices, dtype=int)
        return VolumeKernel(
            times=self.times[indices],
            phase_edges=self.phase_edges.copy(),
            density=self.density[indices],
            num_cells=self.num_cells[indices],
        )


class KernelBuilder:
    """Builds :class:`VolumeKernel` objects by population simulation.

    Parameters
    ----------
    parameters:
        Cell-cycle parameters; defaults to the paper's Caulobacter values.
    volume_model:
        Volume model; defaults to the paper's smooth model (Sec. 3.1).
    initial_condition:
        Initial synchrony of the culture; defaults to the synchronised
        swarmer protocol.
    num_cells:
        Number of founder cells in the Monte-Carlo simulation.
    phase_bins:
        Number of equal-width phase bins.
    smoothing_window:
        Odd width (in bins) of a moving-average smoother applied to each
        kernel row to damp Monte-Carlo noise; ``1`` disables smoothing.
    """

    def __init__(
        self,
        parameters: CellCycleParameters | None = None,
        volume_model: VolumeModel | None = None,
        initial_condition: InitialCondition = InitialCondition.SYNCHRONIZED_SWARMER,
        *,
        num_cells: int = config.DEFAULT_POPULATION_SIZE,
        phase_bins: int = config.DEFAULT_PHASE_BINS,
        smoothing_window: int = 3,
    ) -> None:
        self.parameters = parameters if parameters is not None else CellCycleParameters()
        self.volume_model = volume_model if volume_model is not None else SmoothVolumeModel()
        self.initial_condition = initial_condition
        self.num_cells = int(num_cells)
        self.phase_bins = int(phase_bins)
        self.smoothing_window = int(smoothing_window)
        if self.num_cells < 1:
            raise ValueError("num_cells must be >= 1")
        if self.phase_bins < 2:
            raise ValueError("phase_bins must be >= 2")
        if self.smoothing_window < 1 or self.smoothing_window % 2 == 0:
            raise ValueError("smoothing_window must be a positive odd integer")

    def simulate(self, t_end: float, rng: SeedLike = None) -> PopulationHistory:
        """Run the underlying population simulation up to ``t_end``."""
        simulator = PopulationSimulator(
            self.parameters, self.volume_model, self.initial_condition
        )
        return simulator.run(self.num_cells, t_end, rng)

    def build(self, times: np.ndarray, rng: SeedLike = None) -> VolumeKernel:
        """Estimate the kernel at the given measurement ``times``."""
        times = ensure_1d(times, "times")
        if np.any(times < 0):
            raise ValueError("measurement times must be non-negative")
        generator = as_generator(rng)
        horizon = float(np.max(times)) if np.max(times) > 0 else 1.0
        simulator = PopulationSimulator(
            self.parameters, self.volume_model, self.initial_condition
        )
        history = simulator.run(self.num_cells, horizon, generator)
        return self.build_from_history(history, times, simulator)

    def build_from_history(
        self,
        history: PopulationHistory,
        times: np.ndarray,
        simulator: PopulationSimulator | None = None,
    ) -> VolumeKernel:
        """Estimate the kernel from an existing population history.

        All measurement times are processed in one vectorized pass: the
        birth/division interval of every cell is located in the sorted time
        grid with ``searchsorted`` (instead of a full-history alive mask per
        time), and the volume-weighted phase histograms of every snapshot are
        accumulated with a single ``bincount`` over (time, bin) pairs.  The
        volume evaluation is **fused** into that accumulation: the memoised
        per-cell polynomial coefficients are Horner-evaluated directly into
        the ``bincount`` weight buffer
        (:meth:`~repro.cellcycle.volume.VolumeModel.volume_for_cells_into`),
        and the bin indices are turned into flat (time, bin) keys in place —
        no intermediate volume array, no separate Horner and binning stages.
        The binning, volume and smoothing inner loops are the kernels of
        :mod:`repro.backends`.
        """
        times = ensure_1d(times, "times")
        if np.any(times < 0):
            raise ValueError(f"time must be non-negative, got {float(times.min())}")
        if simulator is None:
            simulator = PopulationSimulator(
                self.parameters, self.volume_model, self.initial_condition
            )
        edges = bin_edges(self.phase_bins)
        widths = np.diff(edges)
        num_times = times.size
        num_bins = self.phase_bins

        order = np.argsort(times, kind="stable")
        sorted_times = times[order]
        time_idx, cell_idx, phases = history.phases_at_many(sorted_times)

        counts_sorted = np.bincount(time_idx, minlength=num_times)
        if np.any(counts_sorted == 0):
            empty = sorted_times[int(np.argmin(counts_sorted > 0))]
            raise RuntimeError(f"no live cells at time {empty}; increase num_cells")

        # Fused accumulation: bin each pair, then evaluate the (possibly
        # caller-supplied) volume model straight into the weight buffer of
        # the histogram pass.  The bin indices double as the flat (time, bin)
        # keys after an in-place shift by the snapshot offset.
        keys = uniform_bin_indices(phases, edges)
        keys += time_idx * num_bins
        weights = simulator.volume_model.volume_for_cells_into(
            phases,
            history.transition_phases,
            cell_idx,
            np.empty(phases.shape),
        )
        histograms = weighted_bincount(
            keys, weights, num_times * num_bins
        ).reshape(num_times, num_bins)
        # Every pair lands in exactly one bin, so the per-time total volume
        # is just the histogram row sum -- no second bincount pass needed.
        total_volume = histograms.sum(axis=1)
        rows = histograms / (total_volume[:, None] * widths[None, :])

        density = np.zeros((num_times, num_bins))
        counts = np.zeros(num_times, dtype=int)
        density[order] = self._smooth_rows(rows, widths)
        counts[order] = counts_sorted
        return VolumeKernel(
            times=times.copy(), phase_edges=edges, density=density, num_cells=counts
        )

    def _smooth_rows(self, rows: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Moving-average smoothing of all kernel rows in one vectorized pass.

        Equivalent to applying :meth:`_smooth_row` per row (up to float
        rounding of the sliding-sum formulation): edge-padded moving average
        via a cumulative sum, then per-row renormalisation to preserve each
        row's integral.  Rows whose smoothed integral degenerates to zero are
        kept unsmoothed, matching the per-row guard
        (:func:`repro.backends.smooth_rows`).
        """
        if self.smoothing_window == 1:
            return rows
        return smooth_rows(rows, widths, self.smoothing_window)

    def _smooth_row(self, row: np.ndarray, widths: np.ndarray) -> np.ndarray:
        """Moving-average smoothing of one kernel row, preserving its integral."""
        if self.smoothing_window == 1:
            return row
        half = self.smoothing_window // 2
        padded = np.pad(row, half, mode="edge")
        window = np.ones(self.smoothing_window) / self.smoothing_window
        smoothed = np.convolve(padded, window, mode="valid")
        integral = smoothed @ widths
        if integral <= 0:
            return row
        return smoothed / integral
