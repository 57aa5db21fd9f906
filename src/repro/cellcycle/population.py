"""Monte-Carlo simulation of an asynchronously dividing cell population.

The simulator advances an initial cohort of cells (Sec. 2.1 of the paper)
through repeated rounds of division up to a final experiment time.  Division
is asymmetric: when a cell reaches phase one it is replaced by a swarmer
daughter starting at phase zero and a stalked daughter starting at its own,
freshly drawn, transition phase (the stalked cell skips the swarmer stage).
Both daughters receive independent cycle times and transition phases.

The simulation is generation-vectorised: each round processes every cell that
divides before the horizon in one NumPy pass, so populations of tens of
thousands of cells over a couple of cell cycles are simulated in well under a
second.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cellcycle.parameters import CellCycleParameters
from repro.cellcycle.phase import InitialCondition, draw_cohort
from repro.cellcycle.volume import SmoothVolumeModel, VolumeModel
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import InvalidRequest, check_positive, ensure_1d

#: Most cells one :meth:`PopulationSimulator.run` may create, founders
#: included.  The population doubles every cycle, so a long horizon would
#: otherwise exhaust memory; every horizon the experiments use (<= 180 min,
#: <= 40k founders, ~120k cells) stays far below it.
MAX_SIMULATED_CELLS = 2_000_000


@dataclass
class PopulationSnapshot:
    """State of all live cells at a single experiment time.

    Attributes
    ----------
    time:
        Snapshot time in minutes.
    phases:
        Cell-cycle phase of every live cell.
    transition_phases:
        Per-cell swarmer-to-stalked transition phase.
    volumes:
        Per-cell volume under the simulator's volume model.
    cycle_times:
        Per-cell total cycle time in minutes.
    """

    time: float
    phases: np.ndarray
    transition_phases: np.ndarray
    volumes: np.ndarray
    cycle_times: np.ndarray

    @property
    def num_cells(self) -> int:
        """Number of live cells in the snapshot."""
        return int(self.phases.size)

    @property
    def total_volume(self) -> float:
        """Total population volume."""
        return float(np.sum(self.volumes))


@dataclass
class PopulationHistory:
    """Flat record of every cell ever created during a simulation.

    Cells are stored structure-of-arrays style.  A cell is alive at time ``t``
    when ``birth_time <= t < division_time``; cells whose division falls after
    the simulation horizon have ``division_time`` set to the actual division
    time anyway (it is simply never reached within the experiment).
    """

    birth_times: np.ndarray
    initial_phases: np.ndarray
    cycle_times: np.ndarray
    transition_phases: np.ndarray
    division_times: np.ndarray
    generations: np.ndarray
    # One-slot memo of the last phases_at_many result, keyed by the snapshot
    # times.  Kernel builders evaluate the same history on the same
    # measurement grid repeatedly (volume-model ablations, benchmark
    # repeats); the (time, cell) pair expansion is by far the most expensive
    # part and is identical across those calls.
    _pairs_key: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _pairs_value: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def num_cells(self) -> int:
        """Total number of cells ever created (live plus divided)."""
        return int(self.birth_times.size)

    def alive_mask(self, time: float) -> np.ndarray:
        """Boolean mask of cells alive at ``time``."""
        return (self.birth_times <= time) & (time < self.division_times)

    def phases_at(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        """Phases and indices of cells alive at ``time``."""
        mask = self.alive_mask(time)
        indices = np.flatnonzero(mask)
        elapsed = time - self.birth_times[indices]
        phases = self.initial_phases[indices] + elapsed / self.cycle_times[indices]
        return np.clip(phases, 0.0, 1.0), indices

    def alive_spans(self, sorted_times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell index range of ``sorted_times`` during which each cell lives.

        Cell ``c`` is alive at ``sorted_times[lo[c]:hi[c]]`` (its
        ``[birth_time, division_time)`` interval located in the sorted time
        grid with two ``searchsorted`` passes).
        """
        lo = np.searchsorted(sorted_times, self.birth_times, side="left")
        hi = np.searchsorted(sorted_times, self.division_times, side="left")
        return lo, np.maximum(hi, lo)

    def phases_at_many(
        self, sorted_times: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live (time, cell) pairs and phases for all ``sorted_times`` in one pass.

        Replaces a per-time full-history ``alive_mask`` sweep with interval
        sorting plus ``searchsorted``: cost is ``O(num_cells log Nm)`` plus
        the number of live pairs, independent of how many snapshot times
        share the history.  The most recent result is memoised per snapshot
        grid (the returned arrays are marked read-only), so repeated kernel
        builds over one history — volume-model ablations, benchmark repeats —
        skip the pair expansion entirely.

        Parameters
        ----------
        sorted_times:
            Snapshot times in ascending order.

        Returns
        -------
        tuple
            ``(time_idx, cell_idx, phases)`` arrays, one entry per live
            (time, cell) pair, ordered by cell then time; the phase values
            match :meth:`phases_at` exactly.
        """
        sorted_times = np.asarray(sorted_times, dtype=float)
        key = sorted_times.tobytes()
        if self._pairs_key == key:
            return self._pairs_value
        lo, hi = self.alive_spans(sorted_times)
        counts = hi - lo
        total = int(counts.sum())
        cell_idx = np.repeat(np.arange(self.num_cells), counts)
        starts = np.cumsum(counts) - counts
        # Concatenated ranges lo[c]:hi[c] via one offset repeat over a single
        # global arange.
        time_idx = np.arange(total) + np.repeat(lo - starts, counts)
        elapsed = sorted_times[time_idx] - self.birth_times[cell_idx]
        phases = self.initial_phases[cell_idx] + elapsed / self.cycle_times[cell_idx]
        np.clip(phases, 0.0, 1.0, out=phases)
        # The memoised arrays are handed out to every caller; freeze them so
        # an accidental in-place edit cannot corrupt later builds.
        for array in (time_idx, cell_idx, phases):
            array.flags.writeable = False
        self._pairs_key = key
        self._pairs_value = (time_idx, cell_idx, phases)
        return self._pairs_value


def _check_population_size(total: int, founders: int, t_end: float) -> None:
    """Raise :class:`InvalidRequest` when ``total`` cells exceed the cap."""
    if total > MAX_SIMULATED_CELLS:
        raise InvalidRequest(
            f"simulating {founders} founder cells to t = {t_end:g} min would create "
            f"more than {MAX_SIMULATED_CELLS} cells; shorten the time grid or use "
            "fewer founder cells"
        )


class PopulationSimulator:
    """Simulate an asynchronously dividing Caulobacter population.

    Parameters
    ----------
    parameters:
        Cell-cycle parameter set (transition phase, cycle-time distribution).
    volume_model:
        Volume model used to convert phases to cell volumes in snapshots;
        defaults to the paper's smooth model.
    initial_condition:
        Initial synchrony model of the culture.
    """

    def __init__(
        self,
        parameters: CellCycleParameters | None = None,
        volume_model: VolumeModel | None = None,
        initial_condition: InitialCondition = InitialCondition.SYNCHRONIZED_SWARMER,
    ) -> None:
        self.parameters = parameters if parameters is not None else CellCycleParameters()
        self.volume_model = volume_model if volume_model is not None else SmoothVolumeModel()
        self.initial_condition = initial_condition

    def run(
        self,
        num_cells: int,
        t_end: float,
        rng: SeedLike = None,
    ) -> PopulationHistory:
        """Simulate ``num_cells`` founder cells up to ``t_end`` minutes.

        Returns a :class:`PopulationHistory` containing every founder and
        every daughter created before the horizon.

        Raises
        ------
        InvalidRequest
            When the history would hold more than :data:`MAX_SIMULATED_CELLS`
            cells; checked before each generation is allocated.
        """
        num_cells = int(num_cells)
        if num_cells < 1:
            raise ValueError(f"num_cells must be >= 1, got {num_cells}")
        t_end = check_positive(t_end, "t_end")
        _check_population_size(num_cells, num_cells, t_end)
        generator = as_generator(rng)

        initial_phases, cycle_times, transition_phases = draw_cohort(
            self.parameters, num_cells, self.initial_condition, generator
        )
        birth_times = np.zeros(num_cells)
        generations = np.zeros(num_cells, dtype=int)

        all_birth = [birth_times]
        all_phase0 = [initial_phases]
        all_cycle = [cycle_times]
        all_sst = [transition_phases]
        all_generation = [generations]
        all_division = [birth_times + cycle_times * (1.0 - initial_phases)]

        # Process divisions generation by generation until none fall before t_end.
        current_division = all_division[0]
        current_generation = generations
        frontier = np.flatnonzero(current_division <= t_end)
        frontier_division = current_division[frontier]
        frontier_generation = current_generation[frontier]

        total = num_cells
        max_rounds = 64
        for _ in range(max_rounds):
            if frontier.size == 0:
                break
            num_dividing = frontier.size
            total += 2 * num_dividing
            _check_population_size(total, num_cells, t_end)
            # Swarmer daughters: phase 0; stalked daughters: their own phi_sst.
            sw_sst = self.parameters.sample_transition_phase(num_dividing, generator)
            sw_cycle = self.parameters.sample_cycle_time(num_dividing, generator)
            st_sst = self.parameters.sample_transition_phase(num_dividing, generator)
            st_cycle = self.parameters.sample_cycle_time(num_dividing, generator)

            child_birth = np.concatenate([frontier_division, frontier_division])
            child_phase0 = np.concatenate([np.zeros(num_dividing), st_sst])
            child_cycle = np.concatenate([sw_cycle, st_cycle])
            child_sst = np.concatenate([sw_sst, st_sst])
            child_generation = np.concatenate([frontier_generation + 1, frontier_generation + 1])
            child_division = child_birth + child_cycle * (1.0 - child_phase0)

            all_birth.append(child_birth)
            all_phase0.append(child_phase0)
            all_cycle.append(child_cycle)
            all_sst.append(child_sst)
            all_generation.append(child_generation)
            all_division.append(child_division)

            next_mask = child_division <= t_end
            frontier = np.flatnonzero(next_mask)
            frontier_division = child_division[next_mask]
            frontier_generation = child_generation[next_mask]
        else:
            raise RuntimeError(
                "population simulation exceeded the maximum number of division rounds; "
                "check that cycle times are not much shorter than the horizon"
            )

        return PopulationHistory(
            birth_times=np.concatenate(all_birth),
            initial_phases=np.concatenate(all_phase0),
            cycle_times=np.concatenate(all_cycle),
            transition_phases=np.concatenate(all_sst),
            division_times=np.concatenate(all_division),
            generations=np.concatenate(all_generation),
        )

    def snapshot(self, history: PopulationHistory, time: float) -> PopulationSnapshot:
        """Extract the live-cell state at ``time`` from a simulated history."""
        if time < 0:
            raise ValueError(f"time must be non-negative, got {time}")
        phases, indices = history.phases_at(time)
        transition_phases = history.transition_phases[indices]
        volumes = self.volume_model.volume(phases, transition_phases)
        return PopulationSnapshot(
            time=float(time),
            phases=phases,
            transition_phases=transition_phases,
            volumes=np.asarray(volumes, dtype=float),
            cycle_times=history.cycle_times[indices],
        )

    def snapshots(self, history: PopulationHistory, times: np.ndarray) -> list[PopulationSnapshot]:
        """Snapshots at each of the given times."""
        times = ensure_1d(times, "times")
        return [self.snapshot(history, float(t)) for t in times]
