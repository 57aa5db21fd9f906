"""Tests for repro.cellcycle.population."""

import time

import numpy as np
import pytest

from repro.cellcycle.kernel import KernelBuilder
from repro.cellcycle.parameters import CellCycleParameters
from repro.cellcycle.phase import InitialCondition
from repro.cellcycle.population import MAX_SIMULATED_CELLS, PopulationSimulator
from repro.utils.validation import InvalidRequest


@pytest.fixture(scope="module")
def simulator():
    return PopulationSimulator(CellCycleParameters())


@pytest.fixture(scope="module")
def history(simulator):
    return simulator.run(2000, 180.0, rng=0)


class TestRun:
    def test_history_contains_founders_and_daughters(self, history):
        assert history.num_cells > 2000
        assert np.count_nonzero(history.generations == 0) == 2000
        assert np.any(history.generations >= 1)

    def test_daughters_come_in_pairs(self, history):
        """Every division creates exactly two daughters, so later generations are even-sized."""
        for generation in range(1, int(history.generations.max()) + 1):
            count = int(np.count_nonzero(history.generations == generation))
            assert count % 2 == 0

    def test_population_growth_over_time(self, simulator, history):
        early = simulator.snapshot(history, 10.0).num_cells
        late = simulator.snapshot(history, 175.0).num_cells
        assert early == 2000
        assert late > early

    def test_division_times_follow_birth_times(self, history):
        assert np.all(history.division_times > history.birth_times)

    def test_daughter_initial_phases(self, history):
        daughters = history.generations >= 1
        phases = history.initial_phases[daughters]
        transitions = history.transition_phases[daughters]
        # Swarmer daughters start at 0, stalked daughters at their own phi_sst.
        is_swarmer = phases == 0.0
        assert np.any(is_swarmer)
        assert np.allclose(phases[~is_swarmer], transitions[~is_swarmer])

    def test_determinism(self, simulator):
        a = simulator.run(500, 160.0, rng=9)
        b = simulator.run(500, 160.0, rng=9)
        assert a.num_cells == b.num_cells
        assert np.allclose(a.division_times, b.division_times)

    def test_long_horizon_hits_the_cell_cap_quickly(self):
        start = time.perf_counter()
        with pytest.raises(InvalidRequest, match=f"more than {MAX_SIMULATED_CELLS} cells"):
            KernelBuilder().build(np.linspace(0.0, 3000.0, 8))
        assert time.perf_counter() - start < 1.0

    def test_experiment_horizons_stay_far_below_the_cap(self, simulator):
        history = simulator.run(40_000, 180.0, rng=1)
        assert 10 * history.num_cells < MAX_SIMULATED_CELLS

    @pytest.mark.parametrize("founders", [1, 20_000])
    def test_cell_cap_holds_for_any_founder_count(self, simulator, founders):
        start = time.perf_counter()
        with pytest.raises(InvalidRequest, match=f"{founders} founder cells"):
            simulator.run(founders, 6000.0, rng=2)
        assert time.perf_counter() - start < 1.0

    def test_founders_past_the_cap_are_refused(self, simulator):
        # Nothing divides before t = 1 min, so only the check made before the
        # cohort is drawn can refuse this.
        with pytest.raises(InvalidRequest, match="founder cells"):
            simulator.run(MAX_SIMULATED_CELLS + 1, 1.0, rng=0)

    def test_invalid_arguments(self, simulator):
        with pytest.raises(ValueError):
            simulator.run(0, 100.0)
        with pytest.raises(ValueError):
            simulator.run(10, -1.0)


class TestSnapshots:
    def test_phases_within_unit_interval(self, simulator, history):
        for time in (0.0, 40.0, 100.0, 170.0):
            snapshot = simulator.snapshot(history, time)
            assert np.all((snapshot.phases >= 0.0) & (snapshot.phases <= 1.0))

    def test_initial_snapshot_matches_swarmer_synchrony(self, simulator, history):
        snapshot = simulator.snapshot(history, 0.0)
        assert np.all(snapshot.phases <= snapshot.transition_phases + 1e-12)

    def test_volumes_positive_and_bounded(self, simulator, history):
        snapshot = simulator.snapshot(history, 120.0)
        assert np.all(snapshot.volumes > 0)
        assert np.all(snapshot.volumes <= simulator.volume_model.v0 + 1e-12)
        assert snapshot.total_volume == pytest.approx(np.sum(snapshot.volumes))

    def test_total_volume_grows_with_time(self, simulator, history):
        volumes = [simulator.snapshot(history, t).total_volume for t in (0.0, 60.0, 120.0, 175.0)]
        assert all(later > earlier for earlier, later in zip(volumes, volumes[1:]))

    def test_snapshots_helper_matches_single_calls(self, simulator, history):
        times = np.array([10.0, 90.0])
        many = simulator.snapshots(history, times)
        assert len(many) == 2
        assert many[0].num_cells == simulator.snapshot(history, 10.0).num_cells

    def test_negative_time_rejected(self, simulator, history):
        with pytest.raises(ValueError):
            simulator.snapshot(history, -5.0)


class TestMeanPhaseProgression:
    def test_mean_phase_increases_then_resets_on_division_wave(self):
        """Before the first divisions the mean phase advances ~ t / T."""
        params = CellCycleParameters(cv_cycle_time=0.05)
        simulator = PopulationSimulator(params)
        history = simulator.run(4000, 100.0, rng=4)
        mean_early = np.mean(simulator.snapshot(history, 30.0).phases)
        mean_later = np.mean(simulator.snapshot(history, 90.0).phases)
        assert mean_later > mean_early
        assert mean_later == pytest.approx(0.075 + 90.0 / 150.0, abs=0.05)

    def test_asynchronous_culture_keeps_flat_phase_distribution(self):
        simulator = PopulationSimulator(initial_condition=InitialCondition.ASYNCHRONOUS)
        history = simulator.run(8000, 150.0, rng=5)
        snapshot = simulator.snapshot(history, 150.0)
        counts, _ = np.histogram(snapshot.phases, bins=10, range=(0, 1))
        fractions = counts / snapshot.num_cells
        # An asynchronous exponential culture stays broadly spread over phase
        # (younger phases slightly over-represented).
        assert fractions.min() > 0.04
        assert fractions.max() < 0.2


class TestPhasesAtManyMemo:
    def test_repeat_call_returns_memoised_arrays(self):
        simulator = PopulationSimulator(CellCycleParameters())
        history = simulator.run(600, 150.0, rng=11)
        times = np.linspace(0.0, 150.0, 6)
        first = history.phases_at_many(times)
        second = history.phases_at_many(times)
        for a, b in zip(first, second):
            assert a is b
            assert not a.flags.writeable

    def test_different_grid_invalidates_memo(self):
        simulator = PopulationSimulator(CellCycleParameters())
        history = simulator.run(600, 150.0, rng=11)
        first = history.phases_at_many(np.linspace(0.0, 150.0, 6))
        other = history.phases_at_many(np.linspace(0.0, 150.0, 7))
        assert first[0] is not other[0]
        assert other[0].size != first[0].size
