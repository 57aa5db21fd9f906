"""Tests for repro.core.uncertainty (bootstrap confidence bands)."""

import numpy as np
import pytest

from repro.core.deconvolver import Deconvolver
from repro.core.uncertainty import bootstrap_deconvolution
from repro.data.noise import GaussianMagnitudeNoise
from repro.data.synthetic import single_pulse_profile


@pytest.fixture(scope="module")
def noisy_data(small_kernel):
    truth = single_pulse_profile(center=0.45, width=0.12, amplitude=2.0, baseline=0.3)
    clean = small_kernel.apply_function(truth)
    noise = GaussianMagnitudeNoise(0.06)
    values = noise.apply(clean, 4)
    sigma = noise.standard_deviations(clean)
    return truth, values, sigma


@pytest.fixture(scope="module")
def band(small_kernel, paper_parameters, noisy_data):
    truth, values, sigma = noisy_data
    deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=12)
    return bootstrap_deconvolution(
        deconvolver,
        small_kernel.times,
        values,
        sigma=sigma,
        lam=1e-3,
        num_replicates=12,
        coverage=0.9,
        num_phase_points=101,
        rng=0,
    )


class TestBootstrapBand:
    def test_shapes(self, band):
        assert band.phases.shape == band.estimate.shape == band.lower.shape == band.upper.shape
        assert band.replicates.shape == (12, band.phases.size)
        assert band.num_replicates == 12

    def test_band_ordering(self, band):
        assert np.all(band.lower <= band.upper + 1e-12)
        assert np.all(band.band_width() >= -1e-12)

    def test_band_roughly_brackets_estimate(self, band):
        inside = (band.estimate >= band.lower - 1e-9) & (band.estimate <= band.upper + 1e-9)
        assert np.mean(inside) > 0.7

    def test_band_mostly_covers_truth(self, band, noisy_data):
        truth, _, _ = noisy_data
        assert band.contains(truth(band.phases)) > 0.5

    def test_contains_validates_length(self, band):
        with pytest.raises(ValueError):
            band.contains(np.ones(7))

    def test_replicates_nonnegative(self, band):
        assert np.min(band.replicates) >= -5e-3


class TestBootstrapOptions:
    def test_nonparametric_resampling(self, small_kernel, paper_parameters, noisy_data):
        _, values, sigma = noisy_data
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=10)
        result = bootstrap_deconvolution(
            deconvolver, small_kernel.times, values, sigma=sigma,
            lam=1e-3, num_replicates=6, parametric=False, num_phase_points=61, rng=1,
        )
        assert result.replicates.shape == (6, 61)

    def test_deterministic_for_seed(self, small_kernel, paper_parameters, noisy_data):
        _, values, sigma = noisy_data
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=10)
        kwargs = dict(sigma=sigma, lam=1e-3, num_replicates=5, num_phase_points=41)
        a = bootstrap_deconvolution(deconvolver, small_kernel.times, values, rng=7, **kwargs)
        b = bootstrap_deconvolution(deconvolver, small_kernel.times, values, rng=7, **kwargs)
        assert np.allclose(a.replicates, b.replicates)

    def test_validation(self, small_kernel, paper_parameters, noisy_data):
        _, values, sigma = noisy_data
        deconvolver = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=10)
        with pytest.raises(ValueError):
            bootstrap_deconvolution(
                deconvolver, small_kernel.times, values, sigma=sigma, num_replicates=1
            )
        with pytest.raises(ValueError):
            bootstrap_deconvolution(
                deconvolver, small_kernel.times, values, sigma=sigma, coverage=1.5
            )


class TestBootstrapEngines:
    @pytest.mark.parametrize("parametric", [True, False])
    def test_batch_equals_serial_replicates(
        self, small_kernel, paper_parameters, noisy_data, parametric, certify
    ):
        """The stacked replicate solve equals one fit per replicate.

        The reference redraws the replicate data sets in the bootstrap's own
        generator order (base fit first, then one draw per replicate), fits
        each with :meth:`Deconvolver.fit` and certifies it; the bootstrap's
        replicate profiles must match those fits to 1e-10.
        """
        _, values, sigma = noisy_data
        times = small_kernel.times
        num_replicates, phases = 12, np.linspace(0.0, 1.0, 61)
        band = bootstrap_deconvolution(
            Deconvolver(small_kernel, parameters=paper_parameters, num_basis=10),
            times,
            values,
            sigma=sigma,
            lam=1e-3,
            num_replicates=num_replicates,
            parametric=parametric,
            num_phase_points=phases.size,
            rng=3,
        )

        serial = Deconvolver(small_kernel, parameters=paper_parameters, num_basis=10)
        generator = np.random.default_rng(3)
        base = serial.fit(times, values, sigma=sigma, lam=1e-3, rng=generator)
        assert band.base_result.lam == base.lam
        centred = base.residuals - np.mean(base.residuals)
        for index in range(num_replicates):
            if parametric:
                noise = generator.normal(0.0, base.sigma)
            else:
                noise = generator.choice(centred, size=centred.size, replace=True)
            synthetic = base.fitted + noise
            replicate = serial.fit(times, synthetic, sigma=sigma, lam=base.lam, rng=generator)
            assert replicate.lam == base.lam
            program = serial.build_problem(times, synthetic, sigma=sigma).quadratic_program(
                replicate.lam
            )
            certify(program, replicate.coefficients, replicate.solver_active_set)
            gap = np.max(np.abs(band.replicates[index] - replicate.profile(phases)))
            assert gap <= 1e-10
