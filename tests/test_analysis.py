from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import least_squares

from xychain import analysis
from xychain.analysis import (
    beat_spectrum,
    envelope_contrast,
    fit_power_law,
    fit_sinusoid,
)
from xychain.cli import read_table
from xychain.errors import ConfigError, DataError, FitError

GOLDEN_EXCHANGE = (
    Path(__file__).parent / "golden" / "tables" / "two-atom-exchange-full"
    / "two-atom-exchange_observed.csv"
)


def _fit_series() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Clean, noisy and damped oscillations, and a simulated P_10 record."""
    series = {}
    t = np.linspace(0.0, 10.0, 201)
    series["sin-squared"] = t, np.sin(2 * np.pi * 0.295 * t) ** 2
    t = np.linspace(0.0, 8.0, 160)
    series["offset-phase"] = t, 0.42 + 0.3 * np.cos(2 * np.pi * 0.8 * t + 0.7)
    t = np.linspace(0.0, 12.0, 240)
    series["cosine"] = t, 0.5 + 0.3 * np.cos(2 * np.pi * 0.5 * t)
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 10.0, 400)
    for k in range(4):
        damping = np.exp(-t / rng.uniform(3.0, 30.0))
        signal = 0.5 + 0.25 * damping * np.cos(2 * np.pi * 1.3 * t - 0.4)
        series[f"noisy-damped-{k}"] = t, signal + rng.normal(0.0, 0.01 * (k + 1), t.size)
    columns, data = read_table(GOLDEN_EXCHANGE)
    series["golden-P_10"] = data[:, columns.index("tau_us")], data[:, columns.index("P_10")]
    return series


FIT_SERIES = _fit_series()


class TestFitSinusoid:
    def test_two_atom_oracle_frequency(self):
        # sin^2 at 0.295 MHz oscillates at twice that
        t = np.linspace(0.0, 10.0, 201)
        fit = fit_sinusoid(t, np.sin(2 * np.pi * 0.295 * t) ** 2)
        assert fit.frequency == pytest.approx(0.59, rel=1e-6)
        assert fit.contrast == pytest.approx(1.0, abs=1e-6)
        assert fit.offset == pytest.approx(0.5, abs=1e-6)

    def test_parameter_recovery(self):
        t = np.linspace(0.0, 8.0, 160)
        signal = 0.42 + 0.3 * np.cos(2 * np.pi * 0.8 * t + 0.7)
        fit = fit_sinusoid(t, signal)
        assert fit.frequency == pytest.approx(0.8, rel=1e-3)
        assert fit.amplitude == pytest.approx(0.6, rel=1e-3)
        assert fit.offset == pytest.approx(0.42, rel=1e-3)
        assert fit.phase == pytest.approx(0.7, abs=1e-3)
        assert fit.residual_rms < 1e-9

    def test_amplitude_maps_to_contrast(self):
        t = np.linspace(0.0, 12.0, 240)
        fit = fit_sinusoid(t, 0.5 + 0.3 * np.cos(2 * np.pi * 0.5 * t))
        assert fit.contrast == pytest.approx(0.6, abs=1e-3)

    def test_constant_series_fails(self):
        t = np.linspace(0.0, 10.0, 100)
        with pytest.raises(FitError, match="noise floor"):
            fit_sinusoid(t, np.full_like(t, 0.3))

    def test_too_few_points_rejected(self):
        with pytest.raises(DataError):
            fit_sinusoid([0, 1, 2], [0.1, 0.9, 0.1])

    def test_noisy_recovery_within_tolerance(self, rng):
        t = np.linspace(0.0, 10.0, 400)
        signal = 0.5 + 0.25 * np.cos(2 * np.pi * 1.3 * t - 0.4)
        noisy = signal + rng.normal(0, 0.01, size=t.size)
        fit = fit_sinusoid(t, noisy)
        assert fit.frequency == pytest.approx(1.3, rel=2e-3)
        assert fit.amplitude == pytest.approx(0.5, rel=0.05)

    def test_frequency_positive(self):
        t = np.linspace(0.0, 10.0, 200)
        fit = fit_sinusoid(t, np.cos(2 * np.pi * 0.7 * t))
        assert fit.frequency > 0


class TestFitSinusoidAgainstScipy:
    """The numpy Levenberg-Marquardt loop against scipy's MINPACK ``lm``."""

    @pytest.mark.parametrize("name", sorted(FIT_SERIES))
    def test_matches_scipy_least_squares(self, name):
        t, v = FIT_SERIES[name]
        f0, phi0 = analysis._initial_guess(t, v)
        x0 = np.array([v.mean(), np.sqrt(2.0) * np.std(v), f0, phi0])

        def residuals(x):
            return x[0] + x[1] * np.cos(2.0 * np.pi * x[2] * t + x[3]) - v

        reference = least_squares(residuals, x0, method="lm", max_nfev=20000)
        assert reference.success
        fit = fit_sinusoid(t, v)
        rss = t.size * fit.residual_rms**2
        rss_scipy = float(reference.fun @ reference.fun)
        assert rss <= rss_scipy * (1.0 + 1e-9) + 1e-24
        assert fit.frequency == pytest.approx(abs(reference.x[2]), rel=1e-6)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_MAX_ITERATIONS", 1)
        t = np.linspace(0.0, 8.0, 160)
        with pytest.raises(FitError, match="did not converge"):
            fit_sinusoid(t, 0.42 + 0.3 * np.cos(2 * np.pi * 0.8 * t + 0.7))


class TestFitPowerLaw:
    def test_exact_on_noiseless_reference_scan(self):
        radii = np.array([20.0, 25.0, 30.0, 40.0, 47.0, 50.0])
        energies = 7965.0 / radii**3
        fit = fit_power_law(radii, energies)
        assert fit.exponent == pytest.approx(-3.0, abs=1e-3)
        assert fit.prefactor == pytest.approx(7965.0, rel=1e-6)
        assert fit.exponent_stderr < 1e-3

    def test_exact_for_any_exponent(self, rng):
        radii = np.linspace(18.0, 55.0, 9)
        for exponent in rng.uniform(-5.0, -1.0, size=8):
            energies = 3.3 * radii**exponent
            fit = fit_power_law(radii, energies)
            assert fit.exponent == pytest.approx(exponent, abs=1e-10)
            assert fit.prefactor == pytest.approx(3.3, rel=1e-9)

    def test_fixed_exponent_prefactor(self):
        radii = np.array([20.0, 30.0, 40.0])
        energies = 7965.0 / radii**3
        fit = fit_power_law(radii, energies, exponent=-3.0)
        assert fit.prefactor == pytest.approx(7965.0, rel=1e-12)
        assert fit.exponent_stderr == 0.0

    def test_noise_scatter_matches_reported_uncertainty(self, rng):
        # 5% distance-calibration noise gives exponent scatter near +-0.2
        radii = np.array([20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0])
        exponents = []
        for _ in range(300):
            r_true = radii * (1.0 + 0.05 * rng.standard_normal(radii.size))
            energies = 7965.0 / r_true**3
            exponents.append(fit_power_law(radii, energies).exponent)
        scatter = np.std(exponents)
        assert 0.08 < scatter < 0.40
        assert np.mean(exponents) == pytest.approx(-3.0, abs=0.1)

    def test_data_errors(self):
        with pytest.raises(DataError):
            fit_power_law([30.0], [0.3])
        with pytest.raises(DataError):
            fit_power_law([10.0, 20.0, -5.0], [1.0, 0.5, 0.1])
        with pytest.raises(DataError):
            fit_power_law([10.0, 20.0, 30.0], [1.0, 0.0, 0.1])


class TestBeatSpectrum:
    def test_nn_chain_beats(self):
        beats = beat_spectrum([-np.sqrt(2), 0.0, np.sqrt(2)])
        assert np.allclose(beats, [np.sqrt(2), np.sqrt(2), 2 * np.sqrt(2)])

    def test_full_chain_beats(self):
        beats = beat_spectrum([-1.3531, -0.1250, 1.4781])
        assert np.allclose(beats, [1.2281, 1.6031, 2.8312], atol=1e-4)

    def test_duplicate_eigenvalue(self):
        assert beat_spectrum([0.7, 0.7]) == pytest.approx([0.0])

    def test_output_length_is_n_choose_2(self, rng):
        for n in (2, 3, 5, 8):
            beats = beat_spectrum(rng.normal(size=n))
            assert beats.size == n * (n - 1) // 2
            assert np.all(np.diff(beats) >= 0)

    def test_needs_two_values(self):
        with pytest.raises(DataError):
            beat_spectrum([1.0])


class TestMedian:
    @pytest.mark.parametrize("size", [1, 2, 128, 129])
    def test_matches_numpy_median(self, rng, size):
        values = rng.normal(size=size)
        assert analysis._median(values) == np.median(values)
        ties = np.round(values, 1)
        assert analysis._median(ties) == np.median(ties)


class TestEnvelopeContrast:
    def test_undamped_sinusoid_is_flat(self):
        t = np.linspace(0.0, 10.0, 500)
        _, contrast = envelope_contrast(t, np.sin(2 * np.pi * 1.0 * t), window=2.0)
        inner = contrast[(t > 1.0) & (t < 9.0)]
        assert inner.max() - inner.min() < 1e-2
        assert inner.mean() == pytest.approx(2.0, abs=1e-2)

    def test_damped_sinusoid_decreases(self):
        t = np.linspace(0.0, 10.0, 500)
        signal = np.exp(-t / 3.0) * np.cos(2 * np.pi * 1.5 * t)
        _, contrast = envelope_contrast(t, signal, window=1.5)
        inner = np.where((t > 1.0) & (t < 9.0))[0]
        assert np.all(np.diff(contrast[inner]) < 1e-6)

    def test_window_too_small_rejected(self):
        t = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ConfigError, match="window"):
            envelope_contrast(t, np.sin(t), window=0.1)
