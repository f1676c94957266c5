"""Fits and metrics that turn simulated time series into quoted quantities.

The sinusoid fitter recovers the exchange frequency from population
oscillations (model: offset + amplitude/2 * cos(2 pi f t + phase), so the
amplitude is the full peak-to-trough swing) with a short Levenberg-Marquardt
loop in numpy on the model's analytic Jacobian.  The power-law fitter extracts
the distance scaling of the interaction energy, with an optional fixed
exponent for prefactor calibration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DataError, FitError

#: Fewest points of a series :func:`fit_sinusoid` accepts.
MIN_FIT_POINTS = 8

#: Fewest sampling steps a window of :func:`envelope_contrast` spans.
MIN_WINDOW_STEPS = 4.0

#: Damped steps, accepted or rejected, before the sinusoid fit gives up.
_MAX_ITERATIONS = 200

#: Relative step or cost change at which the sinusoid fit has converged.
_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class OscillationFit:
    frequency: float        # MHz, > 0
    amplitude: float        # peak-to-trough swing
    offset: float
    phase: float            # rad, in (-pi, pi]
    contrast: float         # swing relative to the maximal swing of 1
    residual_rms: float


@dataclass(frozen=True)
class PowerLawFit:
    exponent: float
    prefactor: float
    exponent_stderr: float
    prefactor_stderr: float


def _median(values: np.ndarray) -> float:
    """The value ``np.median`` gives for a 1-d array without NaNs.

    ``np.median`` imports ``numpy.ma`` on its first call, which costs more
    than a whole sinusoid fit; the middle values come from one partition.
    """
    lo, hi = (values.size - 1) // 2, values.size // 2
    part = np.partition(values, (lo, hi))
    return float(0.5 * (part[lo] + part[hi]))


def _initial_guess(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """Dominant frequency and phase of the series from a uniform-grid FFT.

    The frequency is refined by parabolic interpolation around the peak bin
    and the phase is read off the peak's complex argument.  Raises FitError
    when no spectral peak stands above the noise floor.
    """
    uniform_t = np.linspace(times[0], times[-1], max(len(times), 256))
    uniform_v = np.interp(uniform_t, times, values)
    transform = np.fft.rfft(uniform_v - uniform_v.mean())
    spectrum = np.abs(transform)
    freqs = np.fft.rfftfreq(len(uniform_t), uniform_t[1] - uniform_t[0])
    spectrum[0] = 0.0
    peak = int(np.argmax(spectrum))
    floor = _median(spectrum)
    if spectrum[peak] <= 10.0 * floor or spectrum[peak] == 0.0:
        raise FitError(
            "no spectral peak above noise floor "
            f"(peak {spectrum[peak]:.3g} vs floor {floor:.3g})"
        )
    f0 = freqs[peak]
    if 1 <= peak < len(spectrum) - 1:
        y1, y2, y3 = spectrum[peak - 1 : peak + 2]
        denom = y1 - 2.0 * y2 + y3
        if denom != 0.0:
            shift = 0.5 * (y1 - y3) / denom
            f0 = f0 + np.clip(shift, -0.5, 0.5) * freqs[1]
    phi0 = float(np.angle(transform[peak])) - 2.0 * np.pi * f0 * uniform_t[0]
    return float(f0), phi0


def _levenberg_marquardt(t: np.ndarray, v: np.ndarray, x: np.ndarray):
    """Least-squares refinement of x = (offset, half_amp, f, phi).

    Each step solves the normal equations of the analytic Jacobian with
    Marquardt's damping, scaled by the largest squared column norms seen
    so far.  Returns the parameters and their residuals once a step or the
    cost change falls to rounding level; raises FitError at the iteration
    cap.
    """
    omega_t = 2.0 * np.pi * t

    def residuals(x):
        return x[0] + x[1] * np.cos(omega_t * x[2] + x[3]) - v

    r = residuals(x)
    cost = r @ r
    damping = 1e-3
    scale = np.zeros(4)
    for _ in range(_MAX_ITERATIONS):
        arg = omega_t * x[2] + x[3]
        cos, sin = np.cos(arg), np.sin(arg)
        jac = np.stack([np.ones_like(t), cos, -x[1] * sin * omega_t, -x[1] * sin], axis=1)
        normal = jac.T @ jac
        scale = np.maximum(scale, np.diag(normal))
        step = np.linalg.solve(normal + damping * np.diag(scale), -(jac.T @ r))
        trial = x + step
        r_trial = residuals(trial)
        cost_trial = r_trial @ r_trial
        small_step = np.linalg.norm(step) <= _TOL * (np.linalg.norm(x) + _TOL)
        if cost_trial < cost:
            small_change = cost - cost_trial <= _TOL * cost
            x, r, cost = trial, r_trial, cost_trial
            damping *= 0.1
            if small_step or small_change:
                return x, r
        elif small_step:
            return x, r
        else:
            damping *= 10.0
    raise FitError(
        f"sinusoid fit did not converge: {_MAX_ITERATIONS} steps reached "
        f"(cost {cost:.3g})"
    )


def fit_sinusoid(times, values) -> OscillationFit:
    """Nonlinear least-squares sinusoid fit of a population series.

    Needs at least MIN_FIT_POINTS points spanning at least one oscillation
    period.  The initial frequency comes from the discrete spectrum;
    refinement is a numpy Levenberg-Marquardt loop on the analytic Jacobian,
    run until its steps reach rounding level.  The fitted amplitude is
    normalized to be non-negative with frequency > 0, and the contrast is
    the swing clipped to [0, 1].
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise DataError("times and values must be 1-d arrays of equal length")
    if t.size < MIN_FIT_POINTS:
        raise DataError(f"need at least {MIN_FIT_POINTS} points, got {t.size}")

    f0, phi0 = _initial_guess(t, v)
    a0 = 2.0 * np.sqrt(2.0) * np.std(v)
    x0 = np.array([v.mean(), 0.5 * a0, f0, phi0])
    (offset, half_amp, freq, phase), residuals = _levenberg_marquardt(t, v, x0)
    if half_amp < 0:
        half_amp, phase = -half_amp, phase + np.pi
    if freq < 0:
        freq, phase = -freq, -phase
    if freq * (t[-1] - t[0]) < 1.0:
        raise FitError(
            f"series spans {freq * (t[-1] - t[0]):.2f} periods of the fitted "
            "frequency; need at least one"
        )
    phase = float(np.angle(np.exp(1j * phase)))
    amplitude = 2.0 * half_amp
    rms = float(np.sqrt(np.mean(residuals**2)))
    return OscillationFit(
        frequency=float(freq),
        amplitude=float(amplitude),
        offset=float(offset),
        phase=phase,
        contrast=float(np.clip(amplitude, 0.0, 1.0)),
        residual_rms=rms,
    )


def fit_power_law(radii, energies, exponent: Optional[float] = None) -> PowerLawFit:
    """Power-law fit E = prefactor * R^exponent by least squares in log-log.

    With ``exponent`` given, only the prefactor is fitted (fixed-exponent
    variant used for prefactor calibration).  Standard errors come from the
    residual-scaled fit covariance and vanish on noiseless data.
    """
    r = np.asarray(radii, dtype=float)
    e = np.asarray(energies, dtype=float)
    if r.ndim != 1 or r.shape != e.shape:
        raise DataError("radii and energies must be 1-d arrays of equal length")
    if r.size < 3:
        raise DataError(f"power-law fit needs at least 3 points, got {r.size}")
    if np.any(r <= 0) or np.any(e <= 0):
        raise DataError("power-law fit requires positive radii and energies")
    log_r = np.log(r)
    log_e = np.log(e)
    n = r.size

    if exponent is not None:
        log_c = log_e - exponent * log_r
        mean = float(log_c.mean())
        resid = log_c - mean
        stderr = float(np.sqrt(np.sum(resid**2) / (n - 1) / n)) if n > 1 else 0.0
        prefactor = float(np.exp(mean))
        return PowerLawFit(
            exponent=float(exponent),
            prefactor=prefactor,
            exponent_stderr=0.0,
            prefactor_stderr=prefactor * stderr,
        )

    coeffs, cov = np.polyfit(log_r, log_e, 1, cov="unscaled" if n <= 3 else True)
    slope, intercept = coeffs
    if n <= 3:
        # polyfit cannot scale the covariance with <= p + 1 points
        resid = log_e - np.polyval(coeffs, log_r)
        scale = np.sum(resid**2) / max(n - 2, 1)
        cov = cov * scale
    stderr = np.sqrt(np.abs(np.diag(cov)))
    prefactor = float(np.exp(intercept))
    return PowerLawFit(
        exponent=float(slope),
        prefactor=prefactor,
        exponent_stderr=float(stderr[0]),
        prefactor_stderr=prefactor * float(stderr[1]),
    )


def beat_spectrum(eigenvalues) -> np.ndarray:
    """All pairwise eigenvalue differences |l_i - l_j|, i < j, ascending."""
    values = np.asarray(eigenvalues, dtype=float)
    if values.size < 2:
        raise DataError("beat spectrum needs at least 2 eigenvalues")
    i, j = np.triu_indices(values.size, k=1)
    return np.sort(np.abs(values[i] - values[j]))


def envelope_contrast(times, values, window: float) -> tuple[np.ndarray, np.ndarray]:
    """Sliding-window max-minus-min of a series, for collapse/revival metrics.

    The window (us) must span at least one local oscillation period to be
    meaningful; windows that cannot hold a handful of samples are rejected.
    Returns (times, contrast) on the input time grid.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise DataError("times and values must be 1-d arrays of equal length")
    spacing = _median(np.diff(t))
    if window < MIN_WINDOW_STEPS * spacing:
        raise ConfigError(
            f"envelope window {window:g} us too small for sample spacing "
            f"{spacing:g} us"
        )
    half = 0.5 * window
    contrast = np.empty_like(v)
    for k, tk in enumerate(t):
        lo = np.searchsorted(t, tk - half, side="left")
        hi = np.searchsorted(t, tk + half, side="right")
        win = v[lo:hi]
        contrast[k] = win.max() - win.min()
    return t, contrast
