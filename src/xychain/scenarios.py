"""Pre-built end-to-end experiments tying all modules together.

Each scenario reproduces one figure of the reference experiment: two-atom
exchange oscillations, the interaction-vs-distance scan, excitation transfer
along the three-atom chain, the decomposition of thermal damping into loss
and motion, the twenty-atom transport simulation, and the detection-error
calibration.  Scenarios come in two modes where applicable:

* ``ideal``: instantaneous perfect preparation, no dissipation, no motion,
  no detection errors; closed-system dynamics only (theory curves).
* ``full``: the complete pulse sequence integrated as a master equation with
  thermal Monte-Carlo averaging and the detection forward model, whose loss
  model ``epsilon: {backend: none}`` switches off.  Two-atom exchange, the
  three-atom chain and the temperature ablation run this one exchange
  experiment through one helper.

Every scenario is deterministic under its master seed; Monte-Carlo draws and
noise realizations derive from it through a fixed seed lineage.

A runner declares each of its options once, as a parameter
``name: Annotated[<type>, "<help>"] = <default>``; the catalog, the
option-key check and the options echoed in a result all derive from it.
A default is one object shared by every direct call of its runner, so
runners treat option values as read-only; ``run_scenario`` passes each run
its own copies.
"""

from __future__ import annotations

import copy
import inspect
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Annotated, Callable, NamedTuple, Optional

import numpy as np

from . import analysis, detection, obe, thermal, xy
from .errors import ConfigError, DataError
from .model import ChainGeometry, PhysicalParams

#: Trap depth (uK) of the recapture-model epsilon backend, calibrated by
#: root-finding the depth at which the 50 uK model reaches a 20% loss
#: probability after 7 us of free flight over a 1% background floor.
RECAPTURE_TRAP_DEPTH = 2092.0

#: Default measured-style loss calibration: a 1% background floor rising
#: linearly to ~20% at 7 us of trap-off time.
EPSILON_FLOOR = 0.01
EPSILON_SLOPE = 0.027  # per us

#: Loss-model option keys, each with the values it accepts, or None when
#: they form no fixed set (numbers are checked by ``_EPSILON_NUMBERS``).
_EPSILON_OPTIONS = {
    "backend": ("table", "recapture_mc", "none"), "table_path": None,
    "table_kind": ("epsilon", "p111"), "floor": None, "slope": None,
    "trap_depth": None, "n_mc": None,
}

#: Numeric option checks: the values a key accepts, and the test a real
#: number must pass for it.
_COUNT = ("an integer >= 1", lambda v: isinstance(v, numbers.Integral) and v >= 1)
_EPSILON_NUMBERS = {
    "floor": ("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    "slope": ("a finite number", math.isfinite),
    "trap_depth": ("a finite number > 0", lambda v: math.isfinite(v) and v > 0.0),
    "n_mc": _COUNT,
}

_EPSILON_HELP = "loss-model options: " + ", ".join(
    f"{key} ({' | '.join(choices)})" if choices else key
    for key, choices in _EPSILON_OPTIONS.items()
)

#: Runner parameters that ``run_scenario`` supplies itself; every other
#: parameter is a scenario option.
_NOT_OPTIONS = ("params", "seed", "workers")


@dataclass(frozen=True)
class Table:
    """A plot-ready time-series or scan table."""

    columns: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim != 2 or data.shape[1] != len(self.columns):
            raise ValueError(
                f"table data {data.shape} does not match {len(self.columns)} columns"
            )
        data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "columns", tuple(self.columns))

    def column(self, name: str) -> np.ndarray:
        return self.data[:, self.columns.index(name)]


@dataclass(frozen=True)
class ScenarioResult:
    scenario: str
    seed: int
    options: dict
    tables: dict[str, Table]
    summary: dict


def _runner_options(runner: Callable) -> dict[str, tuple[object, str]]:
    """Option name -> (default, help), read off the runner's signature.

    Each option parameter is declared ``Annotated[<type>, "<help>"] =
    <default>``; one without help text or default is a programming error.
    """
    options = {}
    for name, param in inspect.signature(runner, eval_str=True).parameters.items():
        if name in _NOT_OPTIONS:
            continue
        metadata = getattr(param.annotation, "__metadata__", ())
        helps = [m for m in metadata if isinstance(m, str)]
        if not helps or param.default is param.empty:
            raise TypeError(
                f"{runner.__name__}: option {name!r} needs Annotated[type, help] = default"
            )
        options[name] = (param.default, helps[0])
    return options


@dataclass(frozen=True)
class ScenarioSpec:
    """A catalog entry; its options are derived from the runner signature."""

    name: str
    summary: str
    anchor: str
    runner: Callable = field(repr=False, compare=False)
    options: dict[str, tuple[object, str]] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "options", _runner_options(self.runner))


def _tau_grid(tau_max: float, tau_step: float) -> np.ndarray:
    if tau_max <= 0 or tau_step <= 0:
        raise ConfigError("tau_max and tau_step must be positive")
    n = int(round(tau_max / tau_step))
    return np.linspace(0.0, n * tau_step, n + 1)


def _fit_tau_grid(tau_max: float, tau_step: float) -> np.ndarray:
    """The tau grid of a curve that gets a sinusoid fit, refused before any
    scan runs when it has too few points for the fit."""
    taus = _tau_grid(tau_max, tau_step)
    if len(taus) < analysis.MIN_FIT_POINTS:
        raise ConfigError(
            f"tau_max {tau_max:g} us at tau_step {tau_step:g} us gives {len(taus)} "
            f"tau points; the sinusoid fit needs at least {analysis.MIN_FIT_POINTS}"
        )
    return taus


def _pi_time(frequency: float) -> float:
    """Duration of a resonant pi pulse at ordinary Rabi frequency (MHz)."""
    return 1.0 / (2.0 * frequency)


def exchange_prefix(params: PhysicalParams, n_atoms: int):
    """Preparation segments: shift atom 0 aside, excite and transfer the
    rest to the lower spin state, then excite atom 0."""
    t_opt = _pi_time(float(np.mean(params.omega_opt_per_atom(n_atoms))))
    t_mw = _pi_time(params.omega_mw)
    mask = tuple(i == 0 for i in range(n_atoms))
    return [
        obe.PulseSegment.optical(t_opt, addressing_mask=mask),
        obe.PulseSegment.microwave(t_mw),
        obe.PulseSegment.optical(t_opt),
    ]


def deexcite_suffix(params: PhysicalParams, n_atoms: int):
    """Readout segment mapping the upper spin state back to the ground state."""
    t_opt = _pi_time(float(np.mean(params.omega_opt_per_atom(n_atoms))))
    return [obe.PulseSegment.optical(t_opt)]


def _epsilon_choice(key: str, value):
    """``value`` of the restricted loss-model option ``key``, checked."""
    choices = _EPSILON_OPTIONS[key]
    if value not in choices:
        raise ConfigError(
            f"options.epsilon.{key}: unknown value {value!r} "
            f"(expected one of: {', '.join(choices)})"
        )
    return value


def _check_number(path: str, value, expected: str, test: Callable) -> None:
    """Refuse ``value`` at config ``path`` unless it is a real number
    (not a bool) that passes ``test``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not test(value):
        raise ConfigError(f"{path}: expected {expected}, got {value!r}")


def resolve_epsilon_model(
    epsilon_options: Optional[dict], params: PhysicalParams, seed: int, t_max: float
) -> detection.EpsilonModel:
    """Build the loss model a scenario declared in its options (keys and
    choices checked by :func:`scenario_options`)."""
    epsilon_options = epsilon_options or {}
    backend = _epsilon_choice("backend", epsilon_options.get("backend", "table"))
    if backend == "none":
        return detection.EpsilonModel.constant(0.0)
    if backend == "table":
        path = epsilon_options.get("table_path")
        if path:
            t, eps = load_epsilon_table(path, epsilon_options.get("table_kind", "epsilon"))
            return detection.EpsilonModel.from_table(t, eps)
        floor = epsilon_options.get("floor", EPSILON_FLOOR)
        slope = epsilon_options.get("slope", EPSILON_SLOPE)
        t = np.linspace(0.0, max(t_max, 12.0), 25)
        return detection.EpsilonModel.from_table(t, np.clip(floor + slope * t, 0, 1))
    depth = epsilon_options.get("trap_depth", RECAPTURE_TRAP_DEPTH)
    floor = epsilon_options.get("floor", EPSILON_FLOOR)
    n_mc = int(epsilon_options.get("n_mc", 200_000))
    grid = np.linspace(0.0, max(t_max, 8.0), 17)
    eps = [
        thermal.recapture_epsilon(params, depth, t, n_mc, seed=seed, floor=floor)
        for t in grid
    ]
    return detection.EpsilonModel.from_table(grid, eps)


def load_epsilon_table(path, kind: str = "epsilon"):
    """Two-column numeric text (t_us, epsilon or P_111); '#' comments allowed."""
    data = np.loadtxt(path, comments="#", ndmin=2)
    if data.shape[1] < 2:
        raise DataError(f"calibration table {path} needs two columns")
    t, value = data[:, 0], data[:, 1]
    if _epsilon_choice("table_kind", kind) == "epsilon":
        return t, value
    if np.any((value <= 0) | (value > 1)):
        raise DataError("P_111 calibration values must lie in (0, 1]")
    return t, 1.0 - value ** (1.0 / 3.0)


def _ideal_run(
    geometry: ChainGeometry,
    params: PhysicalParams,
    taus: np.ndarray,
    columns: tuple[str, ...],
    range_mode: str = "full",
) -> tuple[xy.CouplingMatrix, Table, np.ndarray]:
    """Theory curves of the chain at rest without loss: its coupling matrix,
    the table of site populations (named ``columns``) after an excitation
    at site 0, and the matrix eigenvalues."""
    matrix = xy.build_coupling_matrix(geometry, params, range_mode)
    pops = xy.propagate(matrix, xy.SpinState.excitation_at(geometry.n_atoms, 0), taus)
    table = Table(("tau_us", *columns), np.column_stack([taus, *pops]))
    return matrix, table, xy.eigenmodes(matrix)[0]


class _Readout(NamedTuple):
    true_patterns: np.ndarray   # (T, 2^N) recapture patterns without loss
    observed: np.ndarray        # (T, 2^N) the same through the loss model
    max_trace_deviation: float
    n_realizations: int


def _exchange_readouts(
    geometry: ChainGeometry,
    params: PhysicalParams,
    taus: np.ndarray,
    n_realizations: int,
    seed: int,
    epsilon: dict,
    temperatures: Optional[tuple[float, ...]] = None,
) -> list[_Readout]:
    """The exchange experiment as one open-system readout scan per
    temperature (default: that of ``params``).

    A scan advances its thermal realizations as one batch (a single one at
    rest when T = 0) and reads out their mean in realization order, so
    results are bit-reproducible; recapture is linear, so the patterns equal
    the mean of the per-realization patterns.  One loss model, resolved from
    ``params`` before any scan runs, spans the longest sequence.
    """
    n = geometry.n_atoms
    prefix = exchange_prefix(params, n)
    suffix = deexcite_suffix(params, n)
    span = taus[-1] + sum(s.duration for s in prefix) + sum(s.duration for s in suffix)
    seeds = thermal.realization_seeds(seed, 4)
    eps_model = resolve_epsilon_model(epsilon, params, seeds[2], span)
    readouts = []
    for temperature in temperatures or (params.temperature,):
        scan_params = replace(params, temperature=temperature)
        samples = None
        if temperature != 0.0:
            samples = [
                thermal.sample_thermal(scan_params, n, s)
                for s in thermal.realization_seeds(seeds[0], n_realizations)
            ]
        scan = obe.readout_scan(
            geometry, scan_params, prefix, taus, suffix, trajectories=samples
        )
        mean = scan.populations.mean(axis=0)
        readouts.append(_Readout(
            true_patterns=detection.forward_detection(mean, 0.0),
            observed=detection.forward_detection(mean, eps_model(scan.total_durations)),
            max_trace_deviation=scan.max_trace_deviation,
            n_realizations=1 if samples is None else n_realizations,
        ))
    return readouts


def _pattern_tables(taus: np.ndarray, readout: _Readout, n_atoms: int) -> dict[str, Table]:
    columns = ["tau_us"] + [f"P_{s}" for s in detection.pattern_labels(n_atoms)]
    return {
        "observed": Table(columns, np.column_stack([taus, readout.observed])),
        "true_patterns": Table(columns, np.column_stack([taus, readout.true_patterns])),
    }


def _fit_summary(fit: analysis.OscillationFit) -> dict:
    return {
        "frequency_mhz": fit.frequency,
        "amplitude": fit.amplitude,
        "offset": fit.offset,
        "phase_rad": fit.phase,
        "contrast": fit.contrast,
        "residual_rms": fit.residual_rms,
    }


def two_atom_exchange(
    params: PhysicalParams,
    seed: int,
    spacing: Annotated[float, "atom spacing, um (2 to 100)"] = 30.0,
    tau_max: Annotated[float, "longest free-evolution time, us"] = 10.0,
    tau_step: Annotated[float, "free-evolution sampling step, us"] = 0.05,
    mode: Annotated[str, "ideal (theory) or full (open-system) pipeline"] = "full",
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations"] = 100,
    epsilon: Annotated[dict, _EPSILON_HELP] = {},
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Exchange oscillation between two atoms at the given spacing."""
    if not 2.0 <= spacing <= 100.0:
        raise ConfigError(f"spacing must be in [2, 100] um, got {spacing}")
    taus = _fit_tau_grid(tau_max, tau_step)
    geometry = ChainGeometry.line(2, spacing)

    if mode == "ideal":
        matrix, table, values = _ideal_run(geometry, params, taus, ("P_10", "P_01"))
        summary = {
            "mode": "ideal",
            "coupling_mhz": float(matrix.entries[0, 1]),
            "eigenvalues_mhz": [float(v) for v in values],
            "fit_P_10": _fit_summary(analysis.fit_sinusoid(taus, table.column("P_10"))),
        }
        return {"populations": table}, summary

    if mode != "full":
        raise ConfigError(f"mode must be 'ideal' or 'full', got {mode!r}")
    [run] = _exchange_readouts(geometry, params, taus, n_realizations, seed, epsilon)
    tables = _pattern_tables(taus, run, 2)
    fit = analysis.fit_sinusoid(taus, tables["observed"].column("P_10"))
    summary = {
        "mode": "full",
        "n_realizations": run.n_realizations,
        "max_trace_deviation": run.max_trace_deviation,
        "fit_P_10": _fit_summary(fit),
    }
    return tables, summary


def distance_scan(
    params: PhysicalParams,
    seed: int,
    radii: Annotated[list, "spacings, um"] = [20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0],
    tau_max: Annotated[float, "longest free-evolution time, us"] = 10.0,
    tau_step: Annotated[float, "free-evolution sampling step, us"] = 0.05,
    mode: Annotated[str, "ideal or full pipeline per point"] = "ideal",
    r_noise_frac: Annotated[float, "fractional spacing-calibration noise"] = 0.0,
    n_trials: Annotated[int, "noisy-scan repetitions for scatter statistics"] = 1,
    n_realizations: Annotated[int, "realizations per point in full mode"] = 20,
    epsilon: Annotated[dict, _EPSILON_HELP] = {},
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Interaction energy versus distance, with a power-law fit.

    ``r_noise_frac`` perturbs the true atom spacing while the nominal value
    enters the fit, mimicking a systematic distance-calibration uncertainty;
    ``n_trials`` repeats the noisy scan to estimate the exponent scatter.
    """
    radii = [float(r) for r in radii]
    if len(radii) < 3:
        raise DataError(f"distance scan needs at least 3 radii, got {len(radii)}")
    seeds = thermal.realization_seeds(seed, 4)
    rng = np.random.default_rng(seeds[1])

    def window(r_nominal: float) -> float:
        # scan long enough to cover the expected period at weak coupling
        expected_freq = 2.0 * params.c3 / r_nominal**3
        return max(tau_max, 1.6 / expected_freq)

    for r in radii:
        _fit_tau_grid(window(r), tau_step)

    def measure(r_nominal: float, r_true: float, sub_seed: int) -> float:
        _, summary = two_atom_exchange(
            params,
            sub_seed,
            spacing=r_true,
            tau_max=window(r_nominal),
            tau_step=tau_step,
            mode=mode,
            n_realizations=n_realizations,
            epsilon=epsilon,
        )
        # oscillation frequency is twice the exchange coupling
        return summary["fit_P_10"]["frequency_mhz"] / 2.0

    exponents = []
    prefactors = []
    first_energies = None
    for trial in range(n_trials):
        energies = []
        for r in radii:
            r_true = r * (1.0 + r_noise_frac * rng.standard_normal()) if r_noise_frac else r
            energies.append(measure(r, r_true, seeds[0] + trial))
        fit = analysis.fit_power_law(radii, energies)
        exponents.append(fit.exponent)
        prefactors.append(fit.prefactor)
        if first_energies is None:
            first_energies = energies
    fit_free = analysis.fit_power_law(radii, first_energies)
    fit_fixed = analysis.fit_power_law(radii, first_energies, exponent=-3.0)
    table = Table(("R_um", "E_MHz"), np.column_stack([radii, first_energies]))
    summary = {
        "mode": mode,
        "exponent": fit_free.exponent,
        "exponent_stderr": fit_free.exponent_stderr,
        "prefactor_mhz_um3": fit_free.prefactor,
        "fixed_exponent_prefactor_mhz_um3": fit_fixed.prefactor,
        "fixed_exponent_prefactor_stderr": fit_fixed.prefactor_stderr,
        "trial_exponents": exponents,
        "exponent_scatter": float(np.std(exponents, ddof=1)) if n_trials > 1 else 0.0,
    }
    return {"scan": table}, summary


def three_chain(
    params: PhysicalParams,
    seed: int,
    spacing: Annotated[float, "nearest-neighbor spacing, um"] = 20.0,
    tau_max: Annotated[float, "longest free-evolution time, us"] = 7.0,
    tau_step: Annotated[float, "free-evolution sampling step, us"] = 0.05,
    range_mode: Annotated[str, "full or nearest_neighbor coupling (ideal mode)"] = "full",
    mode: Annotated[str, "ideal (theory) or full (open-system) pipeline"] = "full",
    temperature: Annotated[Optional[float], "override temperature, uK"] = None,
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations"] = 100,
    epsilon: Annotated[dict, _EPSILON_HELP] = {},
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Excitation transfer along the three-atom chain."""
    taus = _tau_grid(tau_max, tau_step)
    geometry = ChainGeometry.line(3, spacing)
    if temperature is not None:
        params = replace(params, temperature=float(temperature))

    if mode == "ideal":
        matrix, table, values = _ideal_run(
            geometry, params, taus, ("P_udd", "P_dud", "P_ddu"), range_mode
        )
        summary = {
            "mode": "ideal",
            "range_mode": range_mode,
            "nn_coupling_mhz": float(matrix.entries[0, 1]),
            "eigenvalues_mhz": [float(v) for v in values],
            "beat_frequencies_mhz": [float(b) for b in analysis.beat_spectrum(values)],
        }
        return {"populations": table}, summary

    if mode != "full":
        raise ConfigError(f"mode must be 'ideal' or 'full', got {mode!r}")
    if range_mode != "full":
        raise ConfigError("the open-system model always keeps the full-range coupling")
    [run] = _exchange_readouts(geometry, params, taus, n_realizations, seed, epsilon)
    summary = {
        "mode": "full",
        "temperature_uk": params.temperature,
        "n_realizations": run.n_realizations,
        "max_trace_deviation": run.max_trace_deviation,
        "pattern_sum_deviation": float(np.abs(run.observed.sum(axis=1) - 1.0).max()),
    }
    return _pattern_tables(taus, run, 3), summary


def temperature_ablation(
    params: PhysicalParams,
    seed: int,
    spacing: Annotated[float, "nearest-neighbor spacing, um"] = 20.0,
    tau_max: Annotated[float, "longest free-evolution time, us"] = 7.0,
    tau_step: Annotated[float, "free-evolution sampling step, us"] = 0.05,
    temperature: Annotated[float, "ensemble temperature, uK"] = 50.0,
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations"] = 100,
    envelope_window: Annotated[float, "sliding window for envelopes, us"] = 1.0,
    epsilon: Annotated[dict, _EPSILON_HELP] = {},
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Decompose thermal damping of the far-site signal into loss and motion.

    Four curves of the probability that only the far atom is recaptured:
    zero-temperature dynamics, the same with only detection losses, motion
    only, and both effects together.
    """
    taus = _tau_grid(tau_max, tau_step)
    geometry = ChainGeometry.line(3, spacing)
    hot_params = replace(params, temperature=float(temperature))
    cold, hot = _exchange_readouts(
        geometry, hot_params, taus, n_realizations, seed, epsilon,
        temperatures=(0.0, hot_params.temperature),
    )
    idx = detection.pattern_labels(3).index("001")
    curves = {
        "zero_temperature": cold.true_patterns[:, idx],
        "loss_only": cold.observed[:, idx],
        "motion_only": hot.true_patterns[:, idx],
        "full": hot.observed[:, idx],
    }
    table = Table(
        ("tau_us",) + tuple(f"P_001_{k}" for k in curves),
        np.column_stack([taus] + list(curves.values())),
    )
    envelopes = {
        k: analysis.envelope_contrast(taus, v, envelope_window)[1] for k, v in curves.items()
    }
    env_table = Table(
        ("tau_us",) + tuple(f"env_{k}" for k in envelopes),
        np.column_stack([taus] + list(envelopes.values())),
    )
    summary = {
        "temperature_uk": temperature,
        "n_realizations": hot.n_realizations,
        "max_trace_deviation": max(cold.max_trace_deviation, hot.max_trace_deviation),
        "envelope_window_us": envelope_window,
    }
    return {"p001": table, "envelopes": env_table}, summary


def long_chain(
    params: PhysicalParams,
    seed: int,
    n_atoms: Annotated[int, "chain length (up to 100)"] = 20,
    spacing: Annotated[float, "nearest-neighbor spacing, um"] = 20.0,
    temperature: Annotated[Optional[float], "override temperature, uK"] = None,
    tau_max: Annotated[float, "longest interaction time, us"] = 10.0,
    tau_step: Annotated[float, "sampling step, us"] = 0.05,
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations"] = 100,
    range_mode: Annotated[str, "full or nearest_neighbor coupling"] = "full",
    baseline_window: Annotated[float, "pre-arrival window for the far site, us"] = 1.0,
    epsilon: Annotated[dict, _EPSILON_HELP] = {},
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Single-excitation transport along a long chain with thermal motion.

    Assumes perfect preparation of the excitation at site 1; temperature
    enters through the time-dependent couplings and through the detection
    scaling factor (1 - eps)^(N-1).
    """
    if not 1 <= n_atoms <= 100:
        raise ConfigError(f"n_atoms must be in [1, 100], got {n_atoms}")
    taus = _tau_grid(tau_max, tau_step)
    geometry = ChainGeometry.line(n_atoms, spacing)
    if temperature is not None:
        params = replace(params, temperature=float(temperature))
    seeds = thermal.realization_seeds(seed, 4)
    initial = xy.SpinState.excitation_at(n_atoms, 0)

    def realizations(sample_seeds: list[int]) -> np.ndarray:
        samples = [thermal.sample_thermal(params, n_atoms, s) for s in sample_seeds]
        return xy.propagate_ensemble(geometry, params, samples, range_mode, initial, taus)

    eps_model = resolve_epsilon_model(epsilon, params, seeds[2], taus[-1])
    n_eff = 1 if params.temperature == 0.0 else n_realizations
    ensemble = thermal.monte_carlo(realizations, n_eff, seeds[0], n_workers=workers)
    true_mean = ensemble.mean                                  # (N, T)
    observed = detection.scale_excitation_large_n(taus, true_mean, eps_model, n_atoms)

    site_cols = [f"P_site_{i + 1:02d}" for i in range(n_atoms)]
    tables = {
        "populations": Table(["tau_us"] + site_cols, np.column_stack([taus, true_mean.T])),
        "observed": Table(["tau_us"] + site_cols, np.column_stack([taus, observed.T])),
    }
    far_true = true_mean[-1]
    far_obs = observed[-1]
    pre_arrival = taus <= baseline_window
    norm_dev = float(np.abs(true_mean.sum(axis=0) - 1.0).max())
    summary = {
        "temperature_uk": params.temperature,
        "n_realizations": ensemble.n_realizations,
        "norm_deviation": norm_dev,
        "far_site_peak": float(far_obs.max()),
        "far_site_peak_tau_us": float(taus[far_obs.argmax()]),
        "far_site_baseline": float(far_obs[pre_arrival].max()),
        "far_site_true_peak": float(far_true.max()),
    }
    return tables, summary


def calibrate_epsilon(
    params: PhysicalParams,
    seed: int,
    t_max: Annotated[float, "longest trap-off time, us"] = 10.0,
    n_points: Annotated[int, "calibration grid size"] = 41,
    degree: Annotated[int, "polynomial degree of the fit"] = 2,
    floor: Annotated[float, "background loss at t = 0"] = EPSILON_FLOOR,
    slope: Annotated[float, "synthetic loss slope, 1/us"] = EPSILON_SLOPE,
    table_path: Annotated[Optional[str], "measured (t, epsilon) table to ingest"] = None,
    workers: int = 1,
) -> tuple[dict[str, Table], dict]:
    """Fit the loss probability from an all-ground recapture experiment.

    Without an input table, a synthetic all-recaptured series consistent with
    the measured endpoints is generated, fitted, and compared against the
    closed-form recapture partitions; with one, the measured data are used.
    """
    if table_path:
        t, eps_true = load_epsilon_table(table_path, "epsilon")
        p_all = (1.0 - eps_true) ** 3
    else:
        t = np.linspace(0.0, t_max, n_points)
        eps_true = np.clip(floor + slope * t, 0.0, 1.0)
        p_all = (1.0 - eps_true) ** 3
    model = detection.fit_epsilon(t, p_all, degree=degree)
    eps_fit = model(t)
    partitions = detection.loss_partitions(eps_fit)
    tables = {
        "p111": Table(
            ("t_us", "P_111_input", "P_111_fit"),
            np.column_stack([t, p_all, partitions["all_recaptured"]]),
        ),
        "epsilon": Table(
            ("t_us", "epsilon_input", "epsilon_fit"),
            np.column_stack([t, eps_true, eps_fit]),
        ),
        "partitions": Table(
            ("t_us",) + tuple(partitions),
            np.column_stack([t] + list(partitions.values())),
        ),
    }
    summary = {
        "degree": degree,
        "coefficients": [float(c) for c in model.coefficients],
        "fit_rms": model.fit_rms,
        "epsilon_at_0": float(model(0.0)),
        "epsilon_at_7us": float(model(7.0)),
        "max_roundtrip_error": float(np.abs(eps_fit - eps_true).max()),
    }
    return tables, summary


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in [
        ScenarioSpec(
            name="two-atom-exchange",
            summary="Exchange oscillation between two atoms at fixed spacing",
            anchor="fig2b",
            runner=two_atom_exchange,
        ),
        ScenarioSpec(
            name="distance-scan",
            summary="Interaction energy versus spacing with a power-law fit",
            anchor="fig2c",
            runner=distance_scan,
        ),
        ScenarioSpec(
            name="three-chain",
            summary="Excitation transfer along the three-atom chain",
            anchor="fig3",
            runner=three_chain,
        ),
        ScenarioSpec(
            name="temperature-ablation",
            summary="Far-site signal with loss only, motion only, and both",
            anchor="fig4",
            runner=temperature_ablation,
        ),
        ScenarioSpec(
            name="long-chain",
            summary="Single-excitation transport along a long chain",
            anchor="figS4",
            runner=long_chain,
        ),
        ScenarioSpec(
            name="calibrate-epsilon",
            summary="Loss-probability calibration from recapture data",
            anchor="figS1",
            runner=calibrate_epsilon,
        ),
    ]
}


def catalog() -> list[ScenarioSpec]:
    """Scenario catalog, sorted by name."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]


def scenario_options(name: str, options: Optional[dict] = None) -> dict:
    """The options a scenario runs with: copies of its defaults, overlaid by
    ``options``.  An unknown scenario, option key, ``epsilon`` key or
    ``epsilon`` backend or table kind raises ConfigError, and so does an
    ``n_realizations`` or ``epsilon`` number out of its range."""
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r} (expected one of: {known})")
    spec = SCENARIOS[name]
    merged = copy.deepcopy({key: default for key, (default, _) in spec.options.items()})
    for key, value in (options or {}).items():
        if key not in merged:
            raise ConfigError(
                f"options.{key}: unknown key for scenario {name!r} "
                f"(expected one of: {', '.join(sorted(merged))})"
            )
        merged[key] = value
    if "n_realizations" in merged:
        _check_number("options.n_realizations", merged["n_realizations"], *_COUNT)
    epsilon = merged.get("epsilon") or {}
    if not isinstance(epsilon, dict):
        raise ConfigError(f"options.epsilon: expected a mapping, got {epsilon!r}")
    for key, value in epsilon.items():
        if key not in _EPSILON_OPTIONS:
            raise ConfigError(
                f"options.epsilon.{key}: unknown key (expected one of: "
                f"{', '.join(sorted(_EPSILON_OPTIONS))})"
            )
        if _EPSILON_OPTIONS[key]:
            _epsilon_choice(key, value)
        if key in _EPSILON_NUMBERS:
            _check_number(f"options.epsilon.{key}", value, *_EPSILON_NUMBERS[key])
    return merged


def run_scenario(
    name: str,
    params: Optional[PhysicalParams] = None,
    seed: int = 1234,
    options: Optional[dict] = None,
    workers: int = 1,
) -> ScenarioResult:
    """Run a scenario by name; the result echoes the options it ran with."""
    merged = scenario_options(name, options)
    if params is None:
        params = PhysicalParams()
    tables, summary = SCENARIOS[name].runner(params, seed, workers=workers, **merged)
    return ScenarioResult(name, seed, merged, tables, summary)
