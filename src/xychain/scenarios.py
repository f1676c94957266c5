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

Every scenario runs on one thread and is deterministic under its master
seed; Monte-Carlo draws and noise realizations derive from it through a
fixed seed lineage.

A runner declares each of its options once, as a parameter
``name: Annotated[<type>, "<help>", <check>] = <default>``; the catalog, the
one check of option values (``scenario_options``) and the options echoed in
a result all derive from it.  A default is one object shared by every direct
call of its runner, so runners treat option values as read-only;
``run_scenario`` passes each run its own copies.
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
from .errors import ConfigError
from .model import ChainGeometry, PhysicalParams

#: Trap depth (uK) of the recapture-model epsilon backend, calibrated by
#: root-finding the depth at which the 50 uK model reaches a 20% loss
#: probability after 7 us of free flight over a 1% background floor.
RECAPTURE_TRAP_DEPTH = 2092.0

#: Default measured-style loss calibration: a 1% background floor rising
#: linearly to ~20% at 7 us of trap-off time.
EPSILON_FLOOR = 0.01
EPSILON_SLOPE = 0.027  # per us


class Check(NamedTuple):
    """The values an option accepts, in words and as a test; a choice lists them."""

    expected: str
    test: Callable[[object], bool]
    choices: tuple[str, ...] = ()


def _one_of(*choices: str) -> Check:
    return Check("one of: " + ", ".join(choices), choices.__contains__, choices)


def _number(expected: str, test: Callable, kind: type = numbers.Real) -> Check:
    """A number of ``kind``, not a bool, that passes ``test``."""
    return Check(expected, lambda v: type(v) is not bool and isinstance(v, kind) and test(v))


_COUNT = _number("an integer >= 1", lambda v: v >= 1, numbers.Integral)
_DEGREE = _number("an integer >= 0", lambda v: v >= 0, numbers.Integral)
_N_ATOMS = _number("an integer in [1, 100]", lambda v: 1 <= v <= 100, numbers.Integral)
_FINITE = _number("a finite number", lambda v: -math.inf < v < math.inf)
_POSITIVE = _number("a finite number > 0", lambda v: 0.0 < v < math.inf)
_NON_NEGATIVE = _number("a finite number >= 0", lambda v: 0.0 <= v < math.inf)
_FLOOR = _number("a number in [0, 1]", lambda v: 0.0 <= v <= 1.0)
_SPACING = _number("a number in [2, 100]", lambda v: 2.0 <= v <= 100.0)
_RADII = Check("a list of at least 3 numbers in [2, 100]",
               lambda v: isinstance(v, (list, tuple)) and len(v) >= 3
               and all(map(_SPACING.test, v)))
_MODE = _one_of("ideal", "full")
_RANGE_MODE = _one_of(*xy.RANGE_MODES)
_TEXT = Check("a string or null", lambda v: isinstance(v, str))
_MAPPING = Check("a mapping", lambda v: v is None or isinstance(v, dict))

#: Loss-model option key -> (default, accepted values).
_EPSILON = {
    "backend": ("table", _one_of("table", "recapture_mc", "none")),
    "table_path": (None, _TEXT),
    "table_kind": ("epsilon", _one_of("epsilon", "p111")),
    "floor": (EPSILON_FLOOR, _FLOOR),
    "slope": (EPSILON_SLOPE, _FINITE),
    "trap_depth": (RECAPTURE_TRAP_DEPTH, _POSITIVE),
    "n_mc": (200_000, _COUNT),
}

_EPSILON_HELP = "loss-model options: " + ", ".join(
    f"{key} ({' | '.join(check.choices)})" if check.choices else key
    for key, (_, check) in _EPSILON.items()
)

#: Runner parameters that ``run_scenario`` supplies itself; every other
#: parameter is a scenario option.
_NOT_OPTIONS = ("params", "seed")


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


def _runner_options(runner: Callable) -> dict[str, tuple[object, str, Check]]:
    """Option name -> (default, help, check), read off the runner's signature.

    Each option parameter is declared ``Annotated[<type>, "<help>", <check>]
    = <default>``; one without help, check or default is a programming error.
    """
    options = {}
    for name, param in inspect.signature(runner, eval_str=True).parameters.items():
        if name in _NOT_OPTIONS:
            continue
        metadata = getattr(param.annotation, "__metadata__", ())
        helps = [m for m in metadata if isinstance(m, str)]
        checks = [m for m in metadata if isinstance(m, Check)]
        if not helps or not checks or param.default is param.empty:
            raise TypeError(
                f"{runner.__name__}: option {name!r} needs a help text, check and default"
            )
        options[name] = (param.default, helps[0], checks[0])
    return options


@dataclass(frozen=True)
class ScenarioSpec:
    """A catalog entry; its options are derived from the runner signature."""

    name: str
    summary: str
    anchor: str
    runner: Callable = field(repr=False, compare=False)
    options: dict[str, tuple[object, str, Check]] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "options", _runner_options(self.runner))


def _tau_grid(tau_max: float, tau_step: float) -> np.ndarray:
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


def _pi_time(name: str, frequency: float) -> float:
    """Duration of a resonant pi pulse at ordinary Rabi frequency (MHz): the
    drive ``params.<name>``, averaged over the atoms; <= 0 is refused."""
    if frequency <= 0.0:
        raise ConfigError(
            f"params.{name}: expected a drive > 0 (mean over the atoms), got {frequency:g}"
        )
    return 1.0 / (2.0 * frequency)


def exchange_prefix(params: PhysicalParams, n_atoms: int):
    """Preparation segments: shift atom 0 aside, excite and transfer the
    rest to the lower spin state, then excite atom 0.  A mean ``omega_opt``
    or an ``omega_mw`` <= 0 raises ConfigError."""
    t_opt = _pi_time("omega_opt", float(np.mean(params.omega_opt_per_atom(n_atoms))))
    t_mw = _pi_time("omega_mw", params.omega_mw)
    mask = tuple(i == 0 for i in range(n_atoms))
    return [
        obe.PulseSegment.optical(t_opt, addressing_mask=mask),
        obe.PulseSegment.microwave(t_mw),
        obe.PulseSegment.optical(t_opt),
    ]


def deexcite_suffix(params: PhysicalParams, n_atoms: int):
    """Readout segment mapping the upper spin state back to the ground state;
    a mean ``omega_opt`` <= 0 raises ConfigError."""
    t_opt = _pi_time("omega_opt", float(np.mean(params.omega_opt_per_atom(n_atoms))))
    return [obe.PulseSegment.optical(t_opt)]


def _overlay(path: str, declared: dict, values: dict) -> dict:
    """Copies of the defaults of ``declared`` (key -> (default, ..., check)),
    overlaid by ``values``.  An unknown key, or a value its check refuses (None
    passes where it is the default), raises ConfigError naming the key."""
    merged = copy.deepcopy({key: entry[0] for key, entry in declared.items()})
    for key, value in values.items():
        if key not in declared:
            raise ConfigError(
                f"{path}.{key}: unknown key (expected one of: {', '.join(sorted(declared))})"
            )
        merged[key] = value
    for key, (default, *_, check) in declared.items():
        value = merged[key]
        if (value is not None or default is not None) and not check.test(value):
            refusal = (
                f"unknown value {value!r} (expected {check.expected})" if check.choices
                else f"expected {check.expected}, got {value!r}"
            )
            raise ConfigError(f"{path}.{key}: {refusal}")
    return merged


def resolve_epsilon_model(
    epsilon_options: Optional[dict], params: PhysicalParams, seed: int, t_max: float
) -> detection.EpsilonModel:
    """The loss model of ``epsilon_options``, checked and defaulted as ``_EPSILON`` says."""
    eps = _overlay("options.epsilon", _EPSILON, epsilon_options or {})
    if eps["backend"] == "none":
        return detection.EpsilonModel.constant(0.0)
    if eps["backend"] == "table" and eps["table_path"]:
        t, values = load_epsilon_table(eps["table_path"], eps["table_kind"])
    elif eps["backend"] == "table":
        t = np.linspace(0.0, max(t_max, 12.0), 25)
        values = np.clip(eps["floor"] + eps["slope"] * t, 0, 1)
    else:
        t = np.linspace(0.0, max(t_max, 8.0), 17)
        values = [thermal.recapture_epsilon(params, eps["trap_depth"], ti, eps["n_mc"],
                                            seed=seed, floor=eps["floor"]) for ti in t]
    return detection.EpsilonModel.from_table(t, values)


def load_epsilon_table(path, kind: str = "epsilon", key: str = "options.epsilon.table_path"):
    """Two-column numeric text (t_us, epsilon or P_111); '#' comments allowed.
    A file that cannot be read, or that holds no loss table, raises
    ConfigError naming the option ``key`` and the path."""
    try:
        data = np.loadtxt(path, comments="#", ndmin=2)
    except (OSError, ValueError) as exc:  # missing, or not a numeric table
        raise ConfigError(f"{key}: cannot read {path}: {exc}") from exc
    if data.shape[1] < 2 or len(data) < 2:
        problem = "needs two columns (t_us, value) and at least two rows"
    elif not np.all(np.isfinite(data[:, :2])):
        problem = "holds a non-finite value"
    elif np.any(np.diff(data[:, 0]) <= 0):
        problem = "times must strictly increase"
    elif kind == "epsilon" and np.any((data[:, 1] < 0) | (data[:, 1] > 1)):
        problem = "epsilon values must lie in [0, 1]"
    elif kind == "p111" and np.any((data[:, 1] <= 0) | (data[:, 1] > 1)):
        problem = "P_111 values must lie in (0, 1]"
    else:
        t, value = data[:, 0], data[:, 1]
        return (t, value) if kind == "epsilon" else (t, 1.0 - value ** (1.0 / 3.0))
    raise ConfigError(f"{key}: {path}: {problem}")


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

    A scan advances the thermal batch of ``thermal.run_ensemble`` and reads
    out its mean in realization order, so results are bit-reproducible;
    recapture is linear, so the patterns equal the mean of the
    per-realization patterns.  One loss model, resolved from ``params``
    before any scan runs, spans the longest sequence.
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
        scan = thermal.run_ensemble(
            lambda samples: obe.readout_scan(
                geometry, scan_params, prefix, taus, suffix, trajectories=samples
            ),
            scan_params, n, n_realizations, seeds[0],
        )
        mean = scan.populations.mean(axis=0)
        readouts.append(_Readout(
            true_patterns=detection.forward_detection(mean, 0.0),
            observed=detection.forward_detection(mean, eps_model(scan.total_durations)),
            max_trace_deviation=scan.max_trace_deviation,
            n_realizations=len(scan.populations),
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
    spacing: Annotated[float, "atom spacing, um (2 to 100)", _SPACING] = 30.0,
    tau_max: Annotated[float, "longest free-evolution time, us", _POSITIVE] = 10.0,
    tau_step: Annotated[float, "free-evolution sampling step, us", _POSITIVE] = 0.05,
    mode: Annotated[str, "ideal (theory) or full (open-system) pipeline", _MODE] = "full",
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations", _COUNT] = 100,
    epsilon: Annotated[dict, _EPSILON_HELP, _MAPPING] = {},
) -> tuple[dict[str, Table], dict]:
    """Exchange oscillation between two atoms at the given spacing."""
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
    radii: Annotated[list, "spacings, um", _RADII] = [
        20.0, 25.0, 30.0, 35.0, 40.0, 45.0, 50.0
    ],
    tau_max: Annotated[float, "longest free-evolution time, us", _POSITIVE] = 10.0,
    tau_step: Annotated[float, "free-evolution sampling step, us", _POSITIVE] = 0.05,
    mode: Annotated[str, "ideal or full pipeline per point", _MODE] = "ideal",
    r_noise_frac: Annotated[
        float, "fractional spacing-calibration noise", _NON_NEGATIVE
    ] = 0.0,
    n_trials: Annotated[int, "noisy-scan repetitions for scatter statistics", _COUNT] = 1,
    n_realizations: Annotated[int, "realizations per point in full mode", _COUNT] = 20,
    epsilon: Annotated[dict, _EPSILON_HELP, _MAPPING] = {},
) -> tuple[dict[str, Table], dict]:
    """Interaction energy versus distance, with a power-law fit.

    ``r_noise_frac`` perturbs the true atom spacing while the nominal value
    enters the fit, mimicking a systematic distance-calibration uncertainty;
    ``n_trials`` repeats the noisy scan to estimate the exponent scatter.
    """
    radii = [float(r) for r in radii]
    seeds = thermal.realization_seeds(seed, 4)
    rng = np.random.default_rng(seeds[1])
    noise = rng.standard_normal((n_trials, len(radii)))  # only this draws from rng
    spacings = np.multiply(radii, 1.0 + r_noise_frac * noise)  # true, (trial, radius)
    outside = [s for s in spacings.flat if not _SPACING.test(s)]
    if outside:
        raise ConfigError(
            f"options.r_noise_frac: drew a spacing of {outside[0]:g} um, outside [2, 100]"
        )

    def window(r_nominal: float) -> float:
        # scan long enough to cover the expected period at weak coupling
        expected_freq = 2.0 * params.c3 / r_nominal**3
        return max(tau_max, 1.6 / expected_freq)

    for r in radii:
        _fit_tau_grid(window(r), tau_step)

    def trial_energies(trial: int) -> list[float]:
        energies = []
        for r_nominal, r_true in zip(radii, spacings[trial]):
            _, summary = two_atom_exchange(
                params, seeds[0] + trial, spacing=r_true, tau_max=window(r_nominal),
                tau_step=tau_step, mode=mode, n_realizations=n_realizations, epsilon=epsilon,
            )
            # oscillation frequency is twice the exchange coupling
            energies.append(summary["fit_P_10"]["frequency_mhz"] / 2.0)
        return energies

    trials = [trial_energies(trial) for trial in range(n_trials)]
    fits = [analysis.fit_power_law(radii, energies) for energies in trials]
    exponents = [fit.exponent for fit in fits]
    fit_free = fits[0]
    fit_fixed = analysis.fit_power_law(radii, trials[0], exponent=-3.0)
    table = Table(("R_um", "E_MHz"), np.column_stack([radii, trials[0]]))
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
    spacing: Annotated[float, "nearest-neighbor spacing, um", _POSITIVE] = 20.0,
    tau_max: Annotated[float, "longest free-evolution time, us", _POSITIVE] = 7.0,
    tau_step: Annotated[float, "free-evolution sampling step, us", _POSITIVE] = 0.05,
    range_mode: Annotated[
        str, "full or nearest_neighbor coupling (ideal mode)", _RANGE_MODE
    ] = "full",
    mode: Annotated[str, "ideal (theory) or full (open-system) pipeline", _MODE] = "full",
    temperature: Annotated[Optional[float], "override temperature, uK", _NON_NEGATIVE] = None,
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations", _COUNT] = 100,
    epsilon: Annotated[dict, _EPSILON_HELP, _MAPPING] = {},
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
    spacing: Annotated[float, "nearest-neighbor spacing, um", _POSITIVE] = 20.0,
    tau_max: Annotated[float, "longest free-evolution time, us", _POSITIVE] = 7.0,
    tau_step: Annotated[float, "free-evolution sampling step, us", _POSITIVE] = 0.05,
    temperature: Annotated[float, "ensemble temperature, uK", _NON_NEGATIVE] = 50.0,
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations", _COUNT] = 100,
    envelope_window: Annotated[float, "sliding window for envelopes, us", _POSITIVE] = 1.0,
    epsilon: Annotated[dict, _EPSILON_HELP, _MAPPING] = {},
) -> tuple[dict[str, Table], dict]:
    """Decompose thermal damping of the far-site signal into loss and motion.

    Four curves of the probability that only the far atom is recaptured:
    zero-temperature dynamics, the same with only detection losses, motion
    only, and both effects together.
    """
    if envelope_window < analysis.MIN_WINDOW_STEPS * tau_step:
        raise ConfigError(
            f"options.envelope_window: expected >= {analysis.MIN_WINDOW_STEPS:g} x "
            f"options.tau_step, got {envelope_window:g} us"
        )
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
    n_atoms: Annotated[int, "chain length (up to 100)", _N_ATOMS] = 20,
    spacing: Annotated[float, "nearest-neighbor spacing, um", _POSITIVE] = 20.0,
    temperature: Annotated[Optional[float], "override temperature, uK", _NON_NEGATIVE] = None,
    tau_max: Annotated[float, "longest interaction time, us", _POSITIVE] = 10.0,
    tau_step: Annotated[float, "sampling step, us", _POSITIVE] = 0.05,
    n_realizations: Annotated[int, "thermal Monte-Carlo realizations", _COUNT] = 100,
    range_mode: Annotated[str, "full or nearest_neighbor coupling", _RANGE_MODE] = "full",
    baseline_window: Annotated[
        float, "pre-arrival window for the far site, us", _NON_NEGATIVE
    ] = 1.0,
    epsilon: Annotated[dict, _EPSILON_HELP, _MAPPING] = {},
) -> tuple[dict[str, Table], dict]:
    """Single-excitation transport along a long chain with thermal motion.

    Assumes perfect preparation of the excitation at site 1; temperature
    enters through the time-dependent couplings and through the detection
    scaling factor (1 - eps)^(N-1).
    """
    taus = _tau_grid(tau_max, tau_step)
    geometry = ChainGeometry.line(n_atoms, spacing)
    if temperature is not None:
        params = replace(params, temperature=float(temperature))
    seeds = thermal.realization_seeds(seed, 4)
    initial = xy.SpinState.excitation_at(n_atoms, 0)
    eps_model = resolve_epsilon_model(epsilon, params, seeds[2], taus[-1])
    realizations = thermal.run_ensemble(                      # (B, N, T)
        lambda samples: xy.propagate_ensemble(
            geometry, params, samples, range_mode, initial, taus
        ),
        params, n_atoms, n_realizations, seeds[0],
    )
    true_mean = realizations.mean(axis=0)                      # (N, T)
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
        "n_realizations": len(realizations),
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
    t_max: Annotated[float, "longest trap-off time, us", _POSITIVE] = 10.0,
    n_points: Annotated[int, "calibration grid size", _COUNT] = 41,
    degree: Annotated[int, "polynomial degree of the fit", _DEGREE] = 2,
    floor: Annotated[float, "background loss at t = 0", _FLOOR] = EPSILON_FLOOR,
    slope: Annotated[float, "synthetic loss slope, 1/us", _FINITE] = EPSILON_SLOPE,
    table_path: Annotated[
        Optional[str], "measured (t, epsilon) table to ingest", _TEXT
    ] = None,
) -> tuple[dict[str, Table], dict]:
    """Fit the loss probability from an all-ground recapture experiment.

    Without an input table, a synthetic all-recaptured series consistent with
    the measured endpoints is generated, fitted, and compared against the
    closed-form recapture partitions; with one, the measured data are used.
    """
    if table_path:
        t, eps_true = load_epsilon_table(table_path, key="options.table_path")
    elif degree >= n_points:
        raise ConfigError(f"options.degree {degree}: expected < options.n_points ({n_points})")
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
    """The options a scenario runs with: its defaults, copied, and ``options``.

    The one check of each option's value, shared by ``run_scenario`` and the
    CLI's ``run`` and ``validate-config``: an unknown scenario, option key or
    ``epsilon`` key, or a value outside what its runner or ``_EPSILON``
    declares, raises ConfigError naming the key.  The runner refuses, before
    any work, what involves two options, the chain or a drawn value.
    """
    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ConfigError(f"unknown scenario {name!r} (expected one of: {known})")
    merged = _overlay("options", SCENARIOS[name].options, options or {})
    if merged.get("epsilon"):
        _overlay("options.epsilon", _EPSILON, merged["epsilon"])
    return merged


def run_scenario(
    name: str,
    params: Optional[PhysicalParams] = None,
    seed: int = 1234,
    options: Optional[dict] = None,
    workers: int = 1,
) -> ScenarioResult:
    """Run a scenario by name; the result echoes the options it ran with.

    ``workers`` is a thread cap that every run meets: every engine runs on
    the calling thread, so it never changes a result.
    """
    merged = scenario_options(name, options)
    if params is None:
        params = PhysicalParams()
    tables, summary = SCENARIOS[name].runner(params, seed, **merged)
    return ScenarioResult(name, seed, merged, tables, summary)
