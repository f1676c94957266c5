"""Closed-system propagation in the single-excitation subspace.

The exchange Hamiltonian conserves total magnetization, so a single flipped
spin hops between sites and the state lives in the N-dimensional subspace
spanned by |i> = "spin up at site i, all others down".  In that basis the
Hamiltonian is just the real symmetric matrix of hopping frequencies
nu_ij = c3 / R_ij^3 (MHz), and static propagation is an exact
eigen-decomposition:

    psi(t) = sum_k exp(-2 pi i lambda_k t) <v_k|psi0> v_k

Time-dependent couplings (thermal motion) are handled by fixed-step
piecewise-constant propagation with the exact exponential of the midpoint
matrix, which is unconditionally norm-preserving.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .model import ChainGeometry, PairFlight, PhysicalParams
from .thermal import ThermalSample

RANGE_MODES = ("full", "nearest_neighbor")

#: Upper bound on 2*pi*nu_max*dt for the piecewise-constant propagator.
MAX_PHASE_PER_STEP = 0.05


@dataclass(frozen=True)
class CouplingMatrix:
    """Symmetric matrix of hopping frequencies (MHz) with zero diagonal."""

    entries: np.ndarray
    range_mode: str = "full"

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"coupling matrix must be square, got {m.shape}")
        if not np.allclose(m, m.T, atol=0.0):
            raise ValueError("coupling matrix must be symmetric")
        if np.any(np.diag(m) != 0.0):
            raise ValueError("coupling matrix diagonal must be exactly zero")
        if self.range_mode not in RANGE_MODES:
            raise ValueError(f"range_mode must be one of {RANGE_MODES}")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "entries", m)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SpinState:
    """Normalized amplitude vector over the single-excitation basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"spin state norm deviates from 1 by {abs(norm - 1.0):g}")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n(self) -> int:
        return self.amplitudes.shape[0]

    @classmethod
    def excitation_at(cls, n_atoms: int, site: int) -> "SpinState":
        """Basis state with the excitation localized at ``site``."""
        amp = np.zeros(n_atoms, dtype=complex)
        amp[site] = 1.0
        return cls(amplitudes=amp)

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _pairs(n: int, range_mode: str) -> list[tuple[int, int]]:
    """Coupled pairs i < j: all of them, or the neighbors in input order."""
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if range_mode == "full" or j == i + 1
    ]


def _scatter(n: int, pairs: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """Symmetric N x N hopping matrix holding ``nu`` at the (P, 2) ``pairs``."""
    entries = np.zeros((n, n))
    entries[pairs[:, 0], pairs[:, 1]] = nu
    entries[pairs[:, 1], pairs[:, 0]] = nu
    return entries


def build_coupling_matrix(
    geometry: ChainGeometry,
    params: PhysicalParams,
    range_mode: str = "full",
) -> CouplingMatrix:
    """Hopping matrix from the geometry, optionally truncated to neighbors.

    In ``nearest_neighbor`` mode entries with |i - j| > 1 in the input
    ordering are exactly zero; a warning is emitted if that ordering is not
    monotonic along the quantization axis.
    """
    if range_mode not in RANGE_MODES:
        raise ConfigError(f"range_mode must be one of {RANGE_MODES}, got {range_mode!r}")
    flight = PairFlight(geometry, params, pairs=_pairs(geometry.n_atoms, range_mode))
    entries = _scatter(geometry.n_atoms, flight.pairs, flight.couplings(0.0)[0])
    if range_mode == "nearest_neighbor":
        along = geometry.positions @ geometry.quantization_axis
        steps = np.diff(along)
        if len(steps) and not (np.all(steps > 0) or np.all(steps < 0)):
            warnings.warn(
                "positions are not monotonic along the chain axis; "
                "nearest_neighbor truncation follows the input order",
                stacklevel=2,
            )
    return CouplingMatrix(entries=entries, range_mode=range_mode)


def eigenmodes(matrix: CouplingMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (MHz, ascending) and orthonormal eigenvector columns."""
    values, vectors = np.linalg.eigh(matrix.entries)
    return values, vectors


def propagate(
    matrix: CouplingMatrix,
    initial: SpinState,
    times,
) -> np.ndarray:
    """Site populations P_i(t), shape (N, T), by exact eigen-decomposition."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0):
        raise ValueError("times must be non-negative")
    if initial.n != matrix.n:
        raise ValueError("state dimension does not match coupling matrix")
    values, vectors = eigenmodes(matrix)
    coeff = vectors.T @ initial.amplitudes
    phases = np.exp(-2j * np.pi * np.outer(times, values))   # (T, N)
    amplitudes = (phases * coeff) @ vectors.T                # (T, N)
    return (np.abs(amplitudes) ** 2).T


def _step_count(duration: float, dt: float) -> int:
    if duration <= 0.0:
        return 0
    return max(1, int(np.ceil(duration / dt)))


def propagate_time_dependent(
    geometry: ChainGeometry,
    params: PhysicalParams,
    trajectories: Optional[ThermalSample],
    range_mode: str,
    initial: SpinState,
    times,
    dt: Optional[float] = None,
) -> np.ndarray:
    """Site populations under couplings that follow the atoms' free flight.

    The coupling matrix is rebuilt each step from the displaced positions and
    applied through its exact exponential at the step midpoint, so the norm
    is preserved to machine precision.  ``dt`` defaults to a value safely
    inside the step bound 2*pi*nu_max*dt < 0.05 and is validated against the
    instantaneous couplings of every step.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-negative and sorted")
    if range_mode not in RANGE_MODES:
        raise ConfigError(f"range_mode must be one of {RANGE_MODES}, got {range_mode!r}")
    n = geometry.n_atoms
    if initial.n != n:
        raise ValueError("state dimension does not match geometry")
    if trajectories is not None and trajectories.n_atoms != n:
        raise ValueError("trajectory sample does not match geometry")

    disp = vel = None
    if trajectories is not None:
        disp, vel = trajectories.displacements[None], trajectories.velocities[None]
    flight = PairFlight(geometry, params, disp, vel, _pairs(n, range_mode))
    nu_bound = flight.bound(0.0, float(times[-1]))
    if dt is None:
        dt = (
            MAX_PHASE_PER_STEP / (2.0 * np.pi * nu_bound * 1.05)
            if nu_bound > 0
            else (times[-1] or 1.0)
        )
    if nu_bound > 0 and 2.0 * np.pi * nu_bound * dt >= MAX_PHASE_PER_STEP:
        raise ConfigError(
            f"step size violation: 2*pi*nu_max*dt = {2 * np.pi * nu_bound * dt:.3g} "
            f">= {MAX_PHASE_PER_STEP} (nu_max bounds the coupling over the whole run)"
        )

    psi = initial.amplitudes.copy()
    populations = np.empty((n, len(times)))
    t_now = 0.0
    for k, t_target in enumerate(times):
        span = t_target - t_now
        n_steps = _step_count(span, dt)
        h = span / n_steps if n_steps else 0.0
        for _ in range(n_steps):
            nu = flight.couplings(t_now + 0.5 * h)[0]
            nu_max = float(np.max(np.abs(nu), initial=0.0))
            if 2.0 * np.pi * nu_max * h >= MAX_PHASE_PER_STEP:
                raise ConfigError(
                    f"step size violation at t = {t_now:.4g} us: "
                    f"2*pi*nu_max*dt = {2 * np.pi * nu_max * h:.3g}"
                )
            values, vectors = np.linalg.eigh(_scatter(n, flight.pairs, nu))
            psi = vectors @ (np.exp(-2j * np.pi * values * h) * (vectors.T @ psi))
            t_now += h
        t_now = t_target
        populations[:, k] = np.abs(psi) ** 2
    return populations
