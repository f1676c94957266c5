"""Closed-system propagation in the single-excitation subspace.

The exchange Hamiltonian conserves total magnetization, so a single flipped
spin hops between sites and the state lives in the N-dimensional subspace
spanned by |i> = "spin up at site i, all others down".  In that basis the
Hamiltonian is just the real symmetric matrix of hopping frequencies
nu_ij = c3 / R_ij^3 (MHz), and static propagation is an exact
eigen-decomposition:

    psi(t) = sum_k exp(-2 pi i lambda_k t) <v_k|psi0> v_k

Time-dependent couplings (thermal motion) are handled by fixed-step
piecewise-constant propagation of all realizations at once.  Each step
applies exp(-2 pi i H h) of the midpoint matrix H through a truncated Taylor
series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), whose order
each realization picks from its own matrix norm so that the first omitted
term is at most 1e-15.  The truncation does not preserve the norm exactly:
over 80 twenty-atom realizations of 10 us at 50 uK it deviated from 1 by at
most 1.1e-14 (Taylor orders 8-9), and the populations stayed within 6.1e-14
of the exact midpoint exponential.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams
from .thermal import ThermalSample

RANGE_MODES = ("full", "nearest_neighbor")


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
    """Symmetric (..., N, N) hopping matrices holding the (..., P) ``nu`` at
    the (P, 2) ``pairs``."""
    entries = np.zeros(nu.shape[:-1] + (n, n))
    entries[..., pairs[:, 0], pairs[:, 1]] = nu
    entries[..., pairs[:, 1], pairs[:, 0]] = nu
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


def _step_count(duration: float, dt: np.ndarray) -> np.ndarray:
    """Steps per row for one sample interval: none if it is empty, else
    ceil(duration / dt), at least one."""
    if duration <= 0.0:
        return np.zeros(dt.shape, dtype=int)
    return np.maximum(1, np.ceil(duration / dt)).astype(int)


def _taylor_step(hops: np.ndarray, theta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply exp(-i theta_b hops_b) to every row of psi by a truncated Taylor series.

    ``hops`` is (B, N, N) real, ``theta`` (B,) and ``psi`` (B, N, 1).  With
    a = ||A_b||_inf for A_b = -i theta_b hops_b, each row takes ceil(a)
    substeps (at least one) of A_b / substeps, and in each the smallest order
    m whose first omitted term (a / substeps)^(m+1) / (m+1)! is at most
    1e-15; 17 suffices, since a / substeps <= 1.  Every choice is the row's
    own, and a row past its order adds exact zeros, so a row's result does
    not depend on the other rows of the batch.
    """
    norm = theta * np.abs(hops).sum(axis=2).max(axis=1)
    substeps = np.maximum(1, np.ceil(norm)).astype(int)
    k = np.arange(1, 19)[:, None]
    orders = np.count_nonzero(np.cumprod((norm / substeps) / k, axis=0) > 1e-15, axis=0)
    generator = hops * (-1j * theta / substeps)[:, None, None]
    for sub in range(substeps.max()):
        order = np.where(sub < substeps, orders, 0)
        inverse_k = np.where(k <= order, 1.0 / k, 0.0)[:, :, None, None]
        term, psi = psi, psi.copy()
        for m in range(order.max()):
            term = np.matmul(generator, term)
            term *= inverse_k[m]
            psi += term
    return psi


def propagate_ensemble(
    geometry: ChainGeometry,
    params: PhysicalParams,
    samples: Sequence[Optional[ThermalSample]],
    range_mode: str,
    initial: SpinState,
    times,
    dt: Optional[float] = None,
) -> np.ndarray:
    """Site populations of B realizations under free-flight couplings, (B, N, T).

    ``samples`` holds one trajectory draw per realization (``None`` is an
    atom chain at rest).  All realizations advance together as one (B, N)
    state, but each keeps its own step plan: ``dt`` defaults to a value
    safely inside the step bound 2*pi*nu_max*dt < 0.05 for the row's own
    coupling bound over the run, each sample interval takes the row's own
    number of steps, and rows that finish an interval early wait with a zero
    step.  Every step builds the midpoint coupling matrix, checks the bound
    against it per row (a violation means the coupling bound was wrong and
    raises IntegrationError), and applies exp(-2*pi*i*H*h) by a truncated
    Taylor series whose order each row picks from its own norm (see
    :func:`_taylor_step`).  A row's populations are therefore the same
    whichever realizations share its batch.  The truncation leaves the norm
    unconserved at the 1e-14 level.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-negative and sorted")
    if range_mode not in RANGE_MODES:
        raise ConfigError(f"range_mode must be one of {RANGE_MODES}, got {range_mode!r}")
    n = geometry.n_atoms
    if initial.n != n:
        raise ValueError("state dimension does not match geometry")
    if not samples:
        raise ValueError("at least one realization is required")
    if any(s is not None and s.n_atoms != n for s in samples):
        raise ValueError("trajectory sample does not match geometry")

    at_rest = np.zeros((n, 3))
    disp = np.stack([at_rest if s is None else s.displacements for s in samples])
    vel = np.stack([at_rest if s is None else s.velocities for s in samples])
    flight = PairFlight(geometry, params, disp, vel, _pairs(n, range_mode))
    nu_bound = flight.bound(0.0, float(times[-1]))                    # (B,)
    if dt is None:
        with np.errstate(divide="ignore"):
            dt = np.where(
                nu_bound > 0,
                PHASE_CAP / (2.0 * np.pi * nu_bound * 1.05),
                times[-1] or 1.0,
            )
    dt = np.broadcast_to(np.asarray(dt, dtype=float), nu_bound.shape)
    phase = 2.0 * np.pi * nu_bound * dt
    if np.any(phase >= PHASE_CAP):
        raise ConfigError(
            f"step size violation: 2*pi*nu_max*dt = {phase.max():.3g} "
            f">= {PHASE_CAP} (nu_max bounds the coupling over the whole run)"
        )

    psi = np.empty((len(samples), n, 1), dtype=complex)
    psi[...] = initial.amplitudes[:, None]
    populations = np.empty((len(samples), n, len(times)))
    t_start = 0.0
    for k, t_target in enumerate(times):
        span = t_target - t_start
        n_steps = _step_count(span, dt)
        h = span / np.maximum(n_steps, 1)
        t_now = np.full(len(samples), t_start)
        for step in range(n_steps.max()):
            h_step = np.where(step < n_steps, h, 0.0)
            nu = flight.couplings(t_now + 0.5 * h_step)
            phase = 2.0 * np.pi * np.abs(nu).max(axis=1, initial=0.0) * h_step
            if np.any(phase >= PHASE_CAP):
                b = int(np.argmax(phase >= PHASE_CAP))
                raise IntegrationError(
                    f"step size violation at t = {t_now[b]:.4g} us: "
                    f"2*pi*nu_max*dt = {phase[b]:.3g} (the step plan "
                    "under-estimated the couplings)"
                )
            psi = _taylor_step(_scatter(n, flight.pairs, nu), 2.0 * np.pi * h_step, psi)
            t_now = t_now + h_step
        t_start = t_target
        populations[..., k] = np.abs(psi[..., 0]) ** 2
    return populations


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

    One realization of :func:`propagate_ensemble`, shape (N, T): the
    coupling matrix is rebuilt each step at the midpoint of the step and
    applied through a truncated Taylor series of its exponential, whose
    order the step picks from the matrix norm.  The norm is no longer
    preserved exactly; it drifts by about 1e-14 over a 20-atom run.
    ``dt`` defaults to a value safely inside the step bound
    2*pi*nu_max*dt < 0.05 and is validated against the instantaneous
    couplings of every step.
    """
    return propagate_ensemble(
        geometry, params, [trajectories], range_mode, initial, times, dt
    )[0]
