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

Each sample interval is set up before its steps run, in chunks of steps
under a fixed scratch budget (``_STEP_BUDGET_BYTES``) by one function, with
no object holding buffers: the midpoint couplings of all its steps and
realizations in one call, checked against their steps by ``PairFlight``,
and each realization's norms, Taylor orders and generator entries.  A step
then gathers its own generator and runs the products of its Taylor series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams, taylor_plan
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


def _pair_slots(n: int, pairs: np.ndarray) -> np.ndarray:
    """(N, N) index of each hopping-matrix entry into per-pair values with
    one trailing zero slot: p for both entries of the (P, 2) ``pairs[p]``,
    P for every other entry."""
    slots = np.full((n, n), len(pairs))
    slots[pairs[:, 0], pairs[:, 1]] = slots[pairs[:, 1], pairs[:, 0]] = np.arange(len(pairs))
    return slots


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
    nu = np.append(flight.couplings(0.0)[0], 0.0)
    entries = nu[_pair_slots(geometry.n_atoms, flight.pairs)]
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


#: Scratch bytes one sample interval's step plan and step arrays may hold
#: at once.  An interval whose plan does not fit is set up in chunks of
#: consecutive steps.
_STEP_BUDGET_BYTES = 2**20


def _step_chunk(rows: int, n: int, n_pairs: int) -> int:
    """Steps of one sample interval that are set up together under the budget.

    Each row holds, for every step of the chunk, its (P,) couplings while
    ``PairFlight.couplings`` computes them from a (3, P) separation, their
    magnitudes and complex generator entries with a zero slot, the (N, N)
    gathered magnitudes whose row sums give the norm, and two 18-term
    arrays of the Taylor plan; and once, the complex (N, N) generator a
    step gathers and a few (N,) complex states of the matrix-vector products.
    Counted in 8-byte words, at least one step.
    """
    per_step = n * n + 7 * (n_pairs + 1) + 3 * 18
    fixed = 2 * n * n + 8 * n
    words = _STEP_BUDGET_BYTES // np.dtype(float).itemsize // rows
    return max(1, (words - fixed) // per_step)


def _step_count(duration: float, dt: np.ndarray) -> np.ndarray:
    """Steps per row for one sample interval: none if it is empty, else
    ceil(duration / dt), at least one."""
    if duration <= 0.0:
        return np.zeros(dt.shape, dtype=int)
    return np.maximum(1, np.ceil(duration / dt)).astype(int)


def _taylor_plan(norm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Substeps and Taylor weights of exp(A) for rows of a = ||A||_inf = ``norm``.

    ``norm`` has shape (..., B).  Each row takes the substeps and order
    that :func:`xychain.model.taylor_plan` picks from its own norm.
    Returns the (..., B) substeps and
    the (..., U, 18, B, 1, 1) weights 1/k of the k-th term in substep u,
    zero past the row's order and in the substeps past its count, with U
    the largest count.  Every choice is the row's own, so a row's weights do
    not depend on the other rows.
    """
    substeps, orders = taylor_plan(norm)
    k = np.arange(1, 19)[:, None]
    sub = np.arange(substeps.max(initial=1))[:, None, None]
    active = np.where(sub < substeps[..., None, None, :], orders[..., None, None, :], 0)
    weights = np.where(k <= active, 1.0 / k, 0.0)                     # (..., U, 18, B)
    return substeps, weights[..., None, None]


def _taylor_apply(generator: np.ndarray, weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply the truncated Taylor series of exp(A) to every row of psi.

    ``generator`` is (B, N, N) complex and holds A_b / substeps_b, ``psi``
    is (B, N, 1) and ``weights`` (U, M, B, 1, 1) as from
    :func:`_taylor_plan`, cut to the U substeps and M terms the step needs.
    A row past its order or its substep count adds exact zeros, so its
    result does not depend on the other rows of the batch.
    """
    for per_term in weights:
        term, psi = psi, psi.copy()
        for weight in per_term:
            term = np.matmul(generator, term)
            term *= weight
            psi += term
    return psi


def _plan_steps(flight: PairFlight, slots: np.ndarray, start: np.ndarray,
                h_step: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Set up S steps of every row from their (S, B) starts and lengths.

    Takes the couplings at every step's midpoint, checked against the step
    by ``flight``, and picks each row's substeps and Taylor weights from the
    infinity norm of its generator A = -2*pi*i*H*h (gathered through the
    ``slots`` of :func:`_pair_slots`).  Returns the (S, B, P+1) entries of
    A / substeps, slot P zero, and per step the weights for
    :func:`_taylor_apply`, cut to the substeps and terms the step needs.
    """
    nu = flight.couplings(start + 0.5 * h_step, h_step)                 # (S, B, P)
    magnitude = np.zeros(nu.shape[:-1] + (nu.shape[-1] + 1,))
    np.abs(nu, out=magnitude[..., :-1])
    row_sums = magnitude.take(slots, axis=-1).sum(axis=-1)
    theta = 2.0 * np.pi * h_step
    substeps, weights = _taylor_plan(theta * row_sums.max(axis=-1))
    entries = np.zeros(magnitude.shape, dtype=complex)
    np.multiply(nu, (-theta / substeps)[..., None], out=entries.imag[..., :-1])
    n_sub = substeps.max(axis=-1).tolist()
    n_terms = weights.any(axis=(1, 3, 4, 5)).sum(axis=-1).tolist()
    return entries, [w[:u, :m] for w, u, m in zip(weights, n_sub, n_terms)]


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
    number of equal steps, and rows that finish an interval early wait with
    zero steps.  Each interval is set up before its steps run, in chunks of
    steps under a fixed scratch budget, by the function :func:`_plan_steps`:
    the midpoint couplings of all its steps and rows, checked against their
    steps by ``PairFlight.couplings`` (a violation means the coupling bound
    was wrong and raises IntegrationError naming the step's midpoint), and
    each row's norm, Taylor order and generator -2*pi*i*H*h; a step then
    gathers its generator and applies the Taylor series of exp(-2*pi*i*H*h)
    to the row's own order.  A row's populations are therefore the same
    whichever realizations share its batch and however the intervals are
    chunked.  The truncation leaves the norm unconserved at the 1e-14 level.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(times < 0) or np.any(np.diff(times) < 0):
        raise ValueError("times must be non-negative and sorted")
    if range_mode not in RANGE_MODES:
        raise ConfigError(f"range_mode must be one of {RANGE_MODES}, got {range_mode!r}")
    n = geometry.n_atoms
    if initial.n != n:
        raise ValueError("state dimension does not match geometry")
    flight = PairFlight.of_samples(geometry, params, samples, _pairs(n, range_mode))
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
            f"step size too large: 2*pi*nu_max*dt = {phase.max():.3g} "
            f">= {PHASE_CAP} (nu_max bounds the coupling over the whole run)"
        )

    slots = _pair_slots(n, flight.pairs)
    chunk = _step_chunk(len(samples), n, len(flight.pairs))
    psi = np.empty((len(samples), n, 1), dtype=complex)
    psi[...] = initial.amplitudes[:, None]
    populations = np.empty((len(samples), n, len(times)))
    t_start = 0.0
    for k, t_target in enumerate(times):
        span = t_target - t_start
        n_steps = _step_count(span, dt)
        h = span / np.maximum(n_steps, 1)
        for first in range(0, n_steps.max(initial=0), chunk):
            step = np.arange(first, min(first + chunk, n_steps.max()))[:, None]
            live = step < n_steps                                     # (S, B)
            entries, plan = _plan_steps(
                flight, slots, np.where(live, t_start + step * h, t_target),
                np.where(live, h, 0.0),
            )
            for s, weights in enumerate(plan):
                psi = _taylor_apply(entries[s].take(slots, axis=-1), weights, psi)
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
