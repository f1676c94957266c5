"""Closed-system propagation in the single-excitation subspace.

The exchange Hamiltonian conserves total magnetization, so a single flipped
spin hops between sites and the state lives in the N-dimensional subspace
spanned by |i> = "spin up at site i, all others down".  In that basis the
Hamiltonian is just the real symmetric matrix of hopping frequencies
nu_ij = c3 / R_ij^3 (MHz), and static propagation is an exact
eigen-decomposition:

    psi(t) = sum_k exp(-2 pi i lambda_k t) <v_k|psi0> v_k

Time-dependent couplings (thermal motion) are handled by propagating all
realizations at once with the master equation's step, the 4th-order
commutator-free Magnus step (CF4) of Alvermann & Fehske, J. Comput. Phys.
230, 5930 (2011): two exponentials over h/2, at effective couplings from the
step's two Gauss points (``model.cf4_couplings``).  Each exponential is
applied through a truncated Taylor series (Al-Mohy & Higham, SIAM J. Sci.
Comput. 33, 488 (2011)), whose order each realization picks from its own
matrix norm so that the first omitted term is at most 1e-15.  A
realization's step h obeys h 2 pi R <= 1, where R bounds the row sums of its
hopping matrix over the run, so every factor's norm is at most a2 = 0.54 and
one series covers it.  The truncation does not preserve the norm exactly:
over 80 twenty-atom realizations of 10 us at 50 uK it deviated from 1 by at
most 5.3e-15 (Taylor orders 12-13), and the populations stayed within
4.7e-15 of the exact exponentials of the same steps.

Each sample interval is set up before its steps run, in chunks of steps
under a fixed scratch budget (``_STEP_BUDGET_BYTES``), with no object
holding buffers: the Gauss-point couplings of all its steps and
realizations in one call, checked by ``PairFlight``, and each factor's
norms, Taylor orders and generator entries.  A factor then gathers its own
generator and runs the products of its Taylor series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .model import (PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams, cf4_couplings,
                    taylor_plan)
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
    """CF4 steps of one sample interval that are set up together under the budget.

    Each row holds, for every step of the chunk, the (3, P) separations and
    (P,) couplings that ``PairFlight.couplings`` computes at the two Gauss
    points, and for each of the two factors its (P,) effective couplings,
    their magnitudes and complex generator entries with a zero slot, the
    (N, N) gathered magnitudes whose row sums give the norm, and an 18-term
    weight array; and once, the complex (N, N) generator a factor gathers
    and a few (N,) complex states of the matrix-vector products.  Counted
    in 8-byte words, at least one step.
    """
    per_step = 8 * n_pairs + 2 * (n * n + 4 * (n_pairs + 1) + 18)
    fixed = 2 * n * n + 8 * n
    words = _STEP_BUDGET_BYTES // np.dtype(float).itemsize // rows
    return max(1, (words - fixed) // per_step)


def _step_count(duration: float, rate: np.ndarray) -> np.ndarray:
    """Steps per row for one sample interval: none if it is empty, else the
    fewest equal steps h with h * rate <= 1, at least one."""
    if duration <= 0.0:
        return np.zeros(rate.shape, dtype=int)
    return np.maximum(1, np.ceil(duration * rate)).astype(int)


def _row_norm(magnitudes: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Infinity norms (...,) of the hopping matrices whose (..., P) entry
    magnitudes the ``slots`` of :func:`_pair_slots` gather."""
    padded = np.zeros(magnitudes.shape[:-1] + (magnitudes.shape[-1] + 1,))
    padded[..., :-1] = magnitudes
    return padded.take(slots, axis=-1).sum(axis=-1).max(axis=-1)


def _taylor_weights(orders: np.ndarray) -> np.ndarray:
    """Weights (M, B, 1, 1) of the Taylor series of exp(A) to the (B,)
    ``orders`` (from :func:`xychain.model.taylor_plan`): 1/k for term k up
    to the row's order, zero past it, with M the largest order.  A row's
    weights do not depend on the other rows."""
    k = np.arange(1, orders.max(initial=0) + 1)[:, None]
    return np.where(k <= orders, 1.0 / k, 0.0)[..., None, None]


def _taylor_apply(generator: np.ndarray, weights: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply the truncated Taylor series of exp(A) to every row of psi.

    ``generator`` is (B, N, N) complex and holds A_b, ``psi`` is (B, N, 1)
    and ``weights`` (M, B, 1, 1) as from :func:`_taylor_weights`.  A row
    past its order adds exact zeros, so its result does not depend on the
    other rows of the batch.
    """
    term, psi = psi, psi.copy()
    for weight in weights:
        term = np.matmul(generator, term)
        term *= weight
        psi += term
    return psi


def propagate_ensemble(
    geometry: ChainGeometry,
    params: PhysicalParams,
    samples: Sequence[Optional[ThermalSample]],
    range_mode: str,
    initial: SpinState,
    times,
) -> np.ndarray:
    """Site populations of B realizations under free-flight couplings, (B, N, T).

    ``samples`` holds one trajectory draw per realization (``None`` is an
    atom chain at rest).  All realizations advance together as one (B, N)
    state, but each keeps its own step plan: its CF4 step h obeys
    h * 2*pi*R <= 1, where R sums ``PairFlight.bound``'s pair bounds over
    the run along each row of the hopping matrix and takes the largest sum;
    each sample interval takes the row's own number of equal steps, and rows
    that finish an interval early wait with zero steps.  Each interval is set
    up before its steps run, in chunks of steps under a fixed scratch budget:
    the effective couplings of both factors of all its steps and rows from
    ``model.cf4_couplings``, whose Gauss-point couplings ``PairFlight``
    checks against 1.05 times the row's largest pair bound (a violation
    means the bound was wrong and raises IntegrationError naming the
    earliest Gauss point), and each factor's norm, Taylor order and
    generator -2*pi*i*H*h/2.  A factor then gathers its generator and
    applies the Taylor series of its exponential to the row's own order.  A
    row's populations are therefore the same whichever realizations share
    its batch and however the intervals are chunked.  The truncation leaves
    the norm unconserved at the 1e-15 level.
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
    slots = _pair_slots(n, flight.pairs)
    bound = flight.bound(0.0, float(times[-1]))                       # (B, P)
    rate = 2.0 * np.pi * _row_norm(bound, slots)                      # (B,)
    with np.errstate(divide="ignore"):
        check = PHASE_CAP / (2.0 * np.pi * 1.05 * bound.max(axis=-1, initial=0.0))

    chunk = _step_chunk(len(samples), n, len(flight.pairs))
    psi = np.empty((len(samples), n, 1), dtype=complex)
    psi[...] = initial.amplitudes[:, None]
    populations = np.empty((len(samples), n, len(times)))
    t_start = 0.0
    for k, t_target in enumerate(times):
        span = t_target - t_start
        n_steps = _step_count(span, rate)
        h = span / np.maximum(n_steps, 1)
        for first in range(0, n_steps.max(initial=0), chunk):
            step = np.arange(first, min(first + chunk, n_steps.max()))[:, None]
            live = step < n_steps                                     # (S, B)
            h_live = np.where(live, h, 0.0)
            nu = cf4_couplings(flight, np.where(live, t_start + step * h, t_target),
                               h_live, np.where(live, check, 0.0))    # (S, 2, B, P)
            # a factor advances by h/2; as h * rate <= 1 its norm is at most
            # a2 < 1, so one Taylor series covers it (one substep)
            theta = np.pi * h_live[:, None]                           # (S, 1, B)
            orders = taylor_plan(theta * _row_norm(np.abs(nu), slots))[1]
            entries = np.zeros(nu.shape[:-1] + (nu.shape[-1] + 1,), dtype=complex)
            np.multiply(nu, -theta[..., None], out=entries.imag[..., :-1])
            for factor, order in zip(entries.reshape(-1, *entries.shape[2:]),
                                     orders.reshape(-1, len(samples))):
                psi = _taylor_apply(factor.take(slots, axis=-1), _taylor_weights(order), psi)
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
) -> np.ndarray:
    """Site populations under couplings that follow the atoms' free flight.

    One realization of :func:`propagate_ensemble`, shape (N, T): each CF4
    step applies the exponentials of the effective coupling matrices of its
    two Gauss points through truncated Taylor series, whose orders the
    factors pick from their matrix norms.  The norm is not preserved
    exactly; it drifts by about 1e-15 over a 20-atom run.
    """
    return propagate_ensemble(geometry, params, [trajectories], range_mode, initial, times)[0]
