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

The steps of all sample intervals come from ``model.cf4_plan``, the step
planner of both engines, in chunks under its scratch budget that may end
mid-interval or span several, with no object holding buffers.  A chunk sets
up the Gauss-point couplings, norms, Taylor orders and generator entries of
all its steps and realizations; a factor then gathers its own generator and
runs the products of its Taylor series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError
from .model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams, cf4_plan, taylor_plan
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
    that finish an interval early wait with zero steps.  ``model.cf4_plan``
    sets the steps up across the intervals, in chunks under a fixed scratch
    budget that may end mid-interval or span several: the effective
    couplings of both factors of all their steps and rows, whose Gauss-point
    couplings ``PairFlight`` checks against 1.05 times the row's largest
    pair bound (a violation means the bound was wrong and raises
    IntegrationError naming the earliest Gauss point); then each factor's
    norm, Taylor order and generator -2*pi*i*H*h/2.  A factor gathers its
    generator and applies the Taylor series of its exponential to the row's
    own order, and an interval's populations are recorded after its last
    step.  A row's populations are therefore the same whichever
    realizations share its batch and however the steps are chunked.  An
    empty time grid gives (B, N, 0).  The truncation leaves the norm
    unconserved at the 1e-15 level.
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
    bound = flight.bound(0.0, float(times.max(initial=0.0)))          # (B, P)
    rate = 2.0 * np.pi * _row_norm(bound, slots)                      # (B,)
    with np.errstate(divide="ignore"):
        check = PHASE_CAP / (2.0 * np.pi * 1.05 * bound.max(axis=-1, initial=0.0))

    # interval k, from the previous sample (or 0) to times[k], takes the
    # row's fewest equal steps h with h * rate <= 1: at least one, none if empty
    spans = np.diff(times, prepend=0.0)[:, None]                      # (T, 1)
    counts = np.where(spans > 0.0, np.maximum(1, np.ceil(spans * rate)), 0).astype(int)
    starts = np.broadcast_to(np.concatenate(([0.0], times))[:-1, None], counts.shape)
    # per step and row, each factor's gathered (N, N) magnitudes for its norm
    # and its complex generator entries with a zero slot
    words = 2 * (n * n + 2 * (len(flight.pairs) + 1))
    plan = cf4_plan(flight, starts, spans / np.maximum(counts, 1), counts, check, words)

    psi = np.empty((len(samples), n, 1), dtype=complex)
    psi[...] = initial.amplitudes[:, None]
    populations = np.empty((len(samples), n, len(times)))
    recorded = 0  # the intervals whose populations are written
    for span, h, nu in plan:
        # a factor advances by h/2; as h * rate <= 1 its norm is at most
        # a2 < 1, so one Taylor series covers it (one substep)
        theta = np.pi * h[:, None]                                    # (S, 1, B)
        orders = taylor_plan(theta * _row_norm(np.abs(nu), slots))[1]
        entries = np.zeros(nu.shape[:-1] + (nu.shape[-1] + 1,), dtype=complex)
        np.multiply(nu, -theta[..., None], out=entries.imag[..., :-1])
        for k, step_entries, step_orders in zip(span.tolist(), entries, orders):
            if k > recorded:  # the intervals before k are complete
                populations[..., recorded:k] = np.abs(psi) ** 2
                recorded = k
            for factor, order in zip(step_entries, step_orders):
                psi = _taylor_apply(factor.take(slots, axis=-1), _taylor_weights(order), psi)
    populations[..., recorded:] = np.abs(psi) ** 2
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
