"""Open-system simulation of the full pulse sequence on {g, up, down}^N.

Each atom carries three levels: the ground state, and the two Rydberg levels
("up" and "down") that encode the pseudo-spin.  The density matrix lives on
the dense 3^N product space (hard cap N <= 6; longer chains use the
closed-system module).  Per segment kind the Hamiltonian contains

* optical:    sum_i Omega_L^i/2 (|u><g| + |g><u|) - delta_i (|u><u| + |d><d|),
              with the addressing light shift folded into delta_i for masked
              atoms, plus the exchange interaction;
* microwave:  Omega_MW/2 sum_i (|d><u| + |u><d|) plus the interaction;
* free:       the exchange interaction alone,

where the interaction is sum_{i<j} c3/R_ij(t)^3 (|d u><u d| + h.c.) on the
pair (i, j) and R_ij(t) follows the atoms' free flight.  Dissipation is a
Lindblad term with decay up -> g at rate gamma_up (+ gamma_eff during
optical segments only) and down -> g at rate gamma_down.

Entries are ordinary frequencies (MHz); the equation of motion integrated by
fixed-step 4th-order Runge-Kutta is

    drho/dt = -2 pi i [H, rho] + L[rho].

The step size obeys 2 pi dt max(Omega, delta, nu_max) < 0.05 with additional
per-segment-kind safety margins chosen so that halving dt changes sampled
populations by less than 1e-6; every step checks the couplings it integrates
against that bound, and every sampled or branched state is checked for
trace and positivity (a minimum eigenvalue below -1e-7 raises
IntegrationError).  All states are batchable: a leading batch axis carries
independent thermal realizations, and in a readout scan several readout
branches of the whole realization batch at once.  Those branches run in
chunks sized to a fixed scratch budget and share one step plan, so the
output does not depend on the chunk size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import reduce
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams
from .thermal import ThermalSample

SEGMENT_KINDS = ("optical", "microwave", "free_evolution")

# Safety margins by segment character, tuned empirically so that halving dt
# changes sampled populations by < 1e-6 end to end and the density matrix
# stays positive within -1e-7.  Microwave pulses act on nearly pure states
# whose zero eigenvalues expose the integration error directly; addressed
# optical pulses carry the largest level splitting relative to the
# step-control scale; static (motionless) free evolution uses a wider margin
# because deterministic theory curves are held to the tightest tolerances.
_MARGIN_OPTICAL = 1.2
_MARGIN_MICROWAVE = 2.0
_MARGIN_ADDRESSED = 3.0
_MARGIN_FREE = 3.0
_MARGIN_FREE_STATIC = 6.0
# Error per step scales as (scale*dt)^5 and accumulates over duration*scale
# steps, so margins widen as (duration*scale / reference)^(1/4) beyond the
# reference phase budgets below.
_REF_BUDGET_DRIVE = 0.5
_REF_BUDGET_FREE = 7.0

_MAX_OBE_ATOMS = 6
_POSITIVITY_TOL = -1e-7

#: Scratch bytes the readout branches of one scan may hold at once.  Small,
#: because the branches gain little from batches beyond a few hundred
#: density matrices while peak memory keeps growing.
_BRANCH_BUDGET_BYTES = 2 * 2**20
# B x d x d complex arrays one branch occupies while it runs: its state in
# the branch buffer, the engine's four RK4 stages, three RHS scratch arrays
# and the RHS temporaries.
_ARRAYS_PER_BRANCH = 10


class Level(IntEnum):
    """Single-atom levels; the product-basis digit order is g, up, down."""

    G = 0
    UP = 1
    DOWN = 2


_LEVEL_CHARS = {"g": Level.G, "u": Level.UP, "d": Level.DOWN}


@dataclass(frozen=True)
class PulseSegment:
    """One piece of the experimental sequence.

    The kind selects which drives are active: optical segments couple
    g <-> up (and carry the effective damping gamma_eff), microwave segments
    couple up <-> down, free evolution has the interaction only.  The
    addressing mask marks atoms shifted out of resonance by the addressing
    beam during an optical segment.
    """

    kind: str
    duration: float
    addressing_mask: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        if self.kind not in SEGMENT_KINDS:
            raise ConfigError(f"segment kind must be one of {SEGMENT_KINDS}")
        if not self.duration > 0:
            raise ConfigError(f"segment duration must be > 0, got {self.duration}")
        if self.addressing_mask is not None:
            if self.kind != "optical":
                raise ConfigError("addressing mask only applies to optical segments")
            object.__setattr__(
                self, "addressing_mask", tuple(bool(b) for b in self.addressing_mask)
            )

    @classmethod
    def optical(cls, duration: float, addressing_mask=None) -> "PulseSegment":
        return cls("optical", duration, addressing_mask)

    @classmethod
    def microwave(cls, duration: float) -> "PulseSegment":
        return cls("microwave", duration)

    @classmethod
    def free(cls, duration: float) -> "PulseSegment":
        return cls("free_evolution", duration)


@dataclass(frozen=True)
class PulseSequence:
    """Ordered segments of one experimental sequence."""

    segments: tuple[PulseSegment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ConfigError("a pulse sequence needs at least one segment")

    @property
    def total_duration(self) -> float:
        return float(sum(seg.duration for seg in self.segments))


def level_labels(n_atoms: int) -> list[str]:
    """Basis-state labels ('g'/'u'/'d' per atom) in product-index order."""
    return ["".join(s) for s in itertools.product("gud", repeat=n_atoms)]


def basis_index(labels: str) -> int:
    """Product-basis index of a label string, atom 0 most significant."""
    idx = 0
    for ch in labels:
        idx = 3 * idx + int(_LEVEL_CHARS[ch])
    return idx


def basis_rho(labels: str) -> np.ndarray:
    """Pure-state density matrix for a product label such as 'udd'."""
    d = 3 ** len(labels)
    rho = np.zeros((d, d), dtype=complex)
    k = basis_index(labels)
    rho[k, k] = 1.0
    return rho


def _site_operator(op: np.ndarray, site: int, n_atoms: int) -> np.ndarray:
    mats = [np.eye(3)] * n_atoms
    mats[site] = op
    return reduce(np.kron, mats)


def _transition(a: Level, b: Level) -> np.ndarray:
    op = np.zeros((3, 3))
    op[a, b] = 1.0
    return op


class _OperatorTable:
    """Dense product-space operators for a given atom count."""

    _cache: dict[int, "_OperatorTable"] = {}

    def __init__(self, n_atoms: int):
        self.n = n_atoms
        self.d = 3**n_atoms
        self.x_gu = [
            _site_operator(
                _transition(Level.UP, Level.G) + _transition(Level.G, Level.UP), i, n_atoms
            )
            for i in range(n_atoms)
        ]
        self.x_ud = [
            _site_operator(
                _transition(Level.DOWN, Level.UP) + _transition(Level.UP, Level.DOWN),
                i,
                n_atoms,
            )
            for i in range(n_atoms)
        ]
        levels = np.array(
            [list(s) for s in itertools.product(range(3), repeat=n_atoms)]
        )  # (d, n)
        self.diag_up = [(levels[:, i] == Level.UP).astype(float) for i in range(n_atoms)]
        self.diag_down = [
            (levels[:, i] == Level.DOWN).astype(float) for i in range(n_atoms)
        ]
        self.diag_rydberg = [
            self.diag_up[i] + self.diag_down[i] for i in range(n_atoms)
        ]
        # index pairs mapping the recycling term: rho[up_i block] -> rho[g_i block]
        self.idx_g, self.idx_up, self.idx_down = [], [], []
        for i in range(n_atoms):
            sel = np.nonzero(levels[:, i] == Level.G)[0]
            stride = 3 ** (n_atoms - 1 - i)
            self.idx_g.append(sel)
            self.idx_up.append(sel + stride)
            self.idx_down.append(sel + 2 * stride)
        pairs = [(i, j) for i in range(n_atoms) for j in range(i + 1, n_atoms)]
        self.pairs = pairs
        hop = []
        for i, j in pairs:
            du_i = _site_operator(_transition(Level.DOWN, Level.UP), i, n_atoms)
            ud_j = _site_operator(_transition(Level.UP, Level.DOWN), j, n_atoms)
            op = du_i @ ud_j
            hop.append(op + op.T)
        self.hop_flat = (
            np.stack([h.reshape(-1) for h in hop]).astype(complex)
            if pairs
            else np.zeros((0, self.d * self.d), dtype=complex)
        )

    @classmethod
    def get(cls, n_atoms: int) -> "_OperatorTable":
        if n_atoms not in cls._cache:
            cls._cache[n_atoms] = cls(n_atoms)
        return cls._cache[n_atoms]


def _dense_operators(n_atoms: int) -> _OperatorTable:
    """Operator table of a chain the dense master equation accepts."""
    if n_atoms > _MAX_OBE_ATOMS:
        raise ConfigError(
            f"dense 3^N master equation is capped at N = {_MAX_OBE_ATOMS} "
            f"atoms, got {n_atoms}; use the closed-system module for long chains"
        )
    return _OperatorTable.get(n_atoms)


def _samples(trajectories, n_atoms: int) -> list[ThermalSample]:
    """The trajectories as a list (a single one at rest when None)."""
    if trajectories is None:
        samples = [ThermalSample.at_rest(n_atoms)]
    elif isinstance(trajectories, ThermalSample):
        samples = [trajectories]
    else:
        samples = list(trajectories)
    for s in samples:
        if s.n_atoms != n_atoms:
            raise ConfigError("trajectory sample does not match the geometry")
    return samples


def _resolve_initial(initial, n_atoms: int) -> np.ndarray:
    d = 3**n_atoms
    if initial is None:
        return basis_rho("g" * n_atoms)
    if isinstance(initial, str):
        if len(initial) != n_atoms:
            raise ConfigError(f"initial label {initial!r} does not match {n_atoms} atoms")
        return basis_rho(initial)
    rho = np.asarray(initial, dtype=complex)
    if rho.shape != (d, d):
        raise ConfigError(f"initial rho must have shape ({d}, {d}), got {rho.shape}")
    return rho.copy()


class _SegmentCache:
    """Per-segment constants: drive Hamiltonian, decay rates, step size; for
    motionless atoms also the full Hamiltonian and its largest coupling."""

    __slots__ = (
        "h_drive_flat",
        "w_matrix",
        "rates_up",
        "rate_down",
        "dt",
        "h_static",
        "nu_static",
    )

    def __init__(self, h_drive_flat, w_matrix, rates_up, rate_down, dt):
        self.h_drive_flat = h_drive_flat
        self.w_matrix = w_matrix
        self.rates_up = rates_up
        self.rate_down = rate_down
        self.dt = dt
        self.h_static = None
        self.nu_static = 0.0


class _Engine:
    """Batched RK4 integrator for the master equation.

    The batch axis carries independent realizations (distinct thermal
    trajectories); all states evolve under the same segment structure but
    their own time-dependent couplings.  The scratch holds ``branches``
    copies of the batch, so that a state of up to ``branches * batch`` rows
    (branch-major, times of shape (branches, batch)) advances in one pass.
    """

    def __init__(
        self,
        geometry: ChainGeometry,
        params: PhysicalParams,
        trajectories: Union[None, ThermalSample, Sequence[ThermalSample]] = None,
        dt_scale: float = 1.0,
        branches: int = 1,
    ):
        n = geometry.n_atoms
        self.ops = _dense_operators(n)
        if not 0 < dt_scale <= 1.0:
            raise ConfigError(f"dt_scale must be in (0, 1], got {dt_scale}")
        self.params = params
        self.n = n
        self.d = self.ops.d
        self.dt_scale = dt_scale
        samples = _samples(trajectories, n)
        self.batch = len(samples)
        self.flight = PairFlight(
            geometry,
            params,
            np.stack([s.displacements for s in samples]),
            np.stack([s.velocities for s in samples]),
            self.ops.pairs,
        )
        self.gamma_eff = params.gamma_eff_per_atom(n)

        # scratch buffers for the allocation-free RK4 hot path; a smaller
        # state uses their leading rows
        rows = branches * self.batch
        shape = (rows, self.d, self.d)
        self._k = [np.empty(shape, dtype=complex) for _ in range(4)]
        self._tmp = np.empty(shape, dtype=complex)
        self._m1 = np.empty(shape, dtype=complex)
        self._m2 = np.empty(shape, dtype=complex)
        self._hflat = np.empty((rows, self.d * self.d), dtype=complex)

    def _segment_cache(self, segment: PulseSegment, t_start, t_end=None) -> _SegmentCache:
        """Constants of one segment whose step suits the couplings over
        [t_start, t_end], by default the segment itself."""
        ops, params, n, d = self.ops, self.params, self.n, self.d
        # drive Hamiltonian (MHz), per-atom detunings and largest Rabi frequency
        h_drive = np.zeros((d, d))
        delta_eff = np.zeros(n)
        drive_max = 0.0
        if segment.kind == "optical":
            mask = segment.addressing_mask
            if mask is not None and len(mask) != n:
                raise ConfigError(f"addressing mask length {len(mask)} != {n} atoms")
            omega_opt = params.omega_opt_per_atom(n)
            delta_eff = params.delta_opt_per_atom(n)
            if mask is not None:
                delta_eff += np.asarray(mask, dtype=float) * params.addressing_shift
            diag = np.zeros(d)
            for i in range(n):
                h_drive = h_drive + 0.5 * omega_opt[i] * ops.x_gu[i]
                diag -= delta_eff[i] * ops.diag_rydberg[i]
            h_drive[np.diag_indices(d)] += diag
            drive_max = float(np.max(np.abs(omega_opt)))
        elif segment.kind == "microwave":
            for i in range(n):
                h_drive = h_drive + 0.5 * params.omega_mw * ops.x_ud[i]
            drive_max = abs(params.omega_mw)
        gamma_optical = self.gamma_eff if segment.kind == "optical" else 0.0
        rates_up = params.gamma_up + np.broadcast_to(gamma_optical, (n,)).astype(float)
        rate_down = params.gamma_down
        w = np.zeros(d)
        for i in range(n):
            w += rates_up[i] * ops.diag_up[i] + rate_down * ops.diag_down[i]
        w_matrix = 0.5 * (w[:, None] + w[None, :])

        t_start = np.atleast_1d(t_start)
        if t_end is None:
            t_end = t_start + segment.duration
        nu_max = float(np.max(self.flight.bound(t_start, t_end)))
        scale = max(drive_max, float(np.max(np.abs(delta_eff))), nu_max)
        if segment.kind == "free_evolution":
            margin = _MARGIN_FREE_STATIC if self.flight.static else _MARGIN_FREE
            budget = _REF_BUDGET_FREE
        elif np.max(np.abs(delta_eff)) > drive_max:
            margin = _MARGIN_ADDRESSED
            budget = _REF_BUDGET_DRIVE
        elif segment.kind == "microwave":
            margin = _MARGIN_MICROWAVE
            budget = _REF_BUDGET_DRIVE
        else:
            margin = _MARGIN_OPTICAL
            budget = _REF_BUDGET_DRIVE
        margin *= max(1.0, (segment.duration * scale / budget)) ** 0.25
        if scale <= 0.0:
            dt = segment.duration
        else:
            dt = PHASE_CAP * self.dt_scale / (2.0 * np.pi * scale * margin)
        cache = _SegmentCache(
            h_drive.astype(complex).reshape(-1), w_matrix, rates_up, rate_down, dt
        )
        if self.flight.static:
            nu = self.flight.couplings(np.zeros(1))[0]
            h_int = (nu @ ops.hop_flat).reshape(self.d, self.d)
            cache.h_static = cache.h_drive_flat.reshape(self.d, self.d) + h_int
            cache.nu_static = float(np.max(np.abs(nu), initial=0.0))
        return cache

    def _rhs(self, t, rho, cache: _SegmentCache, out, step: float = 0.0) -> np.ndarray:
        """drho/dt into ``out``; the commutator uses rho H = (H rho)^dagger,
        which keeps the result Hermitian to machine precision.

        A nonzero ``step`` first checks the couplings at t against an RK4
        step of that size: one whose phase 2 pi nu h reaches PHASE_CAP means
        the step plan under-estimated the couplings, and raises.
        """
        rows, d = len(rho), self.d
        m1, m2 = self._m1[:rows], self._m2[:rows]
        if cache.h_static is not None:
            h = cache.h_static
            if step and 2.0 * np.pi * cache.nu_static * step >= PHASE_CAP:
                self._step_violation(t, cache.nu_static, step)
        else:
            nu = self.flight.couplings(t).reshape(rows, -1)
            if step and 2.0 * np.pi * np.abs(nu).max(initial=0.0) * step >= PHASE_CAP:
                self._step_violation(t, nu, step)
            hflat = self._hflat[:rows]
            np.matmul(nu.astype(complex), self.ops.hop_flat, out=hflat)
            hflat += cache.h_drive_flat
            h = hflat.reshape(rows, d, d)
        np.matmul(h, rho, out=m1)
        ops = self.ops
        np.conjugate(m1, out=m2)
        np.subtract(m1, m2.transpose(0, 2, 1), out=out)
        out *= -2j * np.pi
        np.multiply(cache.w_matrix, rho, out=m1)
        out -= m1
        for i in range(self.n):
            g_rows = ops.idx_g[i][:, None]
            g_cols = ops.idx_g[i][None, :]
            out[:, g_rows, g_cols] += (
                cache.rates_up[i] * rho[:, ops.idx_up[i][:, None], ops.idx_up[i][None, :]]
            )
            out[:, g_rows, g_cols] += (
                cache.rate_down * rho[:, ops.idx_down[i][:, None], ops.idx_down[i][None, :]]
            )
        return out

    @staticmethod
    def _step_violation(t, nu, step: float):
        """Raise, naming the time of the state row (of nu, (rows, P), or a
        scalar for every row) that carries the largest coupling."""
        size = np.abs(np.atleast_2d(nu))
        row = int(np.argmax(size)) // size.shape[-1]
        phase = 2.0 * np.pi * float(size.max()) * step
        t_row = float(np.ravel(t)[row % np.size(t)])
        raise IntegrationError(
            f"step size violation at t = {t_row:.6g} us: 2*pi*nu_max*dt = "
            f"{phase:.3g} >= {PHASE_CAP} (the step plan under-estimated the couplings)"
        )

    @staticmethod
    def _axpy(out, x, alpha: float, y):
        """out = x + alpha * y."""
        np.multiply(y, alpha, out=out)
        out += x

    def _advance(self, rho, t_start, span: float, cache: _SegmentCache):
        """In-place RK4 from t_start over span; t_start has shape (B,), or
        (branches, B) for a stack of branches."""
        if span <= 0.0:
            return rho
        n_steps = max(1, int(np.ceil(span / cache.dt)))
        h = span / n_steps
        rows = len(rho)
        k1, k2, k3, k4 = (k[:rows] for k in self._k)
        tmp = self._tmp[:rows]
        offset = 0.0
        for _ in range(n_steps):
            t = t_start + offset
            self._rhs(t, rho, cache, k1, step=h)
            self._axpy(tmp, rho, 0.5 * h, k1)
            self._rhs(t + 0.5 * h, tmp, cache, k2)
            self._axpy(tmp, rho, 0.5 * h, k2)
            self._rhs(t + 0.5 * h, tmp, cache, k3)
            self._axpy(tmp, rho, h, k3)
            self._rhs(t + h, tmp, cache, k4)
            # rho += (h/6) (k1 + 2 k2 + 2 k3 + k4), clobbering k2
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= h / 6.0
            rho += k2
            offset += h
        return rho

    def integrate_segment(self, rho, t_start, segment: PulseSegment, snap_offsets=None):
        """Evolve through one segment; returns (rho, snapshots at offsets).

        ``rho`` is advanced in place and must be owned by the caller; the
        returned snapshots are independent copies.
        """
        cache = self._segment_cache(segment, t_start)
        snaps = []
        cursor = 0.0
        for target in snap_offsets if snap_offsets is not None else []:
            if target < -1e-12 or target > segment.duration + 1e-12:
                raise ConfigError("snapshot offset outside segment")
            rho = self._advance(rho, t_start + cursor, target - cursor, cache)
            cursor = target
            snaps.append(rho.copy())
        rho = self._advance(rho, t_start + cursor, segment.duration - cursor, cache)
        return rho, snaps

    def check_state(self, rho, t) -> float:
        """Largest trace deviation of the stacked states; raises on a
        positivity violation, naming the time (of t, one per row or
        broadcast) of the offending row."""
        trace_dev = float(np.max(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)))
        min_eigs = np.linalg.eigvalsh(rho).min(axis=-1)
        row = int(np.argmin(min_eigs))
        if min_eigs[row] < _POSITIVITY_TOL:
            t_row = float(np.broadcast_to(np.ravel(t), min_eigs.shape)[row])
            raise IntegrationError(
                f"density matrix positivity violated at t = {t_row:.6g} "
                f"us (min eigenvalue {min_eigs[row]:.3g})"
            )
        return trace_dev


@dataclass(frozen=True)
class SequenceResult:
    """Level populations along one sequence run."""

    times: np.ndarray               # (T,) absolute times, us
    populations: np.ndarray         # (T, 3^N) diagonal of rho
    max_trace_deviation: float
    final_state: np.ndarray         # (3^N, 3^N) read-only density matrix at the end


@dataclass(frozen=True)
class ReadoutScanResult:
    """Per-branch final level populations of a readout scan."""

    tau_grid: np.ndarray            # (T,) free-evolution durations, us
    populations: np.ndarray         # (B, T, 3^N) after the readout suffix
    total_durations: np.ndarray     # (T,) full sequence duration per branch
    max_trace_deviation: float


def run_sequence(
    sequence: PulseSequence,
    geometry: ChainGeometry,
    params: PhysicalParams,
    trajectories: Optional[ThermalSample] = None,
    sample_times=None,
    initial=None,
    dt_scale: float = 1.0,
) -> SequenceResult:
    """Integrate the master equation across all segments of a sequence.

    Returns the diagonal populations in the product basis at the requested
    absolute sample times (default: every segment boundary).  The density
    matrix is continuous across segment joins; trace deviation is tracked
    and positivity is checked at every sample.  ``trajectories`` is one
    thermal sample (None: atoms at rest); a batch goes to :func:`readout_scan`.
    """
    n = geometry.n_atoms
    samples = _samples(trajectories, n)
    if len(samples) != 1:
        raise ConfigError(
            f"run_sequence integrates one trajectory, got {len(samples)}; "
            "use readout_scan for a batch"
        )
    engine = _Engine(geometry, params, samples, dt_scale)
    total = sequence.total_duration
    if sample_times is None:
        sample_times = np.cumsum([0.0] + [s.duration for s in sequence.segments])
    times = np.atleast_1d(np.asarray(sample_times, dtype=float))
    if np.any(times < 0) or np.any(times > total + 1e-9) or np.any(np.diff(times) < 0):
        raise ConfigError("sample times must be sorted within the sequence duration")

    rho = _resolve_initial(initial, n)[None, :, :]
    t0 = np.zeros(1)
    populations = np.empty((len(times), engine.d))
    max_dev = 0.0
    cursor = 0.0
    k = 0
    while k < len(times) and times[k] <= cursor + 1e-12:
        populations[k] = np.real(np.diagonal(rho[0]))
        max_dev = max(max_dev, engine.check_state(rho, cursor))
        k += 1
    for seg in sequence.segments:
        seg_end = cursor + seg.duration
        offsets = []
        while k < len(times) and times[k] <= seg_end + 1e-12:
            offsets.append(min(times[k] - cursor, seg.duration))
            k += 1
        rho, snaps = engine.integrate_segment(rho, t0, seg, offsets)
        for j, snap in enumerate(snaps):
            populations[k - len(snaps) + j] = np.real(np.diagonal(snap[0]))
            max_dev = max(max_dev, engine.check_state(snap, cursor + offsets[j]))
        t0 = t0 + seg.duration
        cursor = seg_end
    max_dev = max(max_dev, engine.check_state(rho, cursor))
    final_state = rho[0]
    final_state.flags.writeable = False
    return SequenceResult(
        times=times,
        populations=populations,
        max_trace_deviation=max_dev,
        final_state=final_state,
    )


def _branch_chunk(batch: int, n_atoms: int) -> int:
    """Readout branches that run together within the scratch budget."""
    per_branch = _ARRAYS_PER_BRANCH * batch * 9**n_atoms * np.dtype(complex).itemsize
    return max(1, _BRANCH_BUDGET_BYTES // per_branch)


def readout_scan(
    geometry: ChainGeometry,
    params: PhysicalParams,
    prefix: Sequence[PulseSegment],
    tau_grid,
    suffix: Sequence[PulseSegment],
    trajectories: Union[None, ThermalSample, Sequence[ThermalSample]] = None,
    initial=None,
    dt_scale: float = 1.0,
) -> ReadoutScanResult:
    """Scan the free-evolution duration with a branched readout.

    The preparation segments run once; the state then free-evolves, and at
    every tau on the grid a copy branches into the readout suffix whose final
    level populations are recorded.  With a batch of thermal trajectories all
    realizations advance together, so a full Monte-Carlo scan is a single
    pass.  Equivalent to running the full sequence separately for every tau.

    The branches wait in a buffer and run the suffix together, as many at a
    time as fit the module's scratch budget (one at a time for 100
    realizations of two or more atoms).  Each suffix segment has one step
    size for all branches, sized for its couplings from the first branch's
    start to the last branch's end, so the result does not depend on how the
    branches are chunked.  Every branch's state is checked for trace and
    positivity as it enters and leaves the suffix.
    """
    n = geometry.n_atoms
    taus = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if taus.size == 0 or np.any(taus < 0) or np.any(np.diff(taus) <= 0):
        raise ConfigError("tau grid must be non-empty, non-negative and strictly increasing")
    prefix = list(prefix)
    suffix = list(suffix)
    samples = _samples(trajectories, n)
    chunk = min(_branch_chunk(len(samples), n), len(taus))
    engine = _Engine(geometry, params, samples, dt_scale, chunk)
    batch, d = engine.batch, engine.d

    rho = np.broadcast_to(_resolve_initial(initial, n), (batch, d, d)).copy()
    t_now = np.zeros(batch)
    for seg in prefix:
        rho, _ = engine.integrate_segment(rho, t_now, seg)
        t_now = t_now + seg.duration
    prefix_duration = float(sum(s.duration for s in prefix))
    suffix_duration = float(sum(s.duration for s in suffix))

    plan = []
    first, last = t_now + taus[0], t_now + taus[-1]
    for seg in suffix:
        plan.append((seg.duration, engine._segment_cache(seg, first, last + seg.duration)))
        first, last = first + seg.duration, last + seg.duration

    branches = np.empty((chunk * batch, d, d), dtype=complex)
    starts = np.empty((chunk, batch))
    populations = np.empty((batch, len(taus), d))
    max_dev = 0.0
    cursor = 0.0
    for k, tau in enumerate(taus):
        if tau > cursor:
            segment = PulseSegment.free(tau - cursor)
            rho, _ = engine.integrate_segment(rho, t_now, segment)
            t_now = t_now + (tau - cursor)
            cursor = tau
        j = k % chunk
        branches[j * batch : (j + 1) * batch] = rho
        starts[j] = t_now
        if j + 1 < chunk and k + 1 < len(taus):
            continue
        stack, t_branch = branches[: (j + 1) * batch], starts[: j + 1]
        max_dev = max(max_dev, engine.check_state(stack, t_branch))
        for duration, cache in plan:
            engine._advance(stack, t_branch, duration, cache)
            t_branch = t_branch + duration
        max_dev = max(max_dev, engine.check_state(stack, t_branch))
        pops = np.real(np.diagonal(stack, axis1=-2, axis2=-1)).reshape(j + 1, batch, d)
        populations[:, k - j : k + 1, :] = pops.transpose(1, 0, 2)
    return ReadoutScanResult(
        tau_grid=taus,
        populations=populations,
        total_durations=prefix_duration + taus + suffix_duration,
        max_trace_deviation=max_dev,
    )

