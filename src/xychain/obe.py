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

Entries are ordinary frequencies (MHz); the equation of motion is

    drho/dt = -2 pi i [H, rho] + L[rho].

Every Hamiltonian above is real symmetric and L maps real matrices to real
ones, so the engine carries rho = A + iB (A symmetric, B antisymmetric) as one
real matrix M = A + B and integrates, by fixed-step 4th-order Runge-Kutta,

    dM/dt = 2 pi (H M - M H)^T - w * M + R[M],

where w_kl = (w_k + w_l)/2 holds the total decay rates w_k of the basis
states and R moves each atom's up and down blocks, times their decay rates,
into its g block.  Populations are diag(M).  The Hermitian
rho = (M + M^T)/2 + i (M - M^T)/2 is rebuilt only where a complex matrix is
needed: by the positivity check and for ``SequenceResult.final_state``.

The step size obeys 2 pi dt max(Omega, delta, nu_max) < 0.05 with additional
per-segment-kind safety margins chosen so that halving dt changes sampled
populations by less than 1e-6; ``PairFlight`` checks the couplings of every
step against that bound (for atoms at rest, once per segment), and every
sampled or branched state is checked for trace and positivity (a minimum
eigenvalue below -1e-7 raises IntegrationError).  All states are
batchable: a leading batch axis carries independent thermal realizations,
and in a readout scan several readout branches of the whole realization
batch at once.  Those branches run in chunks sized to a fixed scratch
budget and share one step plan, so the output does not depend on the chunk
size.
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
_HERMITIAN_TOL = 1e-12

#: Scratch bytes the readout branches of one scan may hold at once.  Small,
#: because the branches gain little from batches beyond a few hundred
#: density matrices while peak memory keeps growing.
_BRANCH_BUDGET_BYTES = 2 * 2**20
# B x d x d real arrays one branch occupies while it runs: its state in the
# branch buffer (1), the engine's four RK4 stages and stage input (5), the RHS
# scratch and Hamiltonian (3), the complex rho the positivity check hands to
# eigvalsh (2) and eigvalsh's own copy of it (2), and the elementwise
# temporaries of the RHS and the check.  Counted generously: tracemalloc
# measures a peak of about 11 per branch at N = 3.
_ARRAYS_PER_BRANCH = 20


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
        # the recycling term reads a state as a (rows, 3,...,3, 3,...,3) tensor,
        # one axis per atom for the row and for the column level; per atom
        # the basic-slice indices of its (g, g), (up, up) and (down, down)
        # blocks
        self.tensor_shape = (3,) * (2 * n_atoms)
        self.blocks = []
        for i in range(n_atoms):
            per_level = []
            for level in Level:
                index = [slice(None)] * (1 + 2 * n_atoms)
                index[1 + i] = index[1 + n_atoms + i] = int(level)
                per_level.append(tuple(index))
            self.blocks.append(tuple(per_level))
        # one hopping operator per pair i < j, in PairFlight's default order
        pairs = [(i, j) for i in range(n_atoms) for j in range(i + 1, n_atoms)]
        hop = []
        for i, j in pairs:
            du_i = _site_operator(_transition(Level.DOWN, Level.UP), i, n_atoms)
            ud_j = _site_operator(_transition(Level.UP, Level.DOWN), j, n_atoms)
            op = du_i @ ud_j
            hop.append(op + op.T)
        self.hop_flat = (
            np.stack([h.reshape(-1) for h in hop])
            if pairs
            else np.zeros((0, self.d * self.d))
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


def _samples(trajectories) -> list[Optional[ThermalSample]]:
    """The trajectories as a list (None, the chain at rest, when None)."""
    if trajectories is None or isinstance(trajectories, ThermalSample):
        return [trajectories]
    return list(trajectories)


def _resolve_initial(initial, n_atoms: int) -> np.ndarray:
    """The packed state M = Re rho + Im rho of the initial density matrix."""
    d = 3**n_atoms
    if initial is None:
        initial = "g" * n_atoms
    if isinstance(initial, str):
        if len(initial) != n_atoms:
            raise ConfigError(f"initial label {initial!r} does not match {n_atoms} atoms")
        initial = basis_rho(initial)
    rho = np.asarray(initial, dtype=complex)
    if rho.shape != (d, d):
        raise ConfigError(f"initial rho must have shape ({d}, {d}), got {rho.shape}")
    # packing keeps only the Hermitian part of rho
    skew = float(np.max(np.abs(rho - rho.conj().T)))
    if skew > _HERMITIAN_TOL:
        raise ConfigError(
            f"initial rho must be Hermitian, got |rho - rho^dagger| up to {skew:.3g}"
        )
    return rho.real + rho.imag


def _unpack(m: np.ndarray) -> np.ndarray:
    """The Hermitian density matrices rho = (M + M^T)/2 + i (M - M^T)/2 of
    packed states M (..., d, d)."""
    m_t = np.swapaxes(m, -1, -2)
    rho = np.empty(m.shape, dtype=complex)
    np.add(m, m_t, out=rho.real)
    np.subtract(m, m_t, out=rho.imag)
    rho *= 0.5
    return rho


@dataclass(slots=True)
class _SegmentCache:
    """Per-segment constants: drive Hamiltonian, decay rates, step size; for
    motionless atoms also the full Hamiltonian.  The Hamiltonians are real
    and in angular units, 2 pi H (rad/us)."""

    h_drive_flat: np.ndarray
    w_matrix: np.ndarray
    rates_up: np.ndarray
    rate_down: float
    dt: float
    h_static: Optional[np.ndarray] = None


class _Engine:
    """Batched RK4 integrator for the master equation.

    The batch axis carries independent realizations (distinct thermal
    trajectories); all states evolve under the same segment structure but
    their own time-dependent couplings.  The scratch holds ``self.branches``
    copies of the batch (up to ``branches``, as many as fit the budget), so
    that a state of up to ``self.branches * batch`` rows (branch-major,
    times of shape (branches, batch)) advances in one pass.
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
        samples = _samples(trajectories)
        self.flight = PairFlight.of_samples(geometry, params, samples)
        self.batch = len(samples)
        self.branches = min(branches, _branch_chunk(self.batch, n))
        self.gamma_eff = params.gamma_eff_per_atom(n)

        # scratch buffers for the allocation-free RK4 hot path; a smaller
        # state uses their leading rows
        rows = self.branches * self.batch
        shape = (rows, self.d, self.d)
        self._k = [np.empty(shape) for _ in range(4)]
        self._tmp = np.empty(shape)
        self._m1 = np.empty(shape)
        self._m2 = np.empty(shape)
        self._hflat = np.empty((rows, self.d * self.d))

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
            2.0 * np.pi * h_drive.reshape(-1), w_matrix, rates_up, rate_down, dt
        )
        if self.flight.static:
            # constant couplings: no step of the segment is longer than dt
            nu = self.flight.couplings(t_start, dt)[0]
            h_int = (2.0 * np.pi * nu @ ops.hop_flat).reshape(self.d, self.d)
            cache.h_static = cache.h_drive_flat.reshape(self.d, self.d) + h_int
        return cache

    def _rhs(self, t, m, cache: _SegmentCache, out, step: float = 0.0) -> np.ndarray:
        """dM/dt of the packed states M = Re rho + Im rho into ``out``:

            dM/dt = 2 pi (H M - M H)^T - w * M + R[M],

        computed as M^T (2 pi H) - (2 pi H) M^T.  R adds, per atom, its
        (up, up) and (down, down) blocks times their decay rates to its
        (g, g) block, through basic-slice views of the level tensor.

        A nonzero ``step`` has ``PairFlight.couplings`` check the couplings
        at t against an RK4 step of that size; constant couplings were
        checked once, by :meth:`_segment_cache`.
        """
        rows, d, ops = len(m), self.d, self.ops
        m1, m2 = self._m1[:rows], self._m2[:rows]
        if cache.h_static is not None:
            h = cache.h_static
        else:
            nu = self.flight.couplings(t, step).reshape(rows, -1)
            hflat = self._hflat[:rows]
            np.matmul(2.0 * np.pi * nu, ops.hop_flat, out=hflat)
            hflat += cache.h_drive_flat
            h = hflat.reshape(rows, d, d)
        m_t = m.transpose(0, 2, 1)
        np.matmul(m_t, h, out=m1)
        np.matmul(h, m_t, out=m2)
        np.subtract(m1, m2, out=out)
        np.multiply(cache.w_matrix, m, out=m1)
        out -= m1
        shape = (rows, *ops.tensor_shape)
        m_levels = m.reshape(shape, copy=False)
        out_levels = out.reshape(shape, copy=False)
        for i, (g, up, down) in enumerate(ops.blocks):
            out_g = out_levels[g]
            out_g += cache.rates_up[i] * m_levels[up]
            out_g += cache.rate_down * m_levels[down]
        return out

    @staticmethod
    def _axpy(out, x, alpha: float, y):
        """out = x + alpha * y."""
        np.multiply(y, alpha, out=out)
        out += x

    def _advance(self, m, t_start, span: float, cache: _SegmentCache):
        """In-place RK4 from t_start over span; t_start has shape (B,), or
        (branches, B) for a stack of branches."""
        if span <= 0.0:
            return m
        n_steps = max(1, int(np.ceil(span / cache.dt)))
        h = span / n_steps
        rows = len(m)
        k1, k2, k3, k4 = (k[:rows] for k in self._k)
        tmp = self._tmp[:rows]
        offset = 0.0
        for _ in range(n_steps):
            t = t_start + offset
            self._rhs(t, m, cache, k1, step=h)
            self._axpy(tmp, m, 0.5 * h, k1)
            self._rhs(t + 0.5 * h, tmp, cache, k2)
            self._axpy(tmp, m, 0.5 * h, k2)
            self._rhs(t + 0.5 * h, tmp, cache, k3)
            self._axpy(tmp, m, h, k3)
            self._rhs(t + h, tmp, cache, k4)
            # m += (h/6) (k1 + 2 k2 + 2 k3 + k4), clobbering k2
            k2 += k3
            k2 *= 2.0
            k2 += k1
            k2 += k4
            k2 *= h / 6.0
            m += k2
            offset += h
        return m

    def integrate_segment(self, m, t_start, segment: PulseSegment, snap_offsets=None):
        """Evolve the packed states through one segment; returns (m,
        snapshots at offsets).

        ``m`` is advanced in place and must be owned by the caller; the
        returned snapshots are independent copies.
        """
        cache = self._segment_cache(segment, t_start)
        snaps = []
        cursor = 0.0
        for target in snap_offsets if snap_offsets is not None else []:
            if target < -1e-12 or target > segment.duration + 1e-12:
                raise ConfigError("snapshot offset outside segment")
            m = self._advance(m, t_start + cursor, target - cursor, cache)
            cursor = target
            snaps.append(m.copy())
        m = self._advance(m, t_start + cursor, segment.duration - cursor, cache)
        return m, snaps

    def check_state(self, m, t) -> float:
        """Largest trace deviation of the stacked packed states; raises on a
        positivity violation of their density matrices, naming the time (of
        t, one per row or broadcast) of the offending row."""
        trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
        min_eigs = np.linalg.eigvalsh(_unpack(m)).min(axis=-1)
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
    samples = _samples(trajectories)
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

    m = _resolve_initial(initial, n)[None, :, :]
    t0 = np.zeros(1)
    populations = np.empty((len(times), engine.d))
    max_dev = 0.0
    cursor = 0.0
    k = 0
    while k < len(times) and times[k] <= cursor + 1e-12:
        populations[k] = np.diagonal(m[0])
        max_dev = max(max_dev, engine.check_state(m, cursor))
        k += 1
    for seg in sequence.segments:
        seg_end = cursor + seg.duration
        offsets = []
        while k < len(times) and times[k] <= seg_end + 1e-12:
            offsets.append(min(times[k] - cursor, seg.duration))
            k += 1
        m, snaps = engine.integrate_segment(m, t0, seg, offsets)
        for j, snap in enumerate(snaps):
            populations[k - len(snaps) + j] = np.diagonal(snap[0])
            max_dev = max(max_dev, engine.check_state(snap, cursor + offsets[j]))
        t0 = t0 + seg.duration
        cursor = seg_end
    max_dev = max(max_dev, engine.check_state(m, cursor))
    final_state = _unpack(m[0])
    final_state.flags.writeable = False
    return SequenceResult(
        times=times,
        populations=populations,
        max_trace_deviation=max_dev,
        final_state=final_state,
    )


def _branch_chunk(batch: int, n_atoms: int) -> int:
    """Readout branches that run together within the scratch budget."""
    per_branch = _ARRAYS_PER_BRANCH * batch * 9**n_atoms * np.dtype(float).itemsize
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
    engine = _Engine(geometry, params, trajectories, dt_scale, len(taus))
    batch, chunk, d = engine.batch, engine.branches, engine.d

    m = np.broadcast_to(_resolve_initial(initial, n), (batch, d, d)).copy()
    t_now = np.zeros(batch)
    for seg in prefix:
        m, _ = engine.integrate_segment(m, t_now, seg)
        t_now = t_now + seg.duration
    prefix_duration = float(sum(s.duration for s in prefix))
    suffix_duration = float(sum(s.duration for s in suffix))

    plan = []
    first, last = t_now + taus[0], t_now + taus[-1]
    for seg in suffix:
        plan.append((seg.duration, engine._segment_cache(seg, first, last + seg.duration)))
        first, last = first + seg.duration, last + seg.duration

    branches = np.empty((chunk * batch, d, d))
    starts = np.empty((chunk, batch))
    populations = np.empty((batch, len(taus), d))
    max_dev = 0.0
    cursor = 0.0
    for k, tau in enumerate(taus):
        if tau > cursor:
            segment = PulseSegment.free(tau - cursor)
            m, _ = engine.integrate_segment(m, t_now, segment)
            t_now = t_now + (tau - cursor)
            cursor = tau
        j = k % chunk
        branches[j * batch : (j + 1) * batch] = m
        starts[j] = t_now
        if j + 1 < chunk and k + 1 < len(taus):
            continue
        stack, t_branch = branches[: (j + 1) * batch], starts[: j + 1]
        max_dev = max(max_dev, engine.check_state(stack, t_branch))
        for duration, cache in plan:
            engine._advance(stack, t_branch, duration, cache)
            t_branch = t_branch + duration
        max_dev = max(max_dev, engine.check_state(stack, t_branch))
        pops = np.diagonal(stack, axis1=-2, axis2=-1).reshape(j + 1, batch, d)
        populations[:, k - j : k + 1, :] = pops.transpose(1, 0, 2)
    return ReadoutScanResult(
        tau_grid=taus,
        populations=populations,
        total_durations=prefix_duration + taus + suffix_duration,
        max_trace_deviation=max_dev,
    )

