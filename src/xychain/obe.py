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
real matrix M = A + B and integrates

    dM/dt = L M = 2 pi (H M - M H)^T - w * M + R[M],

where w_kl = (w_k + w_l)/2 holds the total decay rates w_k of the basis
states and R moves each atom's up and down blocks, times their decay rates,
into its g block, summing each destination's real sources in a fixed order.
Populations are diag(M).  The Hermitian
rho = (M + M^T)/2 + i (M - M^T)/2 is rebuilt only where a complex matrix is
needed: by the positivity check and for ``SequenceResult.final_state``.

A step applies exp(h L) by its truncated Taylor series, a sum of repeated
right-hand sides, to the substeps and order that ``model.taylor_plan`` (the
closed-system engine's rule) picks from a bound on ||h L||_inf: 2 ||2 pi
H||_inf, with the hopping bounded through ``PairFlight.bound`` over the
segment and the diagonal counted from the middle of its range (the
commutator does not see a multiple of the identity), plus the dissipator's
norm, the sum of every atom's decay rates.
Moving atoms take the 4th-order commutator-free Magnus step of Alvermann &
Fehske, J. Comput. Phys. 230, 5930 (2011): two exponentials over h/2, each of
the drive and effective couplings from the step's Gauss points.  One step
size serves the whole batch, h ||L|| <= 2 ``dt_scale``.  Only the hopping
entries of H change with time: a segment fills a Hamiltonian buffer with its
drive once (for atoms at rest with the hopping too), and each factor of a
moving step overwrites the hopping entries with the effective couplings
planned by ``model.cf4_plan`` (the closed-system engine's step planner), a
chunk of steps at a time under its fixed scratch budget, whose Gauss-point
couplings are checked against the limit the order was picked for.

After its prefix a readout scan keeps only the diagonal blocks of M with a
fixed number of atoms in down.  The optical and free Hamiltonians conserve
that number and a jump |g><d| lowers it on both sides, so block (a, a) is fed
by itself and block (a+1, a+1) alone: the diagonal blocks, which hold every
population, evolve exactly on their own, 245 of the 729 entries at N = 3.  A
microwave pulse mixes them, so a readout suffix is optical and free only.
Every sampled or branched state is checked for trace and positivity, block
by block, as principal submatrices (a minimum eigenvalue below -1e-7 raises
IntegrationError); a batched Cholesky factorization of rho + 1e-7 I screens
the states, and eigenvalues are computed only for a stack that fails it, to
name the offending row.  A stack of states carries independent thermal
realizations and, in a readout scan, several readout branches of the whole
realization batch at once.  Those branches run in chunks sized to a fixed
scratch budget, counting the down-number blocks each holds, and share one
step plan, so the output does not depend on the chunk size.  The scan's
free evolution is one plan too: one segment cache over the whole window up
to the last tau, one Taylor plan for the steps between consecutive taus,
and their Gauss-point couplings planned in chunks across the taus.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from enum import IntEnum
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, IntegrationError
from .model import (_A2, PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams, cf4_plan,
                    taylor_plan)
from .thermal import ThermalSample

SEGMENT_KINDS = ("optical", "microwave", "free_evolution")

_MAX_OBE_ATOMS = 6
_POSITIVITY_TOL = -1e-7
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-9

#: Scratch bytes the readout branches of one scan may hold at once.  Small,
#: because the branches gain little from batches beyond a few hundred
#: density matrices while peak memory keeps growing.
_BRANCH_BUDGET_BYTES = 2 * 2**20
# Real block states of B rows (the kept entries of the down-number blocks)
# one branch occupies while it runs: its state in the branch buffer (1), the
# engine's two Taylor terms (2), the RHS scratch and Hamiltonian (3), the
# complex rho the positivity check hands to the Cholesky screen (2) and the
# factor it returns (2), and the elementwise temporaries of the RHS and the
# check.  Counted generously: tracemalloc measures 10 to 13 per extra branch
# (N = 2 and 3, 2 to 10 rows).
_ARRAYS_PER_BRANCH = 17


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
        if ch not in _LEVEL_CHARS:
            raise ConfigError(f"basis label {labels!r} may hold only 'g', 'u' and 'd'")
        idx = 3 * idx + int(_LEVEL_CHARS[ch])
    return idx


def basis_rho(labels: str) -> np.ndarray:
    """Pure-state density matrix for a product label such as 'udd'."""
    d = 3 ** len(labels)
    rho = np.zeros((d, d), dtype=complex)
    k = basis_index(labels)
    rho[k, k] = 1.0
    return rho


class _OperatorTable:
    """Product-basis structure of a given atom count, read off the base-3
    level digits of the basis states (atom 0 most significant)."""

    def __init__(self, n_atoms: int):
        self.d = d = 3**n_atoms
        #: the basis-index step of raising atom i by one level, and the
        #: (d, n) level digits of every basis state
        self.strides = 3 ** np.arange(n_atoms - 1, -1, -1)
        self.levels = levels = np.arange(d)[:, None] // self.strides % 3
        # flat positions of each pair's hopping entries |d u><u d| + h.c.,
        # one row per pair i < j in PairFlight's default order
        hop = []
        for i, j in itertools.combinations(range(n_atoms), 2):
            du = np.flatnonzero((levels[:, i] == Level.DOWN) & (levels[:, j] == Level.UP))
            ud = du - self.strides[i] + self.strides[j]
            hop.append(np.concatenate([du * d + ud, ud * d + du]))
        self.hop_index = np.stack(hop) if hop else np.zeros((0, 0), dtype=np.intp)
        #: the number of hopping entries in each row of H
        self.hop_count = np.bincount(self.hop_index.ravel() // d, minlength=d)
        #: one sector of all d states, and one per number of atoms in down
        n_down = np.count_nonzero(levels == Level.DOWN, axis=1)
        self.full = _Layout(self, [np.arange(d)])
        self.blocks = _Layout(self, [np.flatnonzero(n_down == a) for a in range(n_atoms + 1)])


class _Stack(NamedTuple):
    """Stacked states: a layout's flat buffer and its (rows, s, s) blocks."""

    flat: np.ndarray
    blocks: list


class _Layout:
    """Sectors of basis indices whose diagonal blocks stacked states keep:
    R states lie in one flat buffer sector after sector, each sector's
    blocks one C-contiguous (R, s, s) array.  Its tables number the kept
    entries as in a one-row buffer; :meth:`positions` places them in R rows."""

    def __init__(self, ops: _OperatorTable, sectors: list):
        d = ops.d
        self.sizes = [len(sector) for sector in sectors]
        squares = np.array(self.sizes) ** 2
        self.starts = np.concatenate([[0], np.cumsum(squares)])
        self.entries = int(self.starts[-1])
        #: the flat (row, column) basis position of every kept entry
        self.pairs = np.concatenate([(s[:, None] * d + s[None, :]).ravel() for s in sectors])
        self._sector = np.repeat(np.arange(len(sectors)), squares)
        entry = np.full(d * d, -1)
        entry[self.pairs] = np.arange(self.entries)
        self.diagonal = entry[np.arange(d) * (d + 1)]
        self.hop = entry[ops.hop_index]
        self.hopping = set(self._sector[self.hop].ravel().tolist())
        # Recycling: an entry whose row and column hold atom i in g gains the
        # entries with atom i in up, then in down, on both sides: one source
        # (kept entry, rate index, slot in dests) per gain, by destination.
        rows, cols = np.divmod(self.pairs, d)
        ground = (ops.levels[rows] == Level.G) & (ops.levels[cols] == Level.G)
        gains, self.rate = np.nonzero(np.tile(ground, 2))
        self.dests, self.targets = np.unique(gains, return_inverse=True)
        shift = np.concatenate([ops.strides, 2 * ops.strides]) * (d + 1)
        self.sources = entry[self.pairs[gains] + shift[self.rate]]

    def positions(self, entries: np.ndarray, rows: int) -> np.ndarray:
        """The (rows, *entries.shape) positions of kept entries in R rows."""
        sector = self._sector[entries]
        start, square = self.starts[sector], self.starts[sector + 1] - self.starts[sector]
        row = np.arange(rows).reshape(-1, *(1,) * entries.ndim)
        return rows * start + (entries - start) + row * square

    def stack(self, flat: np.ndarray, rows: int) -> _Stack:
        """The block views of a flat R-row buffer."""
        bounds = zip(self.starts[:-1] * rows, self.starts[1:] * rows, self.sizes)
        return _Stack(flat, [flat[a:b].reshape(rows, s, s) for a, b, s in bounds])

    def fill(self, stack: _Stack, values: np.ndarray) -> None:
        """Write the kept entries of one state, ``values``, into every row."""
        for block, a, b, s in zip(stack.blocks, self.starts, self.starts[1:], self.sizes):
            block[...] = values[a:b].reshape(s, s)


@functools.cache
def _dense_operators(n_atoms: int) -> _OperatorTable:
    """Operator table of a chain the dense master equation accepts."""
    if n_atoms > _MAX_OBE_ATOMS:
        raise ConfigError(
            f"dense 3^N master equation is capped at N = {_MAX_OBE_ATOMS} "
            f"atoms, got {n_atoms}; use the closed-system module for long chains"
        )
    return _OperatorTable(n_atoms)


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
    trace = float(np.trace(rho).real)
    if not abs(trace - 1.0) <= _TRACE_TOL:
        raise ConfigError(f"initial rho must have unit trace, got {trace:.6g}")
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
    """Per-segment constants on the engine's layout: the kept entries of the
    drive Hamiltonian and of -w, the recycling source rates, the sectors whose
    commutator is not zero, the bound ``norm`` on every generator a step
    applies, the step size, the step ``check`` that ``PairFlight.couplings``
    applies; for motionless atoms also their (P,) couplings.  H and the
    couplings are real and in angular units, 2 pi H and 2 pi nu (rad/us)."""

    h_drive_flat: np.ndarray
    minus_w: np.ndarray
    rates: np.ndarray
    active: list
    norm: float
    dt: float
    check: float
    nu_rest: Optional[np.ndarray] = None


class _Frame(NamedTuple):
    """Scratch views, -w and index positions for one layout and row count;
    ``targets`` bins the (rows, S) recycling sources into ``dests``."""

    terms: tuple
    ham: _Stack
    m1: list
    m2: list
    m2_t: list
    decay: _Stack
    hop: np.ndarray
    sources: np.ndarray
    targets: np.ndarray
    dests: np.ndarray


class _Engine:
    """Batched exponential integrator for the master equation.

    The batch axis carries independent realizations (distinct thermal
    trajectories); all states evolve under the same segment structure but
    their own time-dependent couplings.  States are flat buffers of the
    engine's layout: the full one-sector layout until :meth:`to_blocks`
    keeps the down-number blocks.  The scratch holds the batch in the full
    layout and ``self.branches`` copies of it in the blocks (up to
    ``branches``, as many as fit the budget), so that a block state of up to
    ``self.branches * batch`` rows (branch-major, times of shape (branches,
    batch)) advances in one pass.  A segment's step and Taylor orders follow
    from its norm bound, as the module describes; the CF4 factors of a
    moving step rewrite only the hopping entries of the Hamiltonian buffer,
    from couplings that ``model.cf4_plan`` plans per chunk of steps.
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
        self.layout = self.ops.full

        # scratch buffers for the allocation-free Taylor loop, sized for the
        # batch in the full layout and the branches in the blocks; a smaller
        # state uses their leading entries
        size = self.batch * max(self.d**2, self.branches * self.ops.blocks.entries)
        self._scratch = [np.empty(size) for _ in range(5)]
        self._frames: dict = {}

    def _frame(self, rows: int) -> _Frame:
        """The layout's views and index tables for ``rows`` rows, built once."""
        layout = self.layout
        if (layout, rows) not in self._frames:
            size = rows * layout.entries
            a, b, ham, m1, m2 = (layout.stack(x[:size], rows) for x in self._scratch)
            slots = len(layout.dests) * np.arange(rows)[:, None]
            self._frames[layout, rows] = _Frame(
                (a, b), ham, m1.blocks, m2.blocks, [x.transpose(0, 2, 1) for x in m2.blocks],
                layout.stack(np.empty(size), rows), layout.positions(layout.hop, rows),
                layout.positions(layout.sources, rows), (layout.targets + slots).ravel(),
                layout.positions(layout.dests, rows).ravel(),
            )
        return self._frames[layout, rows]

    def to_blocks(self, m: np.ndarray) -> np.ndarray:
        """The down-number blocks of full states m; the engine carries blocks
        from now on."""
        rows = m.size // (self.d * self.d)
        self.layout = kept = self.ops.blocks
        out = np.empty(rows * kept.entries)
        out[kept.positions(np.arange(kept.entries), rows)] = m.reshape(rows, -1)[:, kept.pairs]
        return out

    def populations(self, m: np.ndarray) -> np.ndarray:
        """The (rows, d) level populations of stacked states, in basis order."""
        return m[self.layout.positions(self.layout.diagonal, m.size // self.layout.entries)]

    def _segment_cache(self, segment: PulseSegment, t_start, t_end=None) -> _SegmentCache:
        """Constants of one segment whose step suits the couplings over
        [t_start, t_end], by default the segment itself."""
        ops, params, n, d, layout = self.ops, self.params, self.n, self.d, self.layout
        levels = ops.levels  # (d, n) level digits
        # drive Hamiltonian (MHz), whose entries no two atoms share
        h_drive = np.zeros((d, d))
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
                g = np.flatnonzero(levels[:, i] == Level.G)
                up = g + ops.strides[i]
                h_drive[g, up] = h_drive[up, g] = 0.5 * omega_opt[i]
                diag -= delta_eff[i] * (levels[:, i] != Level.G)
            h_drive[np.diag_indices(d)] += diag
        elif segment.kind == "microwave":
            for i in range(n):
                up = np.flatnonzero(levels[:, i] == Level.UP)
                down = up + ops.strides[i]
                h_drive[up, down] = h_drive[down, up] = 0.5 * params.omega_mw
        gamma_optical = self.gamma_eff if segment.kind == "optical" else 0.0
        rates_up = params.gamma_up + np.broadcast_to(gamma_optical, (n,)).astype(float)
        rate_down = params.gamma_down
        w = np.zeros(d)
        is_up, is_down = levels == Level.UP, levels == Level.DOWN
        for i in range(n):
            w += rates_up[i] * is_up[:, i] + rate_down * is_down[:, i]
        w_matrix = 0.5 * (w[:, None] + w[None, :])

        t_start = np.atleast_1d(t_start)
        if t_end is None:
            t_end = t_start + segment.duration
        # The checked couplings may reach nu_lim = 2 a2 nu_max, above the bound
        # that couplings at rest equal.  A CF4 factor applies 2 (a nu1 + b nu2),
        # at most 2 a2 max(|nu1|, |nu2|) for couplings of one sign.
        nu_lim = 2.0 * _A2 * float(np.max(np.abs(self.flight.bound(t_start, t_end)), initial=0.0))
        nu_hop = nu_lim if self.flight.static else 2.0 * _A2 * nu_lim
        diag = np.diagonal(h_drive)
        h_drive_rows = np.abs(h_drive - 0.5 * (diag.max() + diag.min()) * np.eye(d)).sum(axis=1)
        h_rows = h_drive_rows + ops.hop_count * nu_hop
        norm = 4.0 * np.pi * float(h_rows.max()) + float(rates_up.sum() + n * rate_down)
        h_drive_flat = (2.0 * np.pi * h_drive.reshape(-1))[layout.pairs]
        bounds = zip(layout.starts, layout.starts[1:])
        cache = _SegmentCache(
            h_drive_flat, -w_matrix.reshape(-1)[layout.pairs],
            np.concatenate([rates_up, np.full(n, rate_down)])[layout.rate],
            [k for k, (a, b) in enumerate(bounds) if layout.sizes[k] > 1
             and (k in layout.hopping or np.any(h_drive_flat[a:b]))],
            norm, dt=2.0 * self.dt_scale / norm if norm > 0.0 else np.inf,
            check=PHASE_CAP / (2.0 * np.pi * nu_lim) if nu_lim > 0.0 else np.inf,
        )
        if self.flight.static:
            cache.nu_rest = 2.0 * np.pi * self.flight.couplings(t_start, cache.check)[0]
        return cache

    def _load(self, cache: _SegmentCache, frame: _Frame) -> None:
        """Fill the frame for one segment: -w and the Hamiltonians, the drive
        and, for atoms at rest, the hopping.  A hopping entry changes two
        atoms and a drive entry one or none, so the CF4 factors of moving
        atoms rewrite the hopping (:meth:`_hop`) alone."""
        self.layout.fill(frame.decay, cache.minus_w)
        self.layout.fill(frame.ham, cache.h_drive_flat)
        self._hop(frame, cache.nu_rest)

    @staticmethod
    def _hop(frame: _Frame, nu) -> None:
        """Write the angular couplings nu, (rows, P) or (P,) for every row,
        into the frame's hopping entries; None writes none."""
        if nu is not None:
            frame.ham.flat[frame.hop] = nu[..., None]

    def _rhs(self, frame: _Frame, cache: _SegmentCache, m: _Stack, out: _Stack) -> _Stack:
        """dM/dt = 2 pi (H M - M H)^T - w * M + R[M] of the stacked packed
        states into ``out``, for the segment loaded into the frame.  The
        commutator, per sector whose Hamiltonian block is not zero, is
        M^T (2 pi H) - (M (2 pi H))^T (H is symmetric): the contiguous M H
        written through a transposed view, cheaper than H times the strided
        M^T.  R sums each destination's real sources, times their rates, in
        list order from 0.0: one gather and one ``bincount`` for all rows."""
        np.multiply(frame.decay.flat, m.flat, out=out.flat)
        for k in cache.active:
            block, h, m1 = m.blocks[k], frame.ham.blocks[k], frame.m1[k]
            np.matmul(block.transpose(0, 2, 1), h, out=m1)
            np.matmul(block, h, out=frame.m2_t[k])
            m1 -= frame.m2[k]
            out.blocks[k] += m1
        gains = m.flat.take(frame.sources)
        gains *= cache.rates
        out.flat[frame.dests] += np.bincount(frame.targets, gains.ravel(), frame.dests.size)
        return out

    def _taylor(self, frame: _Frame, cache: _SegmentCache, m: _Stack, tau: float, count: int,
                order: int) -> None:
        """Apply exp(tau L) ``count`` times to the stacked states m in place,
        each by its Taylor series to ``order`` terms: a term is L of the
        term before, times tau / k."""
        for _ in range(count):
            term = m
            for k in range(1, order + 1):
                out = self._rhs(frame, cache, term, frame.terms[k % 2])
                np.multiply(out.flat, tau / k, out=out.flat)
                np.add(m.flat, out.flat, out=m.flat)
                term = out

    def _advance(self, m, t_starts, spans, cache: _SegmentCache):
        """Advance the flat stacked states in place through consecutive
        spans, yielding after each.  Span k starts at ``t_starts[k]``, of
        shape (B,), or (branches, B) for a stack of branches, and takes equal
        steps no longer than the segment's; an empty span takes none.  Atoms
        at rest take exp(h L) per step; moving atoms take the two factors of
        a CF4 step, each a rewrite of the hopping entries and exp(h L / 2).
        One Taylor plan serves all spans; each span reloads the segment into
        the frame, so the caller may use it between spans.  A single span runs
        whole at the first ``next``."""
        spans = np.asarray(spans, dtype=float)
        n_steps = np.where(spans > 0.0, np.maximum(1, np.ceil(spans / cache.dt)), 0).astype(int)
        h = spans / np.maximum(n_steps, 1)
        layout = self.layout
        rows = m.size // layout.entries
        frame, state = self._frame(rows), layout.stack(m, rows)
        static = cache.nu_rest is not None
        if static:
            substeps, orders = taylor_plan(h * cache.norm)
        else:
            substeps, orders = taylor_plan(0.5 * h * cache.norm)
            # the angular couplings (2, rows, P) of each step's factors, in order
            steps = (factors for _, _, nu in cf4_plan(self.flight, t_starts, h, n_steps,
                                                      cache.check)
                     for factors in 2.0 * np.pi * nu.reshape(len(nu), 2, rows, -1))
        plan = zip(n_steps.tolist(), h.tolist(), substeps.tolist(), orders.tolist())
        for n, step, sub, order in plan:
            self._load(cache, frame)
            if static:
                self._taylor(frame, cache, state, step / sub, n * sub, order)
            else:
                for _ in range(n):
                    for nu in next(steps):
                        self._hop(frame, nu)
                        self._taylor(frame, cache, state, 0.5 * step / sub, sub, order)
            yield

    def check_state(self, m, t) -> float:
        """Largest trace deviation of the flat stacked states; raises on a
        positivity violation of a kept block, a principal submatrix of rho,
        naming the time (of t, one per row or broadcast) of its row.  A
        batched Cholesky factorization of each block of rho + 1e-7 I screens
        the stack: in exact arithmetic it exists exactly when every
        eigenvalue is above -1e-7, so eigenvalues are computed only if not."""
        trace_dev = float(np.max(np.abs(self.populations(m).sum(axis=-1) - 1.0)))
        blocks = self.layout.stack(m, m.size // self.layout.entries).blocks
        try:
            for block in blocks:
                np.linalg.cholesky(_unpack(block) - _POSITIVITY_TOL * np.eye(block.shape[-1]))
        except np.linalg.LinAlgError:
            eigs = [np.linalg.eigvalsh(_unpack(block)).min(axis=-1) for block in blocks]
            min_eigs = np.min(eigs, axis=0)
            row = int(np.argmin(min_eigs))
            if min_eigs[row] < _POSITIVITY_TOL:
                t_row = float(np.broadcast_to(np.ravel(t), min_eigs.shape)[row])
                raise IntegrationError(
                    f"density matrix positivity violated at t = {t_row:.6g} "
                    f"us (min eigenvalue {min_eigs[row]:.3g})"
                ) from None
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

    m = _resolve_initial(initial, n).reshape(-1)
    t0 = np.zeros(1)
    populations = np.empty((len(times), engine.d))
    max_dev = 0.0
    cursor = 0.0
    k = 0
    while k < len(times) and times[k] <= cursor + 1e-12:
        populations[k] = engine.populations(m)[0]
        max_dev = max(max_dev, engine.check_state(m, cursor))
        k += 1
    for seg in sequence.segments:
        seg_end = cursor + seg.duration
        first, offsets = k, [0.0]
        while k < len(times) and times[k] <= seg_end + 1e-12:
            offsets.append(min(times[k] - cursor, seg.duration))
            k += 1
        offsets.append(seg.duration)
        starts = [t0 + offset for offset in offsets[:-1]]
        stream = engine._advance(m, starts, np.diff(offsets), engine._segment_cache(seg, t0))
        for j in range(first, k):
            next(stream)
            populations[j] = engine.populations(m)[0]
            max_dev = max(max_dev, engine.check_state(m, cursor + offsets[j - first + 1]))
        next(stream)  # the rest of the segment
        t0 = t0 + seg.duration
        cursor = seg_end
    max_dev = max(max_dev, engine.check_state(m, cursor))
    final_state = _unpack(m.reshape(engine.d, engine.d))
    final_state.flags.writeable = False
    return SequenceResult(
        times=times,
        populations=populations,
        max_trace_deviation=max_dev,
        final_state=final_state,
    )


def _branch_chunk(batch: int, n_atoms: int) -> int:
    """Readout branches that run together within the scratch budget, each
    holding the down-number blocks of its batch."""
    entries = _dense_operators(n_atoms).blocks.entries
    per_branch = _ARRAYS_PER_BRANCH * batch * entries * np.dtype(float).itemsize
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
    time as fit the module's scratch budget (four at a time for 100
    realizations of two atoms, one at a time for three or more).  Each
    suffix segment has one step size for all branches, sized for its
    couplings from the first branch's start to the last branch's end, so the
    result does not depend on how the branches are chunked.  The free evolution likewise has one step size,
    sized for its couplings from the prefix end to the last tau.  Every
    branch's state is checked for trace and positivity as it enters and
    leaves the suffix.
    """
    n = geometry.n_atoms
    taus = np.atleast_1d(np.asarray(tau_grid, dtype=float))
    if taus.size == 0 or np.any(taus < 0) or np.any(np.diff(taus) <= 0):
        raise ConfigError("tau grid must be non-empty, non-negative and strictly increasing")
    prefix = list(prefix)
    suffix = list(suffix)
    if any(seg.kind == "microwave" for seg in suffix):  # it mixes the down-number blocks
        raise ConfigError("a readout suffix takes optical and free-evolution segments only, "
                          "no microwave pulse")
    engine = _Engine(geometry, params, trajectories, dt_scale, len(taus))
    batch, chunk, d = engine.batch, engine.branches, engine.d

    m = np.tile(_resolve_initial(initial, n).reshape(-1), batch)
    t_now = np.zeros(batch)
    for seg in prefix:
        next(engine._advance(m, [t_now], [seg.duration], engine._segment_cache(seg, t_now)))
        t_now = t_now + seg.duration
    m = engine.to_blocks(m)
    layout, state = engine.layout, engine.layout.stack(m, batch)

    plan = []
    first, last = t_now + taus[0], t_now + taus[-1]
    for seg in suffix:
        plan.append((seg.duration, engine._segment_cache(seg, first, last + seg.duration)))
        first, last = first + seg.duration, last + seg.duration

    # one plan for the whole free evolution: a span from each tau to the
    # next, whose starts accumulate as the stream advances
    spans = np.diff(taus, prepend=0.0)
    ends = [t_now]
    for span in spans:
        ends.append(ends[-1] + span)
    free = [None] * len(taus)  # tau = 0 alone: no free evolution
    if taus[-1] > 0.0:
        window = engine._segment_cache(PulseSegment.free(taus[-1]), t_now)
        free = engine._advance(m, ends[:-1], spans, window)

    branches = np.empty(chunk * batch * layout.entries)
    starts = np.empty((chunk, batch))
    populations = np.empty((batch, len(taus), d))
    max_dev = 0.0
    for k, _ in enumerate(free):
        j = k % chunk
        if j == 0:  # the branches of this chunk, stacked as one state
            size = min(chunk, len(taus) - k)
            stack = layout.stack(branches[: size * batch * layout.entries], size * batch)
        for block, source in zip(stack.blocks, state.blocks):
            block[j * batch : (j + 1) * batch] = source
        starts[j] = ends[k + 1]
        if j + 1 < size:
            continue
        t_branch = starts[:size]
        max_dev = max(max_dev, engine.check_state(stack.flat, t_branch))
        for duration, cache in plan:
            next(engine._advance(stack.flat, [t_branch], [duration], cache))
            t_branch = t_branch + duration
        max_dev = max(max_dev, engine.check_state(stack.flat, t_branch))
        pops = engine.populations(stack.flat).reshape(size, batch, d)
        populations[:, k - j : k + 1, :] = pops.transpose(1, 0, 2)
    return ReadoutScanResult(
        tau_grid=taus,
        populations=populations,
        total_durations=float(sum(s.duration for s in prefix)) + taus
        + float(sum(s.duration for s in suffix)),
        max_trace_deviation=max_dev,
    )

