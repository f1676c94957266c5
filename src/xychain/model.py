"""Unit conventions, chain geometry, and the dipolar coupling law.

Unit system used throughout the package:

* length        micrometres (um)
* time          microseconds (us)
* frequency     MHz, always as *ordinary* (non-angular) frequency; any
                propagator converts to phase via ``2*pi*nu*t``
* energy        quoted as E/h in MHz
* temperature   microkelvin (uK)
* mass          kg

With these choices 1 MHz * 1 us is exactly one oscillation cycle, and a
thermal velocity computed in SI (m/s) is numerically equal to um/us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import ConfigError, GeometryError, IntegrationError

# Boltzmann constant (J/K) and the mass of a generic heavy alkali atom used
# in the experiments this package models (87Rb, kg).
BOLTZMANN = 1.380649e-23
RB87_MASS = 1.44316060e-25

#: Effective on-axis dipolar coefficient, MHz um^3.
DEFAULT_C3 = 7965.0

#: Angle at which the dipolar angular factor 1 - 3 cos^2(theta) vanishes.
MAGIC_ANGLE = math.acos(1.0 / math.sqrt(3.0))

# Distances below this (um) are treated as coincident atoms.
_MIN_SEPARATION = 1e-9


def to_angular(nu):
    """Ordinary frequency (MHz) -> angular frequency (rad/us)."""
    return 2.0 * np.pi * np.asarray(nu)


def to_ordinary(omega):
    """Angular frequency (rad/us) -> ordinary frequency (MHz)."""
    return np.asarray(omega) / (2.0 * np.pi)


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ChainGeometry:
    """Rest positions of the atoms and the quantization axis.

    Positions are full 3-vectors (um) even for linear chains so that planar
    arrays need no schema change.  The quantization axis is stored as a unit
    vector; the chain of the reference experiments is aligned with it.
    """

    positions: np.ndarray
    quantization_axis: np.ndarray = field(
        default_factory=lambda: np.array([1.0, 0.0, 0.0])
    )

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise GeometryError(f"positions must be (N, 3), got {pos.shape}")
        axis = np.asarray(self.quantization_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if norm == 0.0:
            raise GeometryError("quantization axis must be a nonzero vector")
        object.__setattr__(self, "positions", _as_readonly(pos))
        object.__setattr__(self, "quantization_axis", _as_readonly(axis / norm))

    @property
    def n_atoms(self) -> int:
        return self.positions.shape[0]

    @classmethod
    def line(cls, n_atoms: int, spacing: float, axis=(1.0, 0.0, 0.0)) -> "ChainGeometry":
        """Evenly spaced chain along ``axis``, quantization axis parallel to it."""
        axis = np.asarray(axis, dtype=float)
        axis = axis / np.linalg.norm(axis)
        pos = np.outer(np.arange(n_atoms) * spacing, axis)
        return cls(positions=pos, quantization_axis=axis)

    def separations(self) -> np.ndarray:
        """Pairwise distance matrix R_ij (um), zero diagonal."""
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        return np.linalg.norm(diff, axis=-1)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of a run.

    ``c3`` is the effective dipolar coefficient along the chain axis; the
    underlying angular-law prefactor ``c3_tilde`` is optional metadata that
    relates to it through :func:`angular_c3`.  ``omega_opt``, ``delta_opt``
    and ``gamma_eff`` may be scalars or per-atom sequences.  ``gamma_eff`` is
    the effective damping of the ground-Rydberg transition and acts only
    during optical pulse segments.  Every value is real: a complex drive,
    detuning or rate is refused, since the engines build real Hamiltonians.
    """

    c3: float = DEFAULT_C3                      # MHz um^3, effective on-axis
    c3_tilde: float | None = -DEFAULT_C3 / 2.0  # MHz um^3, angular prefactor
    omega_opt: float | Sequence[float] = 5.3    # MHz, ground<->up drive
    delta_opt: float | Sequence[float] = 0.0    # MHz, optical detuning
    omega_mw: float = 4.6                       # MHz, up<->down drive
    gamma_eff: float | Sequence[float] = 1.0    # 1/us, optical-pulse damping
    gamma_up: float = 1.0 / 101.0               # 1/us, up-state decay
    gamma_down: float = 1.0 / 135.0             # 1/us, down-state decay
    addressing_shift: float = 20.0              # MHz, light shift on masked atoms
    temperature: float = 50.0                   # uK
    omega_perp: float = 2.0 * np.pi * 0.09      # rad/us, trap frequency
    mass: float = RB87_MASS                     # kg

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if np.iscomplexobj(value):
                raise ConfigError(f"params.{f.name} must be real, got {value!r}")

    def _per_atom(self, value, n_atoms: int) -> np.ndarray:
        arr = np.asarray(value, dtype=float)
        if arr.ndim == 0:
            return np.full(n_atoms, float(arr))
        if arr.shape != (n_atoms,):
            raise ValueError(
                f"per-atom parameter has shape {arr.shape}, expected ({n_atoms},)"
            )
        return arr.copy()

    def omega_opt_per_atom(self, n_atoms: int) -> np.ndarray:
        return self._per_atom(self.omega_opt, n_atoms)

    def delta_opt_per_atom(self, n_atoms: int) -> np.ndarray:
        return self._per_atom(self.delta_opt, n_atoms)

    def gamma_eff_per_atom(self, n_atoms: int) -> np.ndarray:
        return self._per_atom(self.gamma_eff, n_atoms)


def angular_c3(c3_tilde: float, theta: float) -> float:
    """Dipolar coefficient at angle ``theta`` from the quantization axis.

    Returns ``c3_tilde * (1 - 3 cos^2 theta)`` (MHz um^3).  Vanishes at the
    magic angle and is even and pi-periodic in ``theta``.
    """
    return c3_tilde * (1.0 - 3.0 * math.cos(theta) ** 2)


#: Bound on the phase 2*pi*nu*dt one integrator step may advance, shared by
#: the master-equation and the closed-system step plans.
PHASE_CAP = 0.05


class PairFlight:
    """Ballistic pair separations and their c3 / R^3 couplings, batched.

    Realization b carries each chosen pair p = (i, j) at separation
    ``rel0[:, b, p] + relv[:, b, p] * t`` (um): the rest positions plus the
    atoms' initial displacements, moving with the atoms' relative velocity.
    The pair vectors are stored axis-first, (3, B, P), so a distance sums
    three whole (B, P) planes.  ``displacements`` and ``velocities`` have
    shape (B, N, 3) in um and um/us; omitted, they describe one realization
    at rest.  ``pairs`` defaults to every pair i < j and is kept as a (P, 2)
    index array.
    """

    def __init__(
        self,
        geometry: ChainGeometry,
        params: PhysicalParams,
        displacements=None,
        velocities=None,
        pairs=None,
    ):
        n = geometry.n_atoms
        if pairs is None:
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        self.pairs = np.array(pairs, dtype=int).reshape(-1, 2)    # (P, 2)
        i, j = self.pairs.T
        disp = np.zeros((1, n, 3)) if displacements is None else np.asarray(displacements)
        vel = np.zeros_like(disp) if velocities is None else np.asarray(velocities)
        base = geometry.positions[i] - geometry.positions[j]      # (P, 3)
        self.c3 = params.c3
        rel0 = base + (disp[:, i] - disp[:, j])                   # (B, P, 3)
        self._rel0 = np.ascontiguousarray(rel0.transpose(2, 0, 1))
        self._relv = np.ascontiguousarray((vel[:, i] - vel[:, j]).transpose(2, 0, 1))
        #: True when no pair moves and every realization sits at rest.
        self.static = not np.any(self._relv) and np.array_equal(
            rel0, np.broadcast_to(base, rel0.shape)
        )

    @classmethod
    def of_samples(cls, geometry: ChainGeometry, params: PhysicalParams, samples,
                   pairs=None) -> "PairFlight":
        """One realization per sample: an object with (N, 3) ``displacements``
        (um) and ``velocities`` (um/us), or None for atoms at rest.  An empty
        list or a sample of another shape raises ConfigError."""
        rest = np.zeros((geometry.n_atoms, 3))
        disp = [rest if s is None else np.asarray(s.displacements, dtype=float) for s in samples]
        vel = [rest if s is None else np.asarray(s.velocities, dtype=float) for s in samples]
        if not disp:
            raise ConfigError("at least one realization is required")
        if any(a.shape != rest.shape for a in disp + vel):
            raise ConfigError("trajectory sample does not match the geometry")
        return cls(geometry, params, np.stack(disp), np.stack(vel), pairs)

    def _coincident(self, r: np.ndarray) -> GeometryError:
        """The error naming the closest pair of the distances ``r``."""
        at = np.unravel_index(np.argmin(r), r.shape)
        i, j = self.pairs[at[-1]]
        return GeometryError(f"atoms {i} and {j} coincide (R = {r[at]:g} um)")

    def couplings(self, t, step=0.0) -> np.ndarray:
        """Hopping frequencies (MHz) at time t, shape (..., B, P).

        ``t`` is a scalar, (B,), or (..., B) for several copies of the batch,
        each at its own times.  Coincident atoms raise GeometryError.  A
        nonzero ``step`` (scalar, or shaped like ``t``) whose phase
        2*pi*nu*step reaches ``PHASE_CAP`` raises IntegrationError naming the
        first such time (earliest leading index, then row).
        """
        t = np.asarray(t, dtype=float)
        rel = self._relv * (t[..., None, :, None] if t.ndim else t)   # (..., 3, B, P)
        rel += self._rel0
        rel *= rel
        r = np.add.reduce(rel, axis=-3)
        np.sqrt(r, out=r)
        r_min = r.min(initial=np.inf)
        if r_min < _MIN_SEPARATION:
            raise self._coincident(r)
        r **= 3
        nu = np.divide(self.c3, r, out=r)
        # the closest pair bounds every phase, so the rows are only examined
        # when that bound fails; np.power cubes as the array power above does
        longest = step.max() if isinstance(step, np.ndarray) else step
        if longest and 2.0 * np.pi * (abs(self.c3) / np.power(r_min, 3)) * longest >= PHASE_CAP:
            phase = 2.0 * np.pi * np.abs(nu).max(axis=-1, initial=0.0) * step  # (..., B)
            over = phase >= PHASE_CAP
            if over.any():
                at = np.unravel_index(np.argmax(over), over.shape)
                raise IntegrationError(
                    f"step size violation at t = {np.broadcast_to(t, over.shape)[at]:.4g} "
                    f"us: 2*pi*nu_max*dt = {phase[at]:.3g} >= {PHASE_CAP} (the step "
                    "plan under-estimated the couplings)"
                )
        return nu

    def bound(self, t_lo, t_hi) -> np.ndarray:
        """Largest coupling (MHz) each realization reaches for t in [t_lo, t_hi].

        Free flight is ballistic, so the smallest separation of a pair is at
        a window end or at the vertex of |rel0 + relv t|^2 when that falls
        inside the window; sizing a fixed step from this bound keeps it valid
        even when a thermal draw brings atoms closer together mid-window.
        ``t_lo`` and ``t_hi`` are scalars or (B,); the result is (B,).
        """
        t_lo = np.asarray(t_lo, dtype=float).reshape(-1, 1)
        t_hi = np.asarray(t_hi, dtype=float).reshape(-1, 1)
        rel0, relv = self._rel0, self._relv
        r_sq = np.minimum(
            ((rel0 + relv * t_lo) ** 2).sum(axis=0),
            ((rel0 + relv * t_hi) ** 2).sum(axis=0),
        )
        speed_sq = (relv**2).sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            t_star = -(rel0 * relv).sum(axis=0) / speed_sq
        t_star = np.where(speed_sq > 0.0, t_star, np.inf)
        in_window = (t_star > t_lo) & (t_star < t_hi)
        rel_star = rel0 + relv * np.where(in_window, t_star, 0.0)
        r_star_sq = np.where(in_window, (rel_star**2).sum(axis=0), np.inf)
        r = np.sqrt(np.minimum(r_sq, r_star_sq))
        r_min = r.min(axis=-1, initial=np.inf)
        if (r_min < _MIN_SEPARATION).any():
            raise self._coincident(r)
        return self.c3 / r_min**3


def pair_coupling(
    geometry: ChainGeometry,
    params: PhysicalParams,
    i: int,
    j: int,
    displacement_i=None,
    displacement_j=None,
) -> float:
    """Hopping frequency c3 / R_ij^3 (MHz) between atoms ``i`` and ``j``.

    Optional displacements (um, e.g. from thermal motion) are added to the
    rest positions before computing the separation.  Symmetric in (i, j).
    """
    if i == j:
        raise GeometryError("pair coupling requires two distinct atoms")
    disp = np.zeros((1, geometry.n_atoms, 3))
    if displacement_i is not None:
        disp[0, i] = displacement_i
    if displacement_j is not None:
        disp[0, j] = displacement_j
    return float(PairFlight(geometry, params, disp, pairs=[(i, j)]).couplings(0.0)[0, 0])


def validate(geometry: ChainGeometry, params: PhysicalParams) -> list[str]:
    """Check the shared invariants; returns human-readable violations.

    An empty list means the pair (geometry, params) is usable by every other
    module.  Diagnostics, not exceptions: callers decide severity.
    """
    issues: list[str] = []
    n = geometry.n_atoms
    sep = geometry.separations()
    for i in range(n):
        for j in range(i + 1, n):
            if sep[i, j] < _MIN_SEPARATION:
                issues.append(
                    f"singular geometry: atoms {i} and {j} coincide "
                    f"(R = {sep[i, j]:g} um)"
                )
    for name in ("gamma_up", "gamma_down"):
        if getattr(params, name) < 0:
            issues.append(f"non-physical rate: {name} = {getattr(params, name)} < 0")
    try:
        if np.any(params.gamma_eff_per_atom(n) < 0):
            issues.append("non-physical rate: gamma_eff has negative entries")
        omega = params.omega_opt_per_atom(n)
        if np.any(omega < 0):
            issues.append("non-physical drive: omega_opt has negative entries")
        params.delta_opt_per_atom(n)
    except ValueError as exc:
        issues.append(str(exc))
    if params.mass <= 0:
        issues.append(f"non-physical mass: {params.mass} kg")
    if params.temperature < 0:
        issues.append(f"non-physical temperature: {params.temperature} uK")
    if params.temperature > 0 and params.omega_perp <= 0:
        issues.append(
            "omega_perp must be positive when temperature > 0 "
            f"(got {params.omega_perp})"
        )
    return issues
