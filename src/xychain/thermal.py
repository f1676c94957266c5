"""Thermal position/velocity sampling and the Monte-Carlo ensemble.

Atoms sit in harmonic microtraps while cold, but the traps are switched off
for the whole pulse sequence, so each atom flies ballistically from a
thermally drawn initial condition.  Initial displacements and velocities are
i.i.d. Gaussian per axis with

    sigma_r = sqrt(kB T / (m omega_perp^2))        (um)
    sigma_v = sqrt(kB T / m)                       (um/us)

which for 50 uK in a 2*pi*90 kHz trap gives roughly 0.12 um and 0.07 um/us.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, IntegrationError, XYChainError
from .model import BOLTZMANN, PhysicalParams


class MonteCarloError(XYChainError):
    """A Monte-Carlo realization failed; carries the realization seed."""


def sigma_position(params: PhysicalParams) -> float:
    """Thermal rms displacement per axis (um)."""
    if params.temperature == 0.0:
        return 0.0
    return sigma_velocity(params) / params.omega_perp


def sigma_velocity(params: PhysicalParams) -> float:
    """Thermal rms velocity per axis (um/us); numerically equals m/s."""
    if params.temperature == 0.0:
        return 0.0
    return float(np.sqrt(BOLTZMANN * params.temperature * 1e-6 / params.mass))


@dataclass(frozen=True)
class ThermalSample:
    """One draw of initial displacements (um) and velocities (um/us)."""

    displacements: np.ndarray   # (N, 3)
    velocities: np.ndarray      # (N, 3)
    seed: int

    def __post_init__(self):
        for name in ("displacements", "velocities"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_atoms(self) -> int:
        return self.displacements.shape[0]

    @classmethod
    def at_rest(cls, n_atoms: int, seed: int = 0) -> "ThermalSample":
        zero = np.zeros((n_atoms, 3))
        return cls(displacements=zero, velocities=zero.copy(), seed=seed)


def sample_thermal(params: PhysicalParams, n_atoms: int, seed: int) -> ThermalSample:
    """Draw one thermal realization; T = 0 yields exact zeros."""
    if params.temperature == 0.0:
        return ThermalSample.at_rest(n_atoms, seed=seed)
    rng = np.random.default_rng(seed)
    r0 = rng.normal(0.0, sigma_position(params), size=(n_atoms, 3))
    v0 = rng.normal(0.0, sigma_velocity(params), size=(n_atoms, 3))
    return ThermalSample(displacements=r0, velocities=v0, seed=seed)


def realization_seeds(base_seed: int, n_realizations: int) -> list[int]:
    """Deterministic per-realization seeds derived from a base seed."""
    state = np.random.SeedSequence(base_seed).generate_state(
        n_realizations, dtype=np.uint64
    )
    return [int(s) for s in state]


def run_ensemble(
    run: Callable[[list[Optional[ThermalSample]]], object],
    params: PhysicalParams,
    n_atoms: int,
    n_realizations: int,
    base_seed: int,
):
    """``run`` over the thermal batch of ``params``, called once.

    The batch is one ``sample_thermal`` draw per seed of
    ``realization_seeds(base_seed, n_realizations)``, in seed order, or
    ``[None]``, one chain at rest, when T = 0.  ``run`` takes the list of
    samples and its result for the whole batch is returned as is.  When the
    batch raises IntegrationError or GeometryError, its samples are run again
    one at a time, and MonteCarloError names the first failing realization
    and its seed, or says that the realizations failed only together.
    """
    if params.temperature == 0.0:
        samples = [None]
    else:
        seeds = realization_seeds(base_seed, n_realizations)
        samples = [sample_thermal(params, n_atoms, s) for s in seeds]
    try:
        return run(samples)
    except (IntegrationError, GeometryError) as exc:
        for i, sample in enumerate(samples):
            try:
                run([sample])
            except (IntegrationError, GeometryError) as single:
                seed = "at rest" if sample is None else f"seed {sample.seed}"
                raise MonteCarloError(f"realization {i} ({seed}) failed: {single}") from single
        raise MonteCarloError(
            f"realizations 0-{len(samples) - 1} failed together: {exc}"
        ) from exc


def recapture_epsilon(
    params: PhysicalParams,
    trap_depth: float,
    t: float,
    n_mc: int,
    seed: int = 0,
    floor: float = 0.0,
) -> float:
    """Model-backed loss probability after a trap-off interval t (us).

    A thermally sampled atom is lost if its harmonic-trap energy at
    recapture, 1/2 m v^2 + 1/2 m omega_perp^2 |r0 + v0 t|^2, exceeds the trap
    depth (uK equivalent).  A t-independent background floor combines with
    the thermal channel as independent losses, so T = 0 returns the floor
    exactly.  This is a declared approximation to the real trap potential,
    calibrated only against measured endpoint values.
    """
    if t < 0:
        raise ValueError(f"recapture time must be >= 0, got {t}")
    if not 0.0 <= floor <= 1.0:
        raise ValueError(f"background floor must be in [0, 1], got {floor}")
    if params.temperature == 0.0:
        return floor
    rng = np.random.default_rng(seed)
    sr = sigma_position(params)
    sv = sigma_velocity(params)
    r0 = rng.normal(0.0, sr, size=(n_mc, 3))
    v0 = rng.normal(0.0, sv, size=(n_mc, 3))
    rt = r0 + v0 * t
    # energy in uK: m [kg] * (um/us)^2 = J numerically, then / kB -> K
    energy_uk = (
        0.5
        * params.mass
        * ((v0**2).sum(axis=1) + params.omega_perp**2 * (rt**2).sum(axis=1))
        / BOLTZMANN
        * 1e6
    )
    p_escape = float(np.mean(energy_uk > trap_depth))
    return floor + (1.0 - floor) * p_escape
