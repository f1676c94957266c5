"""Forward model of recapture detection under state-independent atom loss.

An atom that ends the sequence in the ground state is recaptured unless it
was lost (probability epsilon, from thermal flight and background-gas
collisions); an atom left in either Rydberg level is never recaptured.  The
per-atom channel is applied independently and marginalized over the true
state distribution, which for an all-ground input reproduces the binomial
partition (1-eps)^3, 3 eps (1-eps)^2, 3 eps^2 (1-eps), eps^3.

Epsilon is calibrated by fitting the all-atoms-recaptured probability:
P_all = (1 - eps)^N, so eps_raw(t) = 1 - P_all(t)^(1/N), smoothed by a
least-squares polynomial in t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ExtrapolationWarning

EPSILON_BACKENDS = ("table", "polynomial", "recapture_mc")


@dataclass(frozen=True)
class EpsilonModel:
    """Time-dependent loss probability epsilon(t).

    ``table`` backends interpolate linearly between calibration points
    (``recapture_mc`` is a table produced by the trajectory model); the
    ``polynomial`` backend evaluates fitted coefficients (highest power
    first, as numpy.polyval expects).  Values are clipped to [0, 1] and a
    warning is emitted when evaluating outside the calibrated t range.
    """

    backend: str
    table: Optional[np.ndarray] = None        # (K, 2): t_us, epsilon
    coefficients: Optional[np.ndarray] = None
    t_range: tuple[float, float] = (0.0, 0.0)
    fit_rms: Optional[float] = None

    def __post_init__(self):
        if self.backend not in EPSILON_BACKENDS:
            raise DataError(f"unknown epsilon backend {self.backend!r}")
        if self.backend in ("table", "recapture_mc"):
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
                raise DataError("epsilon table must have shape (K >= 2, 2)")
            if np.any(np.diff(tab[:, 0]) <= 0):
                raise DataError("epsilon table times must be strictly increasing")
            if np.any((tab[:, 1] < 0) | (tab[:, 1] > 1)):
                raise DataError("epsilon table values must lie in [0, 1]")
            if np.any(np.diff(tab[:, 1]) < 0):
                warnings.warn(
                    "epsilon table is not monotone non-decreasing in t",
                    stacklevel=2,
                )
            tab.flags.writeable = False
            object.__setattr__(self, "table", tab)
            object.__setattr__(self, "t_range", (float(tab[0, 0]), float(tab[-1, 0])))
        else:
            coeffs = np.asarray(self.coefficients, dtype=float)
            coeffs.flags.writeable = False
            object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def from_table(cls, t, eps, backend: str = "table") -> "EpsilonModel":
        tab = np.column_stack([np.asarray(t, float), np.asarray(eps, float)])
        return cls(backend=backend, table=tab)

    @classmethod
    def from_polynomial(cls, coefficients, t_range, fit_rms=None) -> "EpsilonModel":
        return cls(
            backend="polynomial",
            coefficients=np.asarray(coefficients, dtype=float),
            t_range=(float(t_range[0]), float(t_range[1])),
            fit_rms=fit_rms,
        )

    @classmethod
    def constant(cls, eps: float) -> "EpsilonModel":
        return cls.from_polynomial([float(eps)], (0.0, np.inf))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        lo, hi = self.t_range
        if np.any(t < lo) or np.any(t > hi):
            warnings.warn(
                f"epsilon evaluated outside calibrated range [{lo:g}, {hi:g}] us",
                ExtrapolationWarning,
                stacklevel=2,
            )
        if self.backend in ("table", "recapture_mc"):
            eps = np.interp(t, self.table[:, 0], self.table[:, 1])
        else:
            eps = np.polyval(self.coefficients, t)
        return np.clip(eps, 0.0, 1.0)


def _infer_levels(n_states: int) -> tuple[int, int]:
    """Infer (levels_per_atom, n_atoms) from a distribution length.

    Powers of 3 are level distributions over {g, up, down}; powers of 2 are
    binary ground-vs-Rydberg distributions.  The two never collide.
    """
    for base in (3, 2):
        n = round(math.log(n_states, base))
        if base**n == n_states:
            return base, n
    raise DataError(f"distribution length {n_states} is not a power of 2 or 3")


def forward_detection(true_populations, epsilon: float) -> np.ndarray:
    """Observed recapture-pattern distribution for a true-state distribution.

    ``true_populations`` is a normalized distribution over per-atom levels,
    either {g, up, down}^N (length 3^N, level order g, up, down per atom) or
    binary ground-vs-Rydberg patterns (length 2^N, digit 1 = ground, as
    produced by the readout projection).  The output is over {0, 1}^N
    recapture patterns with atom 0 as the most significant bit and bit 1
    meaning "recaptured": P(1 | g) = 1 - epsilon, P(1 | Rydberg) = 0.  With
    epsilon = 0 a binary input passes through unchanged.
    """
    probs = np.asarray(true_populations, dtype=float).ravel()
    if not 0.0 <= epsilon <= 1.0:
        raise DataError(f"epsilon must be in [0, 1], got {epsilon}")
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise DataError(f"input distribution sums to {total!r}, expected 1")
    base, n_atoms = _infer_levels(probs.size)
    ground = 0 if base == 3 else 1
    # channel[observed_bit, level]; every non-ground level is never recaptured
    channel = np.ones((2, base))
    channel[1, :] = 0.0
    channel[0, ground] = epsilon
    channel[1, ground] = 1.0 - epsilon
    out = probs.reshape((base,) * n_atoms)
    for axis in range(n_atoms):
        out = np.moveaxis(np.tensordot(channel, out, axes=([1], [axis])), 0, axis)
    return out.reshape(-1)


def fit_epsilon(t, p_all, degree: int = 2) -> EpsilonModel:
    """Fit epsilon(t) from the all-recaptured probability of a 3-atom line.

    Inverts P_all = (1 - eps)^3 pointwise and fits a least-squares polynomial
    of the given degree in t; the residual rms is recorded on the model.
    """
    t = np.asarray(t, dtype=float)
    p_all = np.asarray(p_all, dtype=float)
    if t.shape != p_all.shape or t.ndim != 1:
        raise DataError("t and p_all must be 1-d arrays of equal length")
    if np.any((p_all <= 0) | (p_all > 1)):
        raise DataError("p_all values must lie in (0, 1]")
    if t.size < degree + 1:
        raise DataError(f"need at least {degree + 1} points for degree {degree}")
    eps_raw = 1.0 - p_all ** (1.0 / 3.0)
    coeffs = np.polyfit(t, eps_raw, degree)
    rms = float(np.sqrt(np.mean((np.polyval(coeffs, t) - eps_raw) ** 2)))
    return EpsilonModel.from_polynomial(
        coeffs, (float(t.min()), float(t.max())), fit_rms=rms
    )


def loss_partitions(epsilon) -> dict[str, np.ndarray]:
    """Closed-form 3-atom recapture partition for an all-ground input."""
    eps = np.asarray(epsilon, dtype=float)
    return {
        "all_recaptured": (1.0 - eps) ** 3,
        "two_recaptured": 3.0 * eps * (1.0 - eps) ** 2,
        "one_recaptured": 3.0 * eps**2 * (1.0 - eps),
        "none_recaptured": eps**3,
    }


def scale_excitation_large_n(
    times,
    p_excited,
    epsilon_model: EpsilonModel,
    n_atoms: int,
) -> np.ndarray:
    """Detection scaling shortcut for long chains.

    Multiplies the excitation probability pointwise by (1 - eps(t))^(N - 1),
    the readout survival factor for the N - 1 recaptured atoms that flag
    where the single excitation sits.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    times = np.asarray(times, dtype=float)
    p = np.asarray(p_excited, dtype=float)
    factor = (1.0 - epsilon_model(times)) ** (n_atoms - 1)
    return p * factor
