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

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataError, ExtrapolationWarning


@dataclass(frozen=True)
class EpsilonModel:
    """Time-dependent loss probability epsilon(t).

    A model holds either a calibration ``table``, interpolated linearly
    between its points, or polynomial ``coefficients`` (highest power first,
    as numpy.polyval expects).  Values are clipped to [0, 1] and a warning
    is emitted when evaluating outside the calibrated t range.
    """

    table: Optional[np.ndarray] = None        # (K, 2): t_us, epsilon
    coefficients: Optional[np.ndarray] = None
    t_range: tuple[float, float] = (0.0, 0.0)
    fit_rms: Optional[float] = None

    def __post_init__(self):
        if (self.table is None) == (self.coefficients is None):
            raise DataError("an epsilon model needs either a table or coefficients")
        if self.table is not None:
            tab = np.asarray(self.table, dtype=float)
            if tab.ndim != 2 or tab.shape[1] != 2 or tab.shape[0] < 2:
                raise DataError("epsilon table must have shape (K >= 2, 2)")
            if not np.all(np.isfinite(tab)):
                raise DataError("epsilon table times and values must be finite")
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
    def from_table(cls, t, eps) -> "EpsilonModel":
        return cls(table=np.column_stack([np.asarray(t, float), np.asarray(eps, float)]))

    @classmethod
    def from_polynomial(cls, coefficients, t_range, fit_rms=None) -> "EpsilonModel":
        return cls(
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
        if self.table is not None:
            eps = np.interp(t, self.table[:, 0], self.table[:, 1])
        else:
            eps = np.polyval(self.coefficients, t)
        return np.clip(eps, 0.0, 1.0)


def pattern_labels(n_atoms: int) -> list[str]:
    """Recapture-pattern labels ('1' = recaptured) in pattern-index order."""
    return ["".join(s) for s in itertools.product("01", repeat=n_atoms)]


def forward_detection(level_populations, epsilon) -> np.ndarray:
    """Recapture-pattern distributions of level-population distributions.

    ``level_populations`` has shape (..., 3^N): each row is a normalized
    distribution over {g, up, down}^N (level order g, up, down per atom,
    atom 0 most significant).  ``epsilon`` is one loss probability for all
    rows or one per row, shape (...).  The result has shape (..., 2^N), over
    {0, 1}^N recapture patterns in :func:`pattern_labels` order, with bit 1
    meaning "recaptured": P(1 | g) = 1 - epsilon, P(1 | Rydberg) = 0.  At
    epsilon = 0 this is the true readout, the marginal of the ground-state
    pattern.  The map is linear in the populations, so it commutes with an
    ensemble mean taken at one epsilon.
    """
    probs = np.atleast_1d(np.asarray(level_populations, dtype=float))
    rows, d = probs.shape[:-1], probs.shape[-1]
    n_atoms = round(math.log(d, 3)) if d > 1 else 0
    if n_atoms < 1 or 3**n_atoms != d:
        raise DataError(f"level populations of length {d}: not a power of 3")
    try:
        eps = np.broadcast_to(np.asarray(epsilon, dtype=float), rows)
    except ValueError:
        raise DataError(
            f"epsilon of shape {np.shape(epsilon)} is neither a scalar nor one per row"
        ) from None
    if np.any((eps < 0.0) | (eps > 1.0)):
        raise DataError(f"epsilon must be in [0, 1], got {epsilon}")
    totals = np.asarray(probs.sum(axis=-1))
    worst = totals.flat[np.argmax(np.abs(totals - 1.0))]
    if abs(worst - 1.0) > 1e-9:
        raise DataError(f"input distribution sums to {worst!r}, expected 1")
    # per atom: bit 0 collects the lost ground share and both Rydberg levels
    eps = eps.reshape(rows + (1,) * (n_atoms - 1))
    out = probs.reshape(rows + (3,) * n_atoms)
    for axis in range(len(rows), len(rows) + n_atoms):
        ground, up, down = (np.take(out, k, axis=axis) for k in range(3))
        out = np.stack([eps * ground + up + down, (1.0 - eps) * ground], axis=axis)
    return out.reshape(rows + (2**n_atoms,))


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
