"""Independent brute-force oracles shared by the test modules.

These deliberately use different algorithms from the package code: full
2^N Hilbert-space matrix exponentials for the spin dynamics, dense matrix
exponentials of each step's midpoint or Gauss-point couplings for the moving
chain, the master-equation Hamiltonian and dissipator summed term by term
from 3 x 3 single-atom operators, and explicit enumeration of every true
state and loss outcome for the detection channel.  They import only public names of the
package.
"""

import itertools

import numpy as np
from scipy.linalg import expm

from xychain.model import PHASE_CAP, PairFlight

# single-atom levels in the order of the master equation's product basis
G, UP, DOWN = 0, 1, 2


def brute_force_populations(entries: np.ndarray, initial_site: int, times):
    """Full 2^N propagation of the exchange Hamiltonian built from Pauli
    ladder operators; returns per-site excitation probabilities (N, T)."""
    n = entries.shape[0]
    sp = np.array([[0, 1], [0, 0]], dtype=complex)  # raises |down> -> |up>
    sm = sp.T.conj()

    def site_op(op, site):
        mats = [np.eye(2, dtype=complex)] * n
        mats[site] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    dim = 2**n
    ham = np.zeros((dim, dim), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            ham += entries[i, j] * (site_op(sp, i) @ site_op(sm, j)
                                    + site_op(sm, i) @ site_op(sp, j))
    # basis: bit k of the index = 1 means spin up at site k (site 0 first)
    psi0 = np.zeros(dim, dtype=complex)
    psi0[1 << (n - 1 - initial_site)] = 1.0
    pops = np.empty((n, len(times)))
    masks = np.array(
        [[(idx >> (n - 1 - site)) & 1 for idx in range(dim)] for site in range(n)],
        dtype=float,
    )
    for k, t in enumerate(times):
        psi = expm(-2j * np.pi * ham * t) @ psi0
        pops[:, k] = masks @ (np.abs(psi) ** 2)
    return pops


def _dense_hopping(n, pairs, nu) -> np.ndarray:
    """The (N, N) hopping matrix with nu[p] on both entries of pairs[p]."""
    ham = np.zeros((n, n))
    for (i, j), value in zip(pairs, nu):
        ham[i, j] = ham[j, i] = value
    return ham


def midpoint_populations(geometry, params, sample, initial, times, refine=1):
    """One realization of the moving chain, one midpoint step at a time: (N, T).

    Every pair is coupled.  The step is dt = PHASE_CAP / (2*pi*nu_max*1.05)
    / ``refine`` for the largest pair bound nu_max over the run, with
    ceil(span / dt) equal steps per sample interval; each step is the exact
    exponential (``scipy.linalg.expm``) of the hopping matrix at its
    midpoint, a second-order method.
    """
    n = geometry.n_atoms
    flight = PairFlight(
        geometry, params, sample.displacements[None], sample.velocities[None]
    )
    nu_bound = float(flight.bound(0.0, float(times[-1])).max())
    dt = PHASE_CAP / (2.0 * np.pi * nu_bound * 1.05) / refine
    psi = np.asarray(initial, dtype=complex)
    pops = np.empty((n, len(times)))
    t_now = 0.0
    for k, t_target in enumerate(times):
        span = t_target - t_now
        n_steps = max(1, int(np.ceil(span / dt))) if span > 0 else 0
        for _ in range(n_steps):
            h = span / n_steps
            ham = _dense_hopping(n, flight.pairs, flight.couplings(t_now + 0.5 * h)[0])
            psi = expm(-2j * np.pi * h * ham) @ psi
            t_now += h
        t_now = t_target
        pops[:, k] = np.abs(psi) ** 2
    return pops


def cf4_populations(geometry, params, sample, initial, times):
    """One realization of the moving chain, one CF4 step at a time: (N, T).

    Follows the step plan of ``xychain.xy.propagate_time_dependent`` with
    every pair coupled: R is the largest row sum of the hopping matrix of
    pair bounds over the run, each sample interval takes the fewest equal
    steps h with 2*pi*R*h <= 1, and a step from t applies, each by its
    exact exponential (``scipy.linalg.expm``) over h/2, the hopping matrices
    2 (a2 nu(t1) + a1 nu(t2)) and then 2 (a1 nu(t1) + a2 nu(t2)) at the
    Gauss points t1,2 = t + (1/2 -+ sqrt(3)/6) h, with
    a1,2 = (3 -+ 2 sqrt(3)) / 12 (Alvermann & Fehske, J. Comput. Phys. 230,
    5930 (2011)).
    """
    n = geometry.n_atoms
    flight = PairFlight(
        geometry, params, sample.displacements[None], sample.velocities[None]
    )
    bounds = _dense_hopping(n, flight.pairs, flight.bound(0.0, float(times[-1]))[0])
    rate = 2.0 * np.pi * bounds.sum(axis=1).max()
    nodes = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
    a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
    psi = np.asarray(initial, dtype=complex)
    pops = np.empty((n, len(times)))
    t_now = 0.0
    for k, t_target in enumerate(times):
        span = t_target - t_now
        n_steps = max(1, int(np.ceil(span * rate))) if span > 0 else 0
        for step in range(n_steps):
            h = span / n_steps
            t = t_now + step * h
            nu1, nu2 = (flight.couplings(t + node * h)[0] for node in nodes)
            for a, b in ((a2, a1), (a1, a2)):
                ham = _dense_hopping(n, flight.pairs, 2.0 * (a * nu1 + b * nu2))
                psi = expm(-1j * np.pi * h * ham) @ psi
        t_now = t_target
        pops[:, k] = np.abs(psi) ** 2
    return pops


def free_flight(sample, t: float) -> np.ndarray:
    """Displacement of every atom of a thermal sample at time t (us): r0 + v0 t."""
    if t < 0:
        raise ValueError(f"free flight time must be >= 0, got {t}")
    return sample.displacements + sample.velocities * t


def ket_bra(a: int, b: int) -> np.ndarray:
    """Single-atom operator |a><b|."""
    op = np.zeros((3, 3))
    op[a, b] = 1.0
    return op


def on_site(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """``op`` acting on one atom of n, identity on the others (atom 0 first)."""
    out = np.eye(1)
    for k in range(n):
        out = np.kron(out, op if k == site else np.eye(3))
    return out


def hamiltonian_at(t, segment, params, geometry, sample=None) -> np.ndarray:
    """Master-equation Hamiltonian (MHz) of one segment at absolute time t.

    Optical: Omega_i/2 (|u><g| + h.c.) - delta_i (|u><u| + |d><d|) per atom,
    with the addressing light shift added to delta_i on masked atoms.
    Microwave: Omega_MW/2 (|d><u| + h.c.) per atom.  Every kind adds
    c3/R_ij^3 (|d_i u_j><u_i d_j| + h.c.) on each pair, with R_ij taken
    between the atoms' free-flight positions at t (at rest without a sample).
    """
    n = geometry.n_atoms

    def per_atom(value):
        return np.broadcast_to(np.asarray(value, dtype=float), (n,))

    h = np.zeros((3**n, 3**n))
    if segment.kind == "optical":
        mask = segment.addressing_mask or (False,) * n
        x_gu = ket_bra(UP, G) + ket_bra(G, UP)
        rydberg = ket_bra(UP, UP) + ket_bra(DOWN, DOWN)
        drives = zip(per_atom(params.omega_opt), per_atom(params.delta_opt), mask)
        for i, (omega, delta, shifted) in enumerate(drives):
            delta += params.addressing_shift if shifted else 0.0
            h += 0.5 * omega * on_site(x_gu, i, n) - delta * on_site(rydberg, i, n)
    elif segment.kind == "microwave":
        x_ud = ket_bra(DOWN, UP) + ket_bra(UP, DOWN)
        for i in range(n):
            h += 0.5 * params.omega_mw * on_site(x_ud, i, n)
    positions = geometry.positions + (0.0 if sample is None else free_flight(sample, t))
    lower = ket_bra(DOWN, UP)
    for i in range(n):
        for j in range(i + 1, n):
            r = np.linalg.norm(positions[i] - positions[j])
            hop = on_site(lower, i, n) @ on_site(lower.T, j, n)
            h += params.c3 / r**3 * (hop + hop.T)
    return h


def lindblad_dissipator(rho, params, segment_kind: str) -> np.ndarray:
    """Reference d(rho)/dt of decay to g: sum over jump operators c of
    rate (c rho c^+ - (c^+ c rho + rho c^+ c) / 2), with c = |g><u| at
    gamma_up (plus gamma_eff during optical segments) and c = |g><d| at
    gamma_down on every atom."""
    rho = np.asarray(rho, dtype=complex)
    n = round(np.log(len(rho)) / np.log(3))
    gamma_eff = params.gamma_eff if segment_kind == "optical" else 0.0
    gamma_eff = np.broadcast_to(np.asarray(gamma_eff, dtype=float), (n,))
    out = np.zeros_like(rho)
    for i in range(n):
        for rate, upper in ((params.gamma_up + gamma_eff[i], UP), (params.gamma_down, DOWN)):
            c = on_site(ket_bra(G, upper), i, n)
            out += rate * (c @ rho @ c.T - 0.5 * (c.T @ c @ rho + rho @ c.T @ c))
    return out


def pack_state(rho) -> np.ndarray:
    """The engine's real state M = Re rho + Im rho of Hermitian matrices
    rho (..., d, d): the symmetric real part plus the antisymmetric
    imaginary part."""
    rho = np.asarray(rho, dtype=complex)
    return rho.real + rho.imag


def unpack_state(m) -> np.ndarray:
    """The Hermitian matrices (..., d, d) that real states M encode: the
    symmetric part of M is Re rho, the antisymmetric part is Im rho."""
    m = np.asarray(m, dtype=float)
    m_t = np.swapaxes(m, -1, -2)
    return 0.5 * (m + m_t) + 0.5j * (m - m_t)


def liouvillian(segment, params, geometry, t=0.0, sample=None) -> np.ndarray:
    """Superoperator (d^2, d^2) of -2 pi i [H, rho] + L[rho] at time t (for
    atoms at rest without a sample), acting on row-major flattened rho;
    assembled column by column from ``hamiltonian_at`` and
    ``lindblad_dissipator`` on the basis matrices."""
    h = hamiltonian_at(t, segment, params, geometry, sample)
    d = len(h)
    columns = []
    for k in range(d * d):
        basis = np.zeros(d * d, dtype=complex)
        basis[k] = 1.0
        rho = basis.reshape(d, d)
        drho = -2j * np.pi * (h @ rho - rho @ h) + lindblad_dissipator(
            rho, params, segment.kind
        )
        columns.append(drho.reshape(-1))
    return np.stack(columns, axis=1)


def brute_force_detection(level_populations: np.ndarray, epsilon: float) -> np.ndarray:
    """Enumerate every level configuration and every per-atom loss outcome."""
    probs = np.asarray(level_populations, dtype=float)
    n = round(np.log(len(probs)) / np.log(3))
    assert 3**n == len(probs), "level populations must have length 3^N"
    observed = np.zeros(2**n)
    for state in itertools.product((G, UP, DOWN), repeat=n):
        idx = 0
        for level in state:
            idx = 3 * idx + level
        p_state = probs[idx]
        if p_state == 0.0:
            continue
        for outcome in itertools.product((0, 1), repeat=n):
            weight = 1.0
            for level, bit in zip(state, outcome):
                if level == G:
                    weight *= (1.0 - epsilon) if bit == 1 else epsilon
                else:
                    weight *= 1.0 if bit == 0 else 0.0
            pattern = 0
            for bit in outcome:
                pattern = 2 * pattern + bit
            observed[pattern] += p_state * weight
    return observed
