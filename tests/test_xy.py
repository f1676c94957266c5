import itertools
import re
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import expm

from oracles import brute_force_populations, midpoint_populations
from xychain import xy
from xychain.errors import ConfigError, GeometryError, IntegrationError
from xychain.model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams
from xychain.thermal import ThermalSample, sample_thermal
from xychain.xy import (
    CouplingMatrix,
    SpinState,
    _taylor_apply,
    _taylor_plan,
    build_coupling_matrix,
    eigenmodes,
    propagate,
    propagate_ensemble,
    propagate_time_dependent,
)

A20 = 7965.0 / 20**3  # nearest-neighbor coupling at 20 um


class TestCouplingMatrix:
    def test_full_three_chain_entries(self, chain3, params):
        matrix = build_coupling_matrix(chain3, params, "full")
        assert matrix.entries[0, 1] == pytest.approx(A20)
        assert matrix.entries[1, 2] == pytest.approx(A20)
        assert matrix.entries[0, 2] == pytest.approx(A20 / 8.0)
        assert matrix.entries[0, 2] == pytest.approx(0.1245, abs=5e-5)

    def test_nearest_neighbor_truncation(self, chain3, params):
        matrix = build_coupling_matrix(chain3, params, "nearest_neighbor")
        assert matrix.entries[0, 2] == 0.0
        assert matrix.entries[0, 1] == pytest.approx(A20)

    def test_two_atom_entry(self, pair30, params):
        matrix = build_coupling_matrix(pair30, params)
        assert matrix.entries[0, 1] == pytest.approx(0.295)

    def test_nonmonotonic_order_warns(self, params):
        geom = ChainGeometry(positions=[[0, 0, 0], [40, 0, 0], [20, 0, 0]])
        with pytest.warns(UserWarning, match="monotonic"):
            build_coupling_matrix(geom, params, "nearest_neighbor")

    def test_symmetry_and_diagonal_enforced(self):
        with pytest.raises(ValueError):
            CouplingMatrix(entries=[[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            CouplingMatrix(entries=[[0.1, 1.0], [1.0, 0.0]])


class TestEigenmodes:
    def test_nn_three_chain_spectrum(self, chain3, params):
        matrix = build_coupling_matrix(chain3, params, "nearest_neighbor")
        values, vectors = eigenmodes(matrix)
        a = A20
        assert np.allclose(values, [-np.sqrt(2) * a, 0.0, np.sqrt(2) * a], atol=1e-12)
        assert np.allclose(vectors.T @ vectors, np.eye(3), atol=1e-10)

    def test_full_three_chain_closed_form(self):
        a, b = 1.0, 0.125
        matrix = CouplingMatrix(entries=[[0, a, b], [a, 0, a], [b, a, 0]])
        values, _ = eigenmodes(matrix)
        root = np.sqrt(b * b + 8 * a * a)
        expected = sorted([-b, (b - root) / 2, (b + root) / 2])
        assert np.allclose(values, expected, atol=1e-12)
        assert np.allclose(values, [-1.3531, -0.1250, 1.4781], atol=1e-4)
        # independent oracle: roots of the characteristic polynomial
        coeffs = [1.0, 0.0, -(2 * a * a + b * b), -2 * a * a * b]
        assert np.allclose(np.sort(np.roots(coeffs)), values, atol=1e-10)

    def test_single_atom(self):
        values, _ = eigenmodes(CouplingMatrix(entries=[[0.0]]))
        assert values == pytest.approx([0.0])

    def test_reconstruction(self, rng):
        m = rng.normal(size=(6, 6))
        m = m + m.T
        np.fill_diagonal(m, 0.0)
        matrix = CouplingMatrix(entries=m)
        values, vectors = eigenmodes(matrix)
        rebuilt = vectors @ np.diag(values) @ vectors.T
        assert np.linalg.norm(rebuilt - m) < 1e-10 * np.linalg.norm(m)


class TestPropagate:
    def test_two_atom_exchange_is_sin_squared(self, pair30, params):
        matrix = build_coupling_matrix(pair30, params)
        nu = matrix.entries[0, 1]
        times = np.linspace(0.0, 10.0, 257)
        pops = propagate(matrix, SpinState.excitation_at(2, 0), times)
        assert np.allclose(pops[1], np.sin(2 * np.pi * nu * times) ** 2, atol=1e-10)

    def test_nn_three_chain_closed_forms(self, chain3, params):
        matrix = build_coupling_matrix(chain3, params, "nearest_neighbor")
        a = A20
        times = np.linspace(0.0, 7.0, 141)
        pops = propagate(matrix, SpinState.excitation_at(3, 0), times)
        x = np.sqrt(2) * np.pi * a * times
        assert np.allclose(pops[0], np.cos(x) ** 4, atol=1e-10)
        assert np.allclose(pops[1], 0.5 * np.sin(2 * x) ** 2, atol=1e-10)
        assert np.allclose(pops[2], np.sin(x) ** 4, atol=1e-10)
        assert pops[1].max() <= 0.5 + 1e-12

    def test_time_zero_returns_initial(self, chain3, params, rng):
        matrix = build_coupling_matrix(chain3, params)
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        state = SpinState(amplitudes=amp / np.linalg.norm(amp))
        pops = propagate(matrix, state, [0.0])
        assert np.allclose(pops[:, 0], np.abs(state.amplitudes) ** 2, atol=1e-14)

    def test_columns_sum_to_one(self, chain3, params):
        matrix = build_coupling_matrix(chain3, params)
        pops = propagate(matrix, SpinState.excitation_at(3, 1), np.linspace(0, 9, 300))
        assert np.abs(pops.sum(axis=0) - 1.0).max() < 1e-9

    def test_nn_chain_periodicity(self, chain3, params):
        matrix = build_coupling_matrix(chain3, params, "nearest_neighbor")
        period = 1.0 / (np.sqrt(2) * A20)
        times = np.linspace(0, 2.0, 40)
        early = propagate(matrix, SpinState.excitation_at(3, 0), times)
        later = propagate(matrix, SpinState.excitation_at(3, 0), times + period)
        assert np.allclose(early, later, atol=1e-9)

    def test_matches_full_hilbert_space_oracle(self, params, rng):
        for n in (3, 4):
            pos = np.cumsum(rng.uniform(15, 25, size=n))
            geom = ChainGeometry(positions=np.column_stack([pos, 0 * pos, 0 * pos]))
            matrix = build_coupling_matrix(geom, params)
            times = np.linspace(0.0, 4.0, 9)
            fast = propagate(matrix, SpinState.excitation_at(n, 0), times)
            slow = brute_force_populations(matrix.entries, 0, times)
            assert np.abs(fast - slow).max() < 1e-8

    def test_dilation_covariance(self, params, rng):
        pos = np.cumsum(rng.uniform(15, 25, size=3))
        geom = ChainGeometry(positions=np.column_stack([pos, 0 * pos, 0 * pos]))
        scale = 1.7
        scaled = ChainGeometry(positions=geom.positions * scale)
        times = np.linspace(0.0, 5.0, 60)
        base = propagate(build_coupling_matrix(geom, params),
                         SpinState.excitation_at(3, 0), times)
        dilated = propagate(build_coupling_matrix(scaled, params),
                            SpinState.excitation_at(3, 0), times * scale**3)
        assert np.allclose(base, dilated, atol=1e-9)

    def test_beat_frequencies_appear_in_spectrum(self, chain3, params):
        # the edge-site autocorrelation carries the pairwise eigenvalue gaps
        matrix = build_coupling_matrix(chain3, params)
        values, _ = eigenmodes(matrix)
        a = matrix.entries[0, 1]
        expected = np.sort([abs(values[i] - values[j])
                            for i in range(3) for j in range(i + 1, 3)])
        assert np.allclose(expected / a, [1.2281, 1.6031, 2.8312], atol=1e-4)
        span, n_samples = 80.0, 2**13
        times = np.linspace(0.0, span, n_samples, endpoint=False)
        p1 = propagate(matrix, SpinState.excitation_at(3, 0), times)[0]
        spectrum = np.abs(np.fft.rfft(p1 - p1.mean()))
        freqs = np.fft.rfftfreq(n_samples, span / n_samples)
        peaks = []
        for k in range(1, len(spectrum) - 1):
            if spectrum[k] > spectrum[k - 1] and spectrum[k] > spectrum[k + 1] \
                    and spectrum[k] > 0.05 * spectrum.max():
                peaks.append(freqs[k])
        for beat in expected:
            assert min(abs(p - beat) for p in peaks) < 2.0 * freqs[1]


class TestPropagateTimeDependent:
    def test_zero_motion_matches_static(self, chain3, params):
        times = np.linspace(0.0, 6.0, 41)
        state = SpinState.excitation_at(3, 0)
        static = propagate(build_coupling_matrix(chain3, params), state, times)
        moving = propagate_time_dependent(
            chain3, params, ThermalSample.at_rest(3), "full", state, times
        )
        assert np.abs(static - moving).max() < 1e-8

    def test_none_trajectories_allowed(self, chain3, params):
        times = np.linspace(0.0, 2.0, 11)
        state = SpinState.excitation_at(3, 0)
        out = propagate_time_dependent(chain3, params, None, "full", state, times)
        assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-8

    def test_norm_conserved_with_motion(self, chain3, params):
        sample = sample_thermal(PhysicalParams(temperature=50.0), 3, seed=11)
        times = np.linspace(0.0, 7.0, 36)
        pops = propagate_time_dependent(
            chain3, params, sample, "full", SpinState.excitation_at(3, 0), times
        )
        assert np.abs(pops.sum(axis=0) - 1.0).max() < 1e-8

    def test_thermal_draw_differs_from_static(self, chain3, params):
        sample = sample_thermal(PhysicalParams(temperature=50.0), 3, seed=3)
        times = np.linspace(0.0, 7.0, 36)
        state = SpinState.excitation_at(3, 0)
        static = propagate(build_coupling_matrix(chain3, params), state, times)
        moving = propagate_time_dependent(chain3, params, sample, "full", state, times)
        assert np.abs(static - moving).max() > 1e-3

    def test_n20_front_reaches_far_site(self, params):
        geom = ChainGeometry.line(20, 20.0)
        times = np.arange(0.0, 10.0001, 0.1)
        pops = propagate_time_dependent(
            geom, params, None, "full", SpinState.excitation_at(20, 0), times
        )
        assert np.abs(pops.sum(axis=0) - 1.0).max() < 1e-8
        assert pops[19].max() > 0.2

    def test_pass_through_rejected(self, pair30, params):
        # atom 0 reaches atom 1 at t = 10 us, before the only sample time
        sample = ThermalSample(
            displacements=np.zeros((2, 3)),
            velocities=[[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            seed=0,
        )
        with pytest.raises(GeometryError):
            propagate_time_dependent(
                pair30, params, sample, "full", SpinState.excitation_at(2, 0), [12.0]
            )

    def test_under_reported_coupling_bound_raises(self, pair30, params, monkeypatch):
        # atom 0 passes 2 um from atom 1 at t = 10 us; a bound read at the
        # window start alone misses the approach
        sample = ThermalSample(
            displacements=[[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
            velocities=[[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            seed=0,
        )
        monkeypatch.setattr(
            PairFlight,
            "bound",
            lambda flight, t_lo, t_hi: np.abs(flight.couplings(t_lo)).max(axis=-1),
        )
        with pytest.raises(IntegrationError, match="step size violation") as err:
            propagate_ensemble(
                pair30, params, [sample], "full", SpinState.excitation_at(2, 0), [12.0]
            )
        t_raised = float(re.search(r"at t = (\S+) us", str(err.value)).group(1))
        assert t_raised < 10.0

    def test_step_violation_names_the_earliest_step(self, pair30, params, monkeypatch):
        # atom 0 passes 2 um from atom 1 at 3 um/us in row 0 and at 4 um/us
        # in row 1, so row 1 breaks the under-reported step plan first
        speeds = (3.0, 4.0)
        samples = [
            ThermalSample(displacements=[[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
                          velocities=[[v, 0.0, 0.0], [0.0, 0.0, 0.0]], seed=0)
            for v in speeds
        ]
        monkeypatch.setattr(
            PairFlight,
            "bound",
            lambda flight, t_lo, t_hi: np.abs(flight.couplings(t_lo)).max(axis=-1),
        )
        with pytest.raises(IntegrationError, match="step size violation") as err:
            propagate_ensemble(
                pair30, params, samples, "full", SpinState.excitation_at(2, 0), [12.0]
            )
        # the same plan, one step at a time: both rows share dt
        flight = PairFlight(pair30, params, np.stack([s.displacements for s in samples]),
                            np.stack([s.velocities for s in samples]))
        dt = PHASE_CAP / (2.0 * np.pi * float(flight.bound(0.0, 12.0)[0]) * 1.05)
        n_steps = int(np.ceil(12.0 / dt))
        h = 12.0 / n_steps
        first = {}
        for step in range(n_steps):
            phase = 2.0 * np.pi * flight.couplings((step + 0.5) * h).max(axis=-1) * h
            for row in np.flatnonzero(phase >= PHASE_CAP):
                first.setdefault(int(row), step)
        assert first[1] < first[0]
        assert f"at t = {(first[1] + 0.5) * h:.4g} us" in str(err.value)

    def test_step_size_violation_rejected(self, chain3, params):
        with pytest.raises(ConfigError, match="step size"):
            propagate_time_dependent(
                chain3, params, None, "full",
                SpinState.excitation_at(3, 0), [1.0], dt=0.5,
            )


class TestPropagateEnsemble:
    @staticmethod
    def samples(n_atoms, seeds):
        hot = PhysicalParams(temperature=50.0)
        return [sample_thermal(hot, n_atoms, seed) for seed in seeds]

    def test_moving_batch_matches_midpoint_oracle(self, params):
        geometry = ChainGeometry.line(5, 10.0)
        samples = self.samples(5, (1, 2, 3, 4))
        times = np.linspace(0.0, 2.0, 11)
        state = SpinState.excitation_at(5, 0)
        pops = propagate_ensemble(geometry, params, samples, "full", state, times)
        assert pops.shape == (4, 5, 11)
        for row, sample in zip(pops, samples):
            oracle = midpoint_populations(geometry, params, sample, state.amplitudes, times)
            assert np.abs(row - oracle).max() < 1e-12

    def test_dense_cluster_matches_midpoint_oracle(self, params):
        # 8 sites of a 3 x 3 um grid: the row sums of the hopping matrix are
        # several times its largest entry, so the steps need high orders
        grid = [(1.5 * i, 1.5 * j, 0.0) for i in range(3) for j in range(3)][:8]
        geometry = ChainGeometry(positions=grid)
        entries = build_coupling_matrix(geometry, params).entries
        assert entries.sum(axis=1).max() > 4.0 * entries.max()
        samples = self.samples(8, (5, 6))
        times = np.linspace(0.0, 0.003, 4)
        state = SpinState.excitation_at(8, 4)
        pops = propagate_ensemble(geometry, params, samples, "full", state, times)
        for row, sample in zip(pops, samples):
            oracle = midpoint_populations(geometry, params, sample, state.amplitudes, times)
            assert np.abs(row - oracle).max() < 1e-12

    def test_rows_do_not_depend_on_the_batch(self, params):
        # a 3 mK draw and a chain at rest take other step counts and Taylor
        # orders than the 50 uK draws they share the batch with
        geometry = ChainGeometry.line(6, 15.0)
        hot = sample_thermal(PhysicalParams(temperature=3000.0), 6, seed=9)
        samples = self.samples(6, (7, 8)) + [hot, None] + self.samples(6, (10,))
        times = np.linspace(0.0, 3.0, 16)
        state = SpinState.excitation_at(6, 0)
        batch = propagate_ensemble(geometry, params, samples, "full", state, times)
        for row, sample in zip(batch, samples):
            alone = propagate_time_dependent(geometry, params, sample, "full", state, times)
            assert np.array_equal(row, alone)

    @staticmethod
    def fcc_cluster(n_atoms, spacing):
        """The n_atoms sites nearest the centre of a face-centred cubic
        lattice with nearest-neighbour distance ``spacing`` (um)."""
        sites = np.array([p for p in itertools.product(range(-3, 4), repeat=3)
                          if sum(p) % 2 == 0], dtype=float)
        order = np.argsort(np.linalg.norm(sites, axis=1), kind="stable")
        return ChainGeometry(positions=sites[order[:n_atoms]] * spacing / np.sqrt(2.0))

    @pytest.mark.parametrize("case", ["mixed-temperatures", "dense-cluster"])
    def test_chunk_size_does_not_change_output(self, case, params, monkeypatch):
        if case == "mixed-temperatures":
            # a 3 mK draw, a chain at rest and 50 uK draws: other step
            # counts and Taylor orders in every interval
            geometry = ChainGeometry.line(6, 15.0)
            hot = sample_thermal(PhysicalParams(temperature=3000.0), 6, seed=9)
            samples = [hot, None] + self.samples(6, (7, 8))
            times, dt = np.linspace(0.0, 3.0, 16), None
        else:
            # the centre site of a 79-site cluster couples to the others 22
            # times as strongly as to its nearest neighbour, so steps near
            # the bound on that neighbour take two substeps
            geometry = self.fcc_cluster(79, 5.0)
            samples = [None]
            dt = 0.049 / (2.0 * np.pi * params.c3 / 5.0**3)
            times = np.array([0.0, 6.65, 9.5]) * dt
        state = SpinState.excitation_at(geometry.n_atoms, 0)
        rows, n = len(samples), geometry.n_atoms
        n_pairs = n * (n - 1) // 2
        seen = {"steps": [], "substeps": 0}

        def step_count(duration, dt):
            counts = step_count.wrapped(duration, dt)
            seen["steps"].append(int(counts.max(initial=0)))
            return counts

        def taylor_plan(norm):
            substeps, weights = taylor_plan.wrapped(norm)
            seen["substeps"] = max(seen["substeps"], int(substeps.max()))
            return substeps, weights

        step_count.wrapped, taylor_plan.wrapped = xy._step_count, xy._taylor_plan
        monkeypatch.setattr(xy, "_step_count", step_count)
        monkeypatch.setattr(xy, "_taylor_plan", taylor_plan)
        per_step = n * n + 7 * (n_pairs + 1) + 3 * 18
        fixed = 2 * n * n + 8 * n
        runs = []
        # one step at a time, three at a time, whole intervals
        for budget, chunk in ((0, 1), (8 * rows * (fixed + 3 * per_step), 3), (10**9, None)):
            monkeypatch.setattr(xy, "_STEP_BUDGET_BYTES", budget)
            if chunk is not None:
                assert xy._step_chunk(rows, n, n_pairs) == chunk
            seen["steps"].clear()
            runs.append(propagate_ensemble(geometry, params, samples, "full", state, times, dt))
        assert xy._step_chunk(rows, n, n_pairs) >= max(seen["steps"])
        assert any(count > 3 and count % 3 for count in seen["steps"])  # a partial chunk
        if case == "dense-cluster":
            assert seen["substeps"] > 1
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    def test_step_scratch_is_bounded(self, params):
        # one interval of about 400 steps: all of its complex generators
        # at once would hold 25 MB at 10 rows and 100 MB at 40
        geometry = ChainGeometry.line(20, 20.0)
        state = SpinState.excitation_at(20, 0)
        for seeds in (range(10), range(10, 50)):
            samples = self.samples(20, seeds)
            tracemalloc.start()
            try:
                pops = propagate_ensemble(geometry, params, samples, "full", state, [0.0, 2.0])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            inputs = sum(s.displacements.nbytes + s.velocities.nbytes for s in samples)
            # the same inputs resolved per pair: PairFlight's (3, B, P) vectors
            pair_vectors = 2 * 3 * len(samples) * 190 * np.dtype(float).itemsize
            assert peak < xy._STEP_BUDGET_BYTES + inputs + pair_vectors + pops.nbytes

    def test_taylor_step_substeps_large_norms(self, rng):
        hops = rng.normal(size=(3, 6, 6))
        hops = hops + hops.transpose(0, 2, 1)
        theta = np.array([1.5, 0.01, 0.0])      # norms about 7, 0.05 and 0
        psi = rng.normal(size=(3, 6, 1)) + 1j * rng.normal(size=(3, 6, 1))
        substeps, weights = _taylor_plan(theta * np.abs(hops).sum(axis=2).max(axis=1))
        generator = hops * (-1j * theta / substeps)[:, None, None]
        out = _taylor_apply(generator, weights, psi)
        assert substeps[0] > 3 and substeps[1] == substeps[2] == 1
        for b in range(3):
            exact = expm(-1j * theta[b] * hops[b]) @ psi[b]
            assert np.abs(out[b] - exact).max() < 1e-13
        assert np.array_equal(out[2], psi[2])


class TestSpinState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            SpinState(amplitudes=[1.0, 1.0])

    def test_excitation_at(self):
        state = SpinState.excitation_at(4, 2)
        assert state.populations() == pytest.approx([0, 0, 1, 0])
