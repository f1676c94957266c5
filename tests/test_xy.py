import itertools
import re
import tracemalloc

import numpy as np
import pytest

from scipy.linalg import expm

from oracles import brute_force_populations, cf4_populations, midpoint_populations
from xychain import model, xy
from xychain.errors import GeometryError, IntegrationError
from xychain.model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams, taylor_plan
from xychain.scenarios import run_scenario
from xychain.thermal import ThermalSample, realization_seeds, sample_thermal
from xychain.xy import (
    CouplingMatrix,
    SpinState,
    _exp_minus_i,
    _series_buffer,
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

    def test_empty_time_grid_gives_no_columns(self, chain3, params):
        sample = sample_thermal(params, 3, seed=1)
        state = SpinState.excitation_at(3, 0)
        pops = propagate_time_dependent(chain3, params, sample, "full", state, [])
        assert pops.shape == (3, 0)

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
            PairFlight, "bound", lambda flight, t_lo, t_hi: np.abs(flight.couplings(t_lo))
        )
        with pytest.raises(IntegrationError, match="step size violation") as err:
            propagate_ensemble(
                pair30, params, [sample], "full", SpinState.excitation_at(2, 0), [12.0]
            )
        t_raised = float(re.search(r"at t = (\S+) us", str(err.value)).group(1))
        assert t_raised < 10.0

    def test_step_violation_names_the_earliest_step(self, pair30, params, monkeypatch):
        # atom 0 flies past atom 1 at 1 um/us in row 0 and at 4 um/us in
        # row 1, so row 1 breaks the under-reported step plan first
        speeds = (1.0, 4.0)
        samples = [
            ThermalSample(displacements=[[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
                          velocities=[[v, 0.0, 0.0], [0.0, 0.0, 0.0]], seed=0)
            for v in speeds
        ]
        monkeypatch.setattr(
            PairFlight, "bound", lambda flight, t_lo, t_hi: np.abs(flight.couplings(t_lo))
        )
        with pytest.raises(IntegrationError, match="step size violation") as err:
            propagate_ensemble(
                pair30, params, samples, "full", SpinState.excitation_at(2, 0), [12.0]
            )
        # the same plan, one Gauss point at a time: both rows share the step
        # and the check, 1.05 times their pair bound
        flight = PairFlight(pair30, params, np.stack([s.displacements for s in samples]),
                            np.stack([s.velocities for s in samples]))
        bound = float(flight.bound(0.0, 12.0).max())
        check = PHASE_CAP / (2.0 * np.pi * 1.05 * bound)
        n_steps = int(np.ceil(12.0 * 2.0 * np.pi * bound))
        h = 12.0 / n_steps
        nodes = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
        points = [step * h + node * h for step in range(n_steps) for node in nodes]
        first = {}
        for k, t in enumerate(points):
            phase = 2.0 * np.pi * np.abs(flight.couplings(t)).max(axis=-1) * check
            for row in np.flatnonzero(phase >= PHASE_CAP):
                first.setdefault(int(row), k)
        assert first[1] < first[0]
        assert f"at t = {points[first[1]]:.4g} us" in str(err.value)

    def test_negative_c3_matches_the_oracle(self, chain3):
        # beyond the magic angle c3 < 0; the step plan takes the bound's
        # magnitude, and the chain at rest still follows the exact propagator
        params = PhysicalParams(c3=-7965.0)
        sample = sample_thermal(PhysicalParams(temperature=50.0), 3, seed=11)
        times = np.linspace(0.0, 2.0, 11)
        state = SpinState.excitation_at(3, 0)
        pops = propagate_time_dependent(chain3, params, sample, "full", state, times)
        oracle = cf4_populations(chain3, params, sample, state.amplitudes, times)
        assert np.abs(pops - oracle).max() < 1e-12
        static = propagate(build_coupling_matrix(chain3, params), state, times)
        at_rest = propagate_time_dependent(chain3, params, None, "full", state, times)
        assert np.abs(static - at_rest).max() < 1e-8


class TestPropagateEnsemble:
    @staticmethod
    def samples(n_atoms, seeds):
        hot = PhysicalParams(temperature=50.0)
        return [sample_thermal(hot, n_atoms, seed) for seed in seeds]

    def test_moving_batch_matches_cf4_oracle(self, params):
        geometry = ChainGeometry.line(5, 10.0)
        samples = self.samples(5, (1, 2, 3, 4))
        times = np.linspace(0.0, 2.0, 11)
        state = SpinState.excitation_at(5, 0)
        pops = propagate_ensemble(geometry, params, samples, "full", state, times)
        assert pops.shape == (4, 5, 11)
        for row, sample in zip(pops, samples):
            oracle = cf4_populations(geometry, params, sample, state.amplitudes, times)
            assert np.abs(row - oracle).max() < 1e-12

    def test_dense_cluster_matches_cf4_oracle(self, params):
        # 8 sites of a 3 x 3 um grid: the row sums of the hopping matrix are
        # several times its largest entry, which the step rule must count
        grid = [(1.5 * i, 1.5 * j, 0.0) for i in range(3) for j in range(3)][:8]
        geometry = ChainGeometry(positions=grid)
        entries = build_coupling_matrix(geometry, params).entries
        assert entries.sum(axis=1).max() > 4.0 * entries.max()
        samples = self.samples(8, (5, 6))
        times = np.linspace(0.0, 0.003, 4)
        state = SpinState.excitation_at(8, 4)
        pops = propagate_ensemble(geometry, params, samples, "full", state, times)
        for row, sample in zip(pops, samples):
            oracle = cf4_populations(geometry, params, sample, state.amplitudes, times)
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

    @pytest.mark.parametrize("case", ["mixed-temperatures", "dense-cluster", "hot-and-rest"])
    def test_chunk_size_does_not_change_output(self, case, params, monkeypatch):
        if case == "mixed-temperatures":
            # a 3 mK draw, a chain at rest and 50 uK draws: other step
            # counts and Taylor orders in every interval
            geometry = ChainGeometry.line(6, 15.0)
            hot = sample_thermal(PhysicalParams(temperature=3000.0), 6, seed=9)
            samples = [hot, None] + self.samples(6, (7, 8))
            times = np.linspace(0.0, 3.0, 16)
        elif case == "dense-cluster":
            # a 79-site cluster at rest: 3081 pairs, and the centre site's row
            # sum, which sets the step, is 22 times its largest coupling
            geometry = self.fcc_cluster(79, 5.0)
            samples = [None]
            row_sum = build_coupling_matrix(geometry, params).entries.sum(axis=1).max()
            times = np.array([0.0, 7.5, 10.6]) / (2.0 * np.pi * row_sum)
        else:
            # a 3 mK draw and a chain at rest over intervals of 1 to 35 steps,
            # which the two rows split differently, so that chunks of three
            # steps span intervals and end inside them
            geometry = ChainGeometry.line(6, 20.0)
            samples = [sample_thermal(PhysicalParams(temperature=3000.0), 6, seed=9), None]
            times = np.array([0.0, 0.02, 0.04, 0.1, 0.12, 0.3, 1.0, 1.03, 3.0])
        state = SpinState.excitation_at(geometry.n_atoms, 0)
        rows, n = len(samples), geometry.n_atoms
        n_pairs = n * (n - 1) // 2
        # xy's own words per step and row: each factor's norm gather and entries
        words = 2 * (n * n + 2 * (n_pairs + 1))
        per_step = 2 * (1 + 6 * n_pairs) + words
        chunks = []

        def plan(*args):
            for chunk in plan.wrapped(*args):
                chunks.append(chunk)
                yield chunk

        plan.wrapped = xy.cf4_plan
        monkeypatch.setattr(xy, "cf4_plan", plan)
        runs = []
        # one step at a time, three at a time, the whole run
        for budget, chunk in ((0, 1), (8 * rows * 3 * per_step, 3), (10**9, None)):
            monkeypatch.setattr(model, "_STEP_BUDGET_BYTES", budget)
            if chunk is not None:
                assert model._step_chunk(rows, n_pairs, words) == chunk
            chunks.clear()
            runs.append(propagate_ensemble(geometry, params, samples, "full", state, times))
            spans = np.concatenate([span for span, _, _ in chunks])
            if chunk is None:
                whole = spans
            assert [len(span) for span, _, _ in chunks] == [
                min(chunk or len(spans), len(spans) - first)
                for first in range(0, len(spans), chunk or len(spans))]
            if chunk == 3:
                firsts = [span[0] for span, _, _ in chunks[1:]]
                lasts = [span[-1] for span, _, _ in chunks[:-1]]
                assert any(a == b for a, b in zip(firsts, lasts))  # ends mid-interval
                assert any(span[0] != span[-1] for span, _, _ in chunks)  # spans several
        assert model._step_chunk(rows, n_pairs, words) >= len(whole)
        assert np.array_equal(np.unique(whole), np.flatnonzero(np.diff(times, prepend=0.0)))
        if case != "dense-cluster":
            # a row waits with zero steps where the other still steps
            steps = np.concatenate([step for _, step, _ in chunks])
            assert np.any((steps == 0.0).any(axis=1) & (steps > 0.0).any(axis=1))
        for run in runs[1:]:
            assert np.array_equal(run, runs[0])

    def test_couplings_are_evaluated_once_per_planned_chunk(self, params, monkeypatch):
        """A regression guard on the count, not the time: the 200 sample
        intervals of a 20-atom run of 10 realizations are planned across the
        intervals, so ``PairFlight.couplings`` runs once per planned chunk of
        steps, not once per interval."""
        geometry = ChainGeometry.line(20, 20.0)
        samples = self.samples(20, range(10))
        times = np.linspace(0.0, 10.0, 201)
        calls, chunks = [], []

        def couplings(flight, t, step=0.0):
            calls.append(np.shape(t))
            return couplings.wrapped(flight, t, step)

        def plan(*args):
            for chunk in plan.wrapped(*args):
                chunks.append(len(chunk[0]))
                yield chunk

        couplings.wrapped, plan.wrapped = PairFlight.couplings, xy.cf4_plan
        monkeypatch.setattr(PairFlight, "couplings", couplings)
        monkeypatch.setattr(xy, "cf4_plan", plan)
        propagate_ensemble(geometry, params, samples, "full",
                           SpinState.excitation_at(20, 0), times)
        assert calls == [(size, 2, len(samples)) for size in chunks]
        assert sum(chunks) >= len(times) - 1 > len(calls)

    def test_empty_time_grid_gives_no_columns(self, chain3, params):
        # like propagate, which returns (N, 0)
        state = SpinState.excitation_at(3, 0)
        pops = propagate_ensemble(chain3, params, self.samples(3, (1, 2)), "full", state, [])
        assert pops.shape == (2, 3, 0)

    def test_step_scratch_is_bounded(self, params):
        # one interval of about 30 CF4 steps: their setup all at once would
        # hold about 10 MB at 10 rows and 40 MB at 40
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
            assert peak < model._STEP_BUDGET_BYTES + inputs + pair_vectors + pops.nbytes

    def test_taylor_step_substeps_large_norms(self, rng):
        # norms 1, about 0.05 and 0: the largest a factor could reach, and
        # other orders in the other rows
        hops = rng.normal(size=(3, 6, 6))
        hops = hops + hops.transpose(0, 2, 1)
        row_sums = np.abs(hops).sum(axis=2).max(axis=1)
        theta = np.array([1.0, 0.05, 0.0]) / row_sums
        psi = rng.normal(size=(3, 6)) + 1j * rng.normal(size=(3, 6))
        substeps, orders = taylor_plan(theta * row_sums)
        stacked, terms = _series_buffer(3, 6)
        out = terms[0][0]
        out[:, 0], out[:, 1] = psi.real, psi.imag
        _exp_minus_i(hops * theta[:, None, None], orders, stacked, terms, np.empty_like(out))
        assert np.all(substeps == 1) and orders[0] == 17 > orders[1] > orders[2] == 0
        for b in range(3):
            exact = expm(-1j * theta[b] * hops[b]) @ psi[b]
            assert np.abs(out[b, 0] + 1j * out[b, 1] - exact).max() < 1e-13
        assert np.array_equal(out[2, 0], psi[2].real) and np.array_equal(out[2, 1], psi[2].imag)

    def test_default_step_is_close_to_a_refined_midpoint_run(self, params):
        # the ensemble mean of the golden long-chain run (N = 4, scenario
        # seed 11, 3 realizations at 50 uK, tau_step 0.2) against second-order
        # midpoint steps at 1/32 of their usual length, within 1e-9 of the
        # exact populations; midpoint steps of the usual length miss by 1.9e-7
        geometry = ChainGeometry.line(4, 20.0)
        seeds = realization_seeds(realization_seeds(11, 4)[0], 3)
        samples = [sample_thermal(params, 4, seed) for seed in seeds]
        times = np.linspace(0.0, 2.0, 11)
        state = SpinState.excitation_at(4, 0)
        pops = propagate_ensemble(geometry, params, samples, "full", state, times)
        reference = [midpoint_populations(geometry, params, sample, state.amplitudes, times,
                                          refine=32) for sample in samples]
        assert np.abs(pops.mean(axis=0) - np.mean(reference, axis=0)).max() < 5e-8

    def test_long_chain_takes_one_exponential_pair_per_interval(self, monkeypatch):
        # 20 atoms, 10 realizations at 50 uK, 200 intervals of 0.05 us: the
        # second-order midpoint steps took 2,200 Taylor series of 92 terms
        # per interval; CF4 takes one step of two factors per interval
        terms = []

        def counting(generator, orders, *buffers):
            terms.append(orders.max())
            return exp_minus_i(generator, orders, *buffers)

        exp_minus_i = xy._exp_minus_i
        monkeypatch.setattr(xy, "_exp_minus_i", counting)
        result = run_scenario("long-chain", seed=1, options={
            "n_atoms": 20, "n_realizations": 10, "temperature": 50.0})
        intervals = len(result.tables["populations"].data) - 1
        assert len(terms) == 2 * intervals == 400
        assert sum(terms) <= 30 * intervals


class TestSpinState:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            SpinState(amplitudes=[1.0, 1.0])

    def test_excitation_at(self):
        state = SpinState.excitation_at(4, 2)
        assert state.populations() == pytest.approx([0, 0, 1, 0])
