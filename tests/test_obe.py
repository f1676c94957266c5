import ast
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from scipy.linalg import expm

from oracles import (
    DOWN,
    UP,
    hamiltonian_at,
    ket_bra,
    lindblad_dissipator,
    liouvillian,
    on_site,
    pack_state,
    unpack_state,
)
from xychain import model, obe, xy
from xychain.detection import forward_detection, pattern_labels
from xychain.errors import ConfigError, GeometryError, IntegrationError
from xychain.model import PHASE_CAP, ChainGeometry, PairFlight, PhysicalParams
from xychain.obe import (
    PulseSegment,
    PulseSequence,
    basis_index,
    basis_rho,
    level_labels,
    readout_scan,
    run_sequence,
    _Engine,
)
from xychain.scenarios import deexcite_suffix, exchange_prefix
from xychain.thermal import ThermalSample, sample_thermal


@pytest.fixture
def atom1():
    return ChainGeometry(positions=[[0.0, 0.0, 0.0]])


class TestSegments:
    def test_kinds_and_durations_validated(self):
        with pytest.raises(ConfigError):
            PulseSegment("sonic", 1.0)
        with pytest.raises(ConfigError):
            PulseSegment.free(0.0)
        with pytest.raises(ConfigError):
            PulseSegment.microwave(1.0).__class__("microwave", 1.0, (True,))

    def test_sequence_duration(self):
        seq = PulseSequence(segments=(PulseSegment.free(1.5), PulseSegment.microwave(0.5)))
        assert seq.total_duration == pytest.approx(2.0)


class TestHamiltonian:
    def test_free_evolution_has_interaction_only(self, chain3, params):
        h = hamiltonian_at(0.0, PulseSegment.free(1.0), params, chain3)
        # no diagonal terms, no ground-state couplings
        assert np.allclose(np.diag(h), 0.0)
        udd, dud, ddu = (basis_index(s) for s in ("udd", "dud", "ddu"))
        assert h[udd, dud] == pytest.approx(7965.0 / 20**3)
        assert h[dud, ddu] == pytest.approx(7965.0 / 20**3)
        assert h[udd, ddu] == pytest.approx(7965.0 / 8 / 20**3)
        ggg = basis_index("ggg")
        assert np.allclose(h[ggg, :], 0.0)

    def test_microwave_single_atom_structure(self, atom1, params):
        h = hamiltonian_at(0.0, PulseSegment.microwave(0.1), params, atom1)
        up, down, g = basis_index("u"), basis_index("d"), basis_index("g")
        assert h[up, down] == pytest.approx(params.omega_mw / 2)
        assert h[down, up] == pytest.approx(params.omega_mw / 2)
        assert np.allclose(h[g, :], 0.0)

    def test_addressing_mask_folds_light_shift(self, chain3, params):
        seg = PulseSegment.optical(0.1, addressing_mask=(True, False, False))
        h = hamiltonian_at(0.0, seg, params, chain3)
        # addressed atom: both Rydberg projectors shifted by -20 MHz
        udd = basis_index("udd")
        dgg = basis_index("dgg")
        gud = basis_index("gud")
        assert h[udd, udd] == pytest.approx(-params.addressing_shift)
        assert h[dgg, dgg] == pytest.approx(-params.addressing_shift)
        assert h[gud, gud] == pytest.approx(0.0)
        # the optical drive still reaches every atom
        assert h[basis_index("ggg"), basis_index("ugg")] == pytest.approx(5.3 / 2)
        assert h[basis_index("ggg"), basis_index("gug")] == pytest.approx(5.3 / 2)

    def test_mask_length_validated(self, chain3, params):
        seq = PulseSequence(segments=(PulseSegment.optical(0.1, (True,)),))
        with pytest.raises(ConfigError, match="addressing mask length"):
            run_sequence(seq, chain3, params)

    def test_time_dependence_follows_trajectories(self, pair30, params):
        sample = sample_thermal(PhysicalParams(temperature=50.0), 2, seed=4)
        h0 = hamiltonian_at(0.0, PulseSegment.free(8.0), params, pair30, sample)
        h5 = hamiltonian_at(5.0, PulseSegment.free(8.0), params, pair30, sample)
        ud, du = basis_index("ud"), basis_index("du")
        assert h0[ud, du] != pytest.approx(h5[ud, du], rel=1e-6)


class TestDissipator:
    def test_ground_state_is_dark(self, params):
        out = lindblad_dissipator(basis_rho("ggg"), params, "free_evolution")
        assert np.abs(out).max() == 0.0

    def test_single_atom_up_decay_rate(self, params):
        rho = basis_rho("u")
        out = lindblad_dissipator(rho, params, "free_evolution")
        up = basis_index("u")
        assert out[up, up].real == pytest.approx(-params.gamma_up)
        assert out[up, up].real == pytest.approx(-1.0 / 101.0)

    def test_down_decay_rate(self, params):
        out = lindblad_dissipator(basis_rho("d"), params, "free_evolution")
        down = basis_index("d")
        assert out[down, down].real == pytest.approx(-1.0 / 135.0)

    def test_effective_damping_only_during_optical(self, params):
        rho = basis_rho("u")
        up = basis_index("u")
        free = lindblad_dissipator(rho, params, "free_evolution")
        optical = lindblad_dissipator(rho, params, "optical")
        assert free[up, up].real == pytest.approx(-params.gamma_up)
        assert optical[up, up].real == pytest.approx(-(params.gamma_up + 1.0))

    def test_trace_free_on_random_hermitian(self, params, rng):
        a = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
        rho = a + a.conj().T
        for kind in ("optical", "microwave", "free_evolution"):
            out = lindblad_dissipator(rho, params, kind)
            assert abs(np.trace(out)) < 1e-12


def test_oracles_import_no_private_names():
    """The reference operators stay independent of the engine's internals."""
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("xychain"):
            names = node.module.split(".") + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [part for alias in node.names if alias.name.startswith("xychain")
                     for part in alias.name.split(".")]
        else:
            continue
        private += [name for name in names if name.startswith("_")]
    assert private == []


def engine_rhs(engine, cache, m, t=None):
    """The engine's dM/dt of the flat stacked states m on its layout, one row
    per realization, with the Hamiltonian buffer filled as a CF4 factor at t
    fills it (None: the segment's fill alone)."""
    layout, rows = engine.layout, engine.batch
    frame = engine._frame(rows)
    engine._load(cache, frame)
    if t is not None:
        engine._hop(frame, 2.0 * np.pi * engine.flight.couplings(np.full(rows, t)))
    out = layout.stack(np.empty(m.size), rows)
    return engine._rhs(frame, cache, layout.stack(m, rows), out).flat


def blocks_to_full(engine, m):
    """The packed (rows, d, d) states of flat stacked states on the engine's
    layout, zero outside its blocks."""
    layout, d = engine.layout, engine.d
    rows = m.size // layout.entries
    full = np.zeros((rows, d * d))
    full[:, layout.pairs] = m[layout.positions(np.arange(layout.entries), rows)]
    return full.reshape(rows, d, d)


class TestRhsOracle:
    """The engine's right-hand side against the reference operators."""

    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_matches_commutator_plus_dissipator(self, n_atoms, moving, params, rng):
        self.assert_rhs_matches(n_atoms, moving, params, rng)

    # a drive that mixes up the atoms' own values only shows when they differ
    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    @pytest.mark.parametrize("n_atoms", [2, 3, 4])
    def test_matches_with_distinct_per_atom_values(self, n_atoms, moving, params, rng):
        per_atom = replace(
            params,
            omega_opt=[5.3, 4.1, 6.2, 3.7][:n_atoms],
            delta_opt=[0.0, 1.5, -2.0, 0.7][:n_atoms],
            gamma_eff=[1.0, 0.4, 2.5, 0.8][:n_atoms],
        )
        self.assert_rhs_matches(n_atoms, moving, per_atom, rng)

    # the readout runs on the down-number blocks of a block-diagonal state,
    # under the segments that keep it block-diagonal
    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    @pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
    def test_blocks_match_commutator_plus_dissipator(self, n_atoms, moving, params, rng):
        per_atom = replace(params, gamma_eff=[1.0, 0.4, 2.5, 0.8][:n_atoms])
        self.assert_rhs_matches(n_atoms, moving, per_atom, rng, blocks=True)

    @staticmethod
    def assert_rhs_matches(n_atoms, moving, params, rng, blocks=False):
        geometry = ChainGeometry.line(n_atoms, 20.0)
        samples = [sample_thermal(params, n_atoms, s) for s in (5, 6, 7)] if moving else None
        engine = _Engine(geometry, params, samples)
        mask = tuple(k == 0 for k in range(n_atoms))
        segments = (
            PulseSegment.optical(0.1),
            PulseSegment.optical(0.1, addressing_mask=mask),
            PulseSegment.microwave(0.1),
            PulseSegment.free(3.0),
        )
        d, batch, t = engine.d, engine.batch, 1.7
        n_down = np.array([label.count("d") for label in level_labels(n_atoms)])
        same_block = n_down[:, None] == n_down[None, :]
        if blocks:  # a microwave pulse mixes the blocks
            segments = tuple(seg for seg in segments if seg.kind != "microwave")
        for segment in segments:
            a = rng.normal(size=(batch, d, d)) + 1j * rng.normal(size=(batch, d, d))
            rho = (a + a.conj().transpose(0, 2, 1)) / d
            m = pack_state(rho).reshape(-1)
            if blocks:
                rho *= same_block
                engine.layout = engine.ops.full
                m = engine.to_blocks(m)
            cache = engine._segment_cache(segment, np.zeros(batch))
            out = unpack_state(blocks_to_full(engine, engine_rhs(engine, cache, m,
                                                                 t if moving else None)))
            for b in range(batch):
                h = hamiltonian_at(
                    t, segment, params, geometry, samples[b] if moving else None
                )
                expected = -2j * np.pi * (h @ rho[b] - rho[b] @ h) + lindblad_dissipator(
                    rho[b], params, segment.kind
                )
                if blocks:
                    assert np.all(expected[~same_block] == 0.0)
                assert np.abs(out[b] - expected).max() < 1e-12


@pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
@pytest.mark.parametrize("n_atoms", [1, 2, 3, 4])
def test_hamiltonian_buffer_matches_dense_build(n_atoms, moving, params):
    """The CF4 factors rewrite only the hopping entries, so the drive must
    leave them zero, and the filled buffer must equal the dense sum of the
    drive and every pair's hopping operator times its coupling, bit for bit."""
    geometry = ChainGeometry.line(n_atoms, 20.0)
    samples = [sample_thermal(params, n_atoms, s) for s in (5, 6)] if moving else None
    engine = _Engine(geometry, params, samples)
    lower = ket_bra(DOWN, UP)
    hop = np.zeros((len(engine.flight.pairs), 9**n_atoms))
    for p, (i, j) in enumerate(engine.flight.pairs):
        op = on_site(lower, i, n_atoms) @ on_site(lower.T, j, n_atoms)
        hop[p] = (op + op.T).reshape(-1)
    mask = tuple(k == 0 for k in range(n_atoms))
    segments = (
        PulseSegment.optical(0.1),
        PulseSegment.optical(0.1, addressing_mask=mask),
        PulseSegment.microwave(0.1),
        PulseSegment.free(3.0),
    )
    batch, t = engine.batch, 1.7
    for segment in segments:
        cache = engine._segment_cache(segment, np.zeros(batch))
        assert np.all(cache.h_drive_flat[hop.any(axis=0)] == 0.0)
        frame = engine._frame(batch)
        engine._load(cache, frame)
        nu = engine.flight.couplings(np.full(batch, t if moving else 0.0))
        if moving:
            engine._hop(frame, 2.0 * np.pi * nu)
        h = frame.ham.flat.reshape(batch, -1)
        assert np.array_equal(h, cache.h_drive_flat + 2.0 * np.pi * nu @ hop)


@pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
@pytest.mark.parametrize("n_atoms", [2, 3])
def test_step_plan_chunking_does_not_change_output(n_atoms, moving, params, monkeypatch):
    geometry = ChainGeometry.line(n_atoms, 10.0)
    samples = [sample_thermal(params, n_atoms, s) for s in (4, 5)] if moving else None
    prefix = exchange_prefix(params, n_atoms)
    suffix = deexcite_suffix(params, n_atoms)
    taus = np.linspace(0.0, 0.4, 5)
    batch, n_pairs = (2 if moving else 1), n_atoms * (n_atoms - 1) // 2
    # the chunk sizes planned by each step plan; the free evolution's plan
    # runs between the readout's, so each call is booked to the running plan
    planned, advanced, running = {}, [], []

    def couplings(flight, t, step=0.0):
        if np.ndim(t) > 2:
            planned.setdefault(running[-1], []).append(np.shape(t)[0])
            # both Gauss points of every step, a fixed gap apart, are checked
            assert np.ndim(step) == 0 and step > 0.0
            gap = np.diff(t, axis=1)
            assert np.allclose(gap, gap.flat[0], rtol=1e-12, atol=0.0)
            assert np.shape(t)[1] == 2 and gap.flat[0] > 0.0
        return couplings.wrapped(flight, t, step)

    def advance(engine, m, t_starts, spans, cache):
        # one plan's steps, over all of its spans
        plan = len(advanced)
        advanced.append(sum(max(1, int(np.ceil(span / cache.dt)))
                            for span in spans if span > 0.0))
        stream, end = advance.wrapped(engine, m, t_starts, spans, cache), object()
        while True:
            running.append(plan)
            item = next(stream, end)
            running.pop()
            if item is end:
                return
            yield item

    couplings.wrapped, advance.wrapped = PairFlight.couplings, _Engine._advance
    monkeypatch.setattr(PairFlight, "couplings", couplings)
    monkeypatch.setattr(_Engine, "_advance", advance)
    # one branch at a time, so that every plan has rows = batch
    monkeypatch.setattr(obe, "_BRANCH_BUDGET_BYTES", 0)
    per_step = 8 * 2 * batch * (1 + 6 * n_pairs)
    scans = []
    # one step at a time, three at a time, whole plans
    for budget, chunk in ((0, 1), (3 * per_step, 3), (10**9, None)):
        monkeypatch.setattr(model, "_STEP_BUDGET_BYTES", budget)
        planned.clear()
        advanced.clear()
        scans.append(
            readout_scan(geometry, params, prefix, taus, suffix, samples, "g" * n_atoms)
        )
        if not moving:
            assert planned == {}
            continue
        if chunk is not None:
            assert model._step_chunk(batch, n_pairs) == chunk
            assert chunk == 1 or any(n % chunk for n in advanced)  # a partial chunk
        assert planned == {
            plan: [min(chunk or n, n - first) for first in range(0, n, chunk or n)]
            for plan, n in enumerate(advanced) if n
        }
    for scan in scans[1:]:
        assert np.array_equal(scan.populations, scans[0].populations)
        assert scan.max_trace_deviation == scans[0].max_trace_deviation


def test_step_violation_names_the_earliest_step_start(pair30, params, monkeypatch):
    # atom 0 passes 2 um from atom 1 at t = 10 us, and the bound is read at
    # the window start alone, so the planned steps out-run the couplings; the
    # check names the earliest Gauss point of the earliest such step
    sample = ThermalSample(
        displacements=[[0.0, 2.0, 0.0], [0.0, 0.0, 0.0]],
        velocities=[[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        seed=0,
    )
    monkeypatch.setattr(
        PairFlight, "bound",
        lambda flight, t_lo, t_hi: float(np.abs(flight.couplings(t_lo)).max()),
    )
    # replay the Gauss points of the free evolution's steps one at a time
    engine = _Engine(pair30, params, sample)
    cache = engine._segment_cache(PulseSegment.free(12.0), np.zeros(1))
    n_steps = int(np.ceil(12.0 / cache.dt))
    h = 12.0 / n_steps
    nodes = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
    for t in (step * h + node * h for step in range(n_steps) for node in nodes):
        if 2.0 * np.pi * np.abs(engine.flight.couplings(t)).max() * cache.check >= PHASE_CAP:
            break
    else:
        pytest.fail("no step out-runs its couplings")
    per_step = 8 * 2 * (1 + 6)  # one row, one pair
    for budget in (0, 3 * per_step, 10**9):
        monkeypatch.setattr(model, "_STEP_BUDGET_BYTES", budget)
        with pytest.raises(IntegrationError, match="step size violation") as err:
            readout_scan(pair30, params, [], [12.0], [], trajectories=sample,
                         initial="ud")
        assert f"at t = {t:.4g} us" in str(err.value)


@pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
def test_couplings_are_evaluated_once_per_planned_chunk(chain3, params, moving,
                                                        monkeypatch):
    """A regression guard on the count, not the time: the couplings of
    moving atoms are evaluated once per planned chunk of CF4 steps, those
    of atoms at rest once per segment cache, never once per step or factor.
    The free evolution of a scan is one plan over all its taus: one segment
    cache, its steps planned in chunks across the taus."""
    samples = [sample_thermal(params, 3, s) for s in (1, 2)] if moving else None
    calls = {"couplings": 0, "caches": 0, "chunks": 0, "steps": 0}

    def couplings(flight, t, step=0.0):
        calls["couplings"] += 1
        return couplings.wrapped(flight, t, step)

    def segment_cache(engine, *args, **kwargs):
        calls["caches"] += 1
        return segment_cache.wrapped(engine, *args, **kwargs)

    def advance(engine, m, t_starts, spans, cache):
        n_steps = sum(max(1, int(np.ceil(span / cache.dt))) for span in spans if span > 0.0)
        chunk = model._step_chunk(m.size // engine.layout.entries, len(engine.flight.pairs))
        calls["steps"] += n_steps
        calls["chunks"] += -(-n_steps // chunk)
        return advance.wrapped(engine, m, t_starts, spans, cache)

    couplings.wrapped, segment_cache.wrapped = PairFlight.couplings, _Engine._segment_cache
    advance.wrapped = _Engine._advance
    monkeypatch.setattr(PairFlight, "couplings", couplings)
    monkeypatch.setattr(_Engine, "_segment_cache", segment_cache)
    monkeypatch.setattr(_Engine, "_advance", advance)
    prefix, suffix = exchange_prefix(params, 3), deexcite_suffix(params, 3)
    readout_scan(chain3, params, prefix, np.linspace(0.0, 0.6, 7), suffix, samples, "ggg")
    assert calls["caches"] == len(prefix) + 1 + len(suffix)
    expected = calls["chunks"] if moving else calls["caches"]
    assert calls["couplings"] == expected
    assert calls["couplings"] < calls["steps"]


class TestRunSequence:
    def test_single_atom_microwave_rabi(self, atom1, lossless_params):
        seq = PulseSequence(segments=(PulseSegment.microwave(4.0),))
        times = np.linspace(0.0, 4.0, 161)
        result = run_sequence(seq, atom1, lossless_params, sample_times=times, initial="u")
        p_down = result.populations[:, basis_index("d")]
        expected = np.sin(np.pi * 4.6 * times) ** 2
        assert np.abs(p_down - expected).max() < 5e-6
        # more than 35 coherent flips in 4 us
        flips = np.sum(np.abs(np.diff(p_down > 0.5)))
        assert flips > 35

    def test_several_trajectories_refused(self, pair30, params):
        samples = [sample_thermal(params, 2, s) for s in (1, 2)]
        seq = PulseSequence(segments=(PulseSegment.free(0.1),))
        with pytest.raises(ConfigError, match="readout_scan"):
            run_sequence(seq, pair30, params, trajectories=samples)

    def test_closed_system_matches_xy(self, lossless_params):
        for n, labels in ((2, "ud"), (3, "udd")):
            geom = ChainGeometry.line(n, 20.0 if n == 3 else 30.0)
            seq = PulseSequence(segments=(PulseSegment.free(7.0),))
            times = np.arange(0.0, 7.0001, 0.05)
            result = run_sequence(seq, geom, lossless_params, sample_times=times,
                                  initial=labels)
            matrix = xy.build_coupling_matrix(geom, lossless_params)
            expected = xy.propagate(matrix, xy.SpinState.excitation_at(n, 0), times)
            spin_states = ["".join("u" if k == i else "d" for k in range(n))
                           for i in range(n)]
            observed = result.populations[:, [basis_index(s) for s in spin_states]].T
            assert np.abs(observed - expected).max() < 1e-6

    def test_trace_and_positivity_through_lossy_sequence(self, chain3, params):
        seq = PulseSequence(
            segments=(
                PulseSegment.optical(0.0943, (True, False, False)),
                PulseSegment.microwave(0.1087),
                PulseSegment.optical(0.0943),
                PulseSegment.free(3.0),
                PulseSegment.optical(0.0943),
            )
        )
        times = np.linspace(0.0, seq.total_duration, 60)
        result = run_sequence(seq, chain3, params, sample_times=times)
        assert result.max_trace_deviation < 1e-8
        rho = result.final_state
        assert rho.shape == (27, 27) and not rho.flags.writeable
        assert np.abs(rho - rho.conj().T).max() < 1e-9
        assert abs(np.trace(rho) - 1.0) < 1e-8
        assert np.linalg.eigvalsh(rho).min() >= -1e-7

    def test_magnetization_conserved_in_free_evolution(self, chain3, lossless_params):
        seq = PulseSequence(segments=(PulseSegment.free(5.0),))
        times = np.linspace(0.0, 5.0, 26)
        result = run_sequence(seq, chain3, lossless_params, sample_times=times,
                              initial="udd")
        labels = level_labels(3)
        weights = np.array([s.count("u") - s.count("d") for s in labels], dtype=float)
        magnetization = result.populations @ weights
        assert np.abs(magnetization - magnetization[0]).max() < 1e-8

    def test_segment_boundary_continuity(self, chain3, params):
        seq = PulseSequence(
            segments=(PulseSegment.optical(0.0943), PulseSegment.free(1.0))
        )
        eps = 5e-4
        times = [0.0943 - eps, 0.0943, 0.0943 + eps]
        result = run_sequence(seq, chain3, params, sample_times=times)
        jump = np.abs(np.diff(result.populations, axis=0)).max()
        # bounded by the drive slew over eps: d(pop)/dt <= 2 pi Omega
        assert jump < 2 * np.pi * 5.3 * eps * 2

    def test_dt_convergence_on_halving(self, chain3, params):
        prefix = exchange_prefix(params, 3)
        seq = PulseSequence(segments=(*prefix, PulseSegment.free(1.5),
                                      *deexcite_suffix(params, 3)))
        times = np.linspace(0.0, seq.total_duration, 25)
        sample = sample_thermal(PhysicalParams(temperature=50.0), 3, seed=21)
        coarse = run_sequence(seq, chain3, params, trajectories=sample,
                              sample_times=times)
        fine = run_sequence(seq, chain3, params, trajectories=sample,
                            sample_times=times, dt_scale=0.5)
        assert np.abs(coarse.populations - fine.populations).max() < 1e-6

    # Without loss the states stay nearly pure, so an integration error shows
    # as a negative eigenvalue: fixed-step RK4 reached -1.19e-7 at the end of
    # this prefix and -1.5e-7 to -2.0e-7 in this free flight, past the -1e-7
    # tolerance of the positivity check.
    def test_lossless_exchange_prefix_completes(self, chain3, lossless_params):
        seq = PulseSequence(segments=exchange_prefix(lossless_params, 3))
        result = run_sequence(seq, chain3, lossless_params)
        assert result.max_trace_deviation < 1e-8

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_lossless_moving_free_evolution_completes(self, chain3, lossless_params, seed):
        sample = sample_thermal(PhysicalParams(temperature=50.0), 3, seed)
        seq = PulseSequence(segments=(PulseSegment.free(2.0),))
        result = run_sequence(seq, chain3, lossless_params, trajectories=sample,
                              sample_times=np.linspace(0.0, 2.0, 9), initial="udd")
        assert result.max_trace_deviation < 1e-8

    def test_non_hermitian_initial_refused(self, pair30, params):
        rho = basis_rho("ud")
        ud, du = basis_index("ud"), basis_index("du")
        rho[ud, du] = 0.1j  # without its conjugate partner at (du, ud)
        seq = PulseSequence(segments=(PulseSegment.free(0.1),))
        with pytest.raises(ConfigError, match="Hermitian"):
            run_sequence(seq, pair30, params, initial=rho)

    def test_invalid_sample_times_rejected(self, chain3, params):
        seq = PulseSequence(segments=(PulseSegment.free(1.0),))
        with pytest.raises(ConfigError):
            run_sequence(seq, chain3, params, sample_times=[2.0])

    def test_atom_cap_enforced(self, params):
        geom = ChainGeometry.line(7, 20.0)
        seq = PulseSequence(segments=(PulseSegment.free(1.0),))
        with pytest.raises(ConfigError, match="capped"):
            run_sequence(seq, geom, params)


class TestReadoutScan:
    def test_matches_separate_full_runs(self, pair30, params):
        taus = np.array([0.5, 1.5])
        prefix = exchange_prefix(params, 2)
        suffix = deexcite_suffix(params, 2)
        scan = readout_scan(pair30, params, prefix, taus, suffix)
        for k, tau in enumerate(taus):
            seq = PulseSequence(segments=(*prefix, PulseSegment.free(tau), *suffix))
            result = run_sequence(seq, pair30, params,
                                  sample_times=[seq.total_duration])
            assert np.abs(scan.populations[0, k] - result.populations[-1]).max() < 1e-9

    # the scan plans the free evolution once over all taus, each full run over
    # its own tau, so moving atoms take different steps in the two (the gaps
    # were 2.0e-9 at N = 2 and 1.1e-8 at N = 3)
    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_moving_atoms_match_separate_full_runs(self, n_atoms, pair30, chain3, params):
        geometry = pair30 if n_atoms == 2 else chain3
        samples = [sample_thermal(params, n_atoms, s) for s in (1, 2)]
        taus = np.array([0.05, 0.5, 1.5])
        prefix = exchange_prefix(params, n_atoms)
        suffix = deexcite_suffix(params, n_atoms)
        scan = readout_scan(geometry, params, prefix, taus, suffix, samples)
        for b, sample in enumerate(samples):
            for k, tau in enumerate(taus):
                seq = PulseSequence(segments=(*prefix, PulseSegment.free(tau), *suffix))
                result = run_sequence(seq, geometry, params, sample,
                                      sample_times=[seq.total_duration])
                gap = np.abs(scan.populations[b, k] - result.populations[-1]).max()
                assert gap < 1e-7, (b, tau)

    def test_batched_trajectories(self, chain3, params):
        taus = np.array([0.5, 1.0])
        samples = [sample_thermal(params, 3, s) for s in (1, 2, 3)]
        prefix = exchange_prefix(params, 3)
        suffix = deexcite_suffix(params, 3)
        scan = readout_scan(chain3, params, prefix, taus, suffix, trajectories=samples)
        assert scan.populations.shape == (3, 2, 27)
        single = readout_scan(chain3, params, prefix, taus, suffix,
                              trajectories=samples[1])
        # the batch shares one step size, so agreement is at integration
        # tolerance rather than bitwise
        assert np.abs(scan.populations[1] - single.populations[0]).max() < 5e-8

    def test_pass_through_rejected(self, pair30, params):
        # atom 0 reaches atom 1 at t = 10 us, inside the free evolution
        sample = ThermalSample(
            displacements=np.zeros((2, 3)),
            velocities=[[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            seed=0,
        )
        with pytest.raises(GeometryError):
            readout_scan(pair30, params, [], [12.0], [], trajectories=sample, initial="ud")

    # at 10 um the couplings, not the drive, set the readout step, so a step
    # plan that depended on the chunk would show
    @pytest.mark.parametrize(
        "n_atoms, spacing, moving, with_suffix",
        [
            (2, 10.0, True, True),
            (3, 20.0, False, True),
            (3, 20.0, True, True),
            (2, 20.0, True, False),
        ],
        ids=["moving-n2", "static-n3", "moving-n3", "empty-suffix"],
    )
    def test_chunk_size_does_not_change_output(
        self, n_atoms, spacing, moving, with_suffix, params, monkeypatch
    ):
        geometry = ChainGeometry.line(n_atoms, spacing)
        samples = [sample_thermal(params, n_atoms, s) for s in (4, 5)] if moving else None
        suffix = deexcite_suffix(params, n_atoms) if with_suffix else []
        initial = "u" + "d" * (n_atoms - 1)
        taus = np.linspace(0.0, 0.4, 5)
        batch = 2 if moving else 1
        entries = obe._dense_operators(n_atoms).blocks.entries
        per_branch = obe._ARRAYS_PER_BRANCH * batch * entries * np.dtype(float).itemsize
        scans = []
        # one branch at a time, two at a time (the last chunk partial), all at once
        for budget, chunk in ((0, 1), (2 * per_branch, 2), (10**9, taus.size)):
            monkeypatch.setattr(obe, "_BRANCH_BUDGET_BYTES", budget)
            assert min(obe._branch_chunk(batch, n_atoms), taus.size) == chunk
            scans.append(readout_scan(geometry, params, [], taus, suffix, samples, initial))
        for scan in scans[1:]:
            assert np.array_equal(scan.populations, scans[0].populations)
            assert scan.max_trace_deviation == scans[0].max_trace_deviation

    def test_production_batch_runs_one_branch_at_a_time(self):
        # a branch holds the down-number blocks: 33 entries at N = 2, 245 at 3
        assert obe._branch_chunk(100, 2) == 4
        for n_atoms in range(3, 7):
            assert obe._branch_chunk(100, n_atoms) == 1
        assert obe._branch_chunk(10, 2) > 1

    def test_branch_memory_is_bounded(self, chain3, params):
        samples = [sample_thermal(params, 3, s) for s in (1, 2)]
        suffix = deexcite_suffix(params, 3)
        taus = np.linspace(0.0, 0.15, 30)
        readout_scan(chain3, params, [], taus[:2], suffix, samples, "udd")  # operator tables
        tracemalloc.start()
        try:
            scan = readout_scan(chain3, params, [], taus, suffix, samples, "udd")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        inputs = taus.nbytes + sum(s.displacements.nbytes + s.velocities.nbytes
                                   for s in samples)
        outputs = (scan.populations.nbytes + scan.tau_grid.nbytes
                   + scan.total_durations.nbytes)
        # all 30 branches at once would hold about 6.5 MB
        assert peak < obe._BRANCH_BUDGET_BYTES + inputs + outputs

    @pytest.mark.parametrize("moving", [True, False], ids=["approach", "static"])
    def test_under_reported_coupling_bound_raises(self, pair30, params, moving,
                                                  monkeypatch):
        # atom 0 passes 2 um from atom 1 at t = 10 us; a bound read at the
        # window start alone misses the approach.  At rest the bound is zero.
        sample = ThermalSample(
            displacements=[[0.0, 2.0 if moving else 0.0, 0.0], [0.0, 0.0, 0.0]],
            velocities=[[3.0 if moving else 0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
            seed=0,
        )
        monkeypatch.setattr(
            PairFlight,
            "bound",
            lambda flight, t_lo, t_hi: (
                float(np.abs(flight.couplings(t_lo)).max()) if moving else 0.0
            ),
        )
        with pytest.raises(IntegrationError, match="step size violation") as err:
            readout_scan(pair30, params, [], [12.0], [], trajectories=sample,
                         initial="ud")
        t_raised = float(re.search(r"at t = (\S+) us", str(err.value)).group(1))
        assert t_raised < 10.0

    def test_empty_trajectory_list_refused(self, pair30, params):
        with pytest.raises(ConfigError, match="at least one realization"):
            readout_scan(pair30, params, [], [0.5], [], trajectories=[])

    @pytest.mark.parametrize("taus", [[], [0.5, 0.5], [-0.1, 0.2]])
    def test_bad_tau_grid_rejected(self, pair30, params, taus):
        with pytest.raises(ConfigError, match="tau grid"):
            readout_scan(pair30, params, [], taus, [])

    def test_static_lossy_pair_matches_liouvillian_exponential(self, rng):
        # imaginary coherences between 'ud' and 'du' drive the exchange, so a
        # state that lost them would evolve differently
        params = PhysicalParams(gamma_up=0.3, gamma_down=0.2, temperature=0.0)
        geometry = ChainGeometry.line(2, 10.0)
        ud, du = basis_index("ud"), basis_index("du")
        psi = np.zeros(9, dtype=complex)
        psi[ud], psi[du] = 0.8, 0.6j
        a = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        mixed = a @ a.conj().T
        rho0 = 0.7 * np.outer(psi, psi.conj()) + 0.3 * mixed / np.trace(mixed)
        taus = np.array([0.0, 0.2, 0.45, 0.9])
        scan = readout_scan(geometry, params, [], taus, [], initial=rho0)
        generator = liouvillian(PulseSegment.free(1.0), params, geometry)

        def exact(rho):
            return np.array([
                np.diagonal((expm(generator * tau) @ rho.reshape(-1)).reshape(9, 9)).real
                for tau in taus
            ])

        assert np.abs(scan.populations[0] - exact(rho0)).max() < 1e-6
        assert np.abs(exact(rho0) - exact(rho0.real)).max() > 0.1

    # the scan keeps the down-number blocks after its prefix; the same scan on
    # the full state must give the same populations
    @pytest.mark.parametrize("with_suffix", [True, False], ids=["suffix", "no-suffix"])
    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_blocks_match_the_full_state(self, n_atoms, moving, with_suffix, params,
                                         monkeypatch):
        geometry = ChainGeometry.line(n_atoms, 20.0)
        samples = [sample_thermal(params, n_atoms, s) for s in (1, 2)] if moving else None
        args = (geometry, params, exchange_prefix(params, n_atoms), np.linspace(0.0, 1.0, 6),
                deexcite_suffix(params, n_atoms) if with_suffix else [], samples)
        blocked = readout_scan(*args)
        # full states, one branch at a time: the scratch holds the batch in
        # the full layout, and more branches only in the blocks
        monkeypatch.setattr(_Engine, "to_blocks", lambda engine, m: m)
        monkeypatch.setattr(obe, "_BRANCH_BUDGET_BYTES", 0)
        full = readout_scan(*args)
        assert np.abs(blocked.populations - full.populations).max() < 1e-12
        assert abs(blocked.max_trace_deviation - full.max_trace_deviation) < 1e-12

    def test_microwave_suffix_refused_before_any_work(self, pair30, params, monkeypatch):
        def advance(*args, **kwargs):
            raise AssertionError("the scan started before its suffix was checked")

        monkeypatch.setattr(_Engine, "_advance", advance)
        suffix = [PulseSegment.optical(0.1), PulseSegment.microwave(0.1)]
        with pytest.raises(ConfigError, match="microwave"):
            readout_scan(pair30, params, exchange_prefix(params, 2), [0.5], suffix)

    def test_total_durations(self, pair30, params):
        taus = np.array([0.0, 1.0])
        prefix = exchange_prefix(params, 2)
        suffix = deexcite_suffix(params, 2)
        scan = readout_scan(pair30, params, prefix, taus, suffix)
        overhead = sum(s.duration for s in prefix) + sum(s.duration for s in suffix)
        assert np.allclose(scan.total_durations, taus + overhead)


class TestExponentialStep:
    """The Taylor and CF4 steps against dense exponentials of the oracle
    Liouvillian."""

    @staticmethod
    def segments(n_atoms):
        """Every segment kind, the addressed optical pulse masking atom 0."""
        mask = tuple(k == 0 for k in range(n_atoms))
        return (PulseSegment.optical(0.0943, mask), PulseSegment.optical(0.0943),
                PulseSegment.microwave(0.1087), PulseSegment.free(1.0))

    @staticmethod
    def packed_norm(generator) -> float:
        """Induced infinity norm of the real map M -> Re + Im of
        ``generator`` applied to rho = (M + M^T)/2 + i (M - M^T)/2."""
        d = round(np.sqrt(len(generator)))
        transpose = np.eye(d * d)[np.arange(d * d).reshape(d, d).T.reshape(-1)]
        unpack = 0.5 * (np.eye(d * d) + transpose) + 0.5j * (np.eye(d * d) - transpose)
        product = generator @ unpack
        return float(np.abs(product.real + product.imag).sum(axis=1).max())

    # fixed-step RK4 missed this bound by 7e-11 to 6e-8 on every case here
    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_at_rest_matches_liouvillian_exponential(self, n_atoms, params, rng):
        geometry = ChainGeometry.line(n_atoms, 20.0)
        d = 3**n_atoms
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho0 = a @ a.conj().T / np.trace(a @ a.conj().T)
        for segment in self.segments(n_atoms):
            result = run_sequence(PulseSequence((segment,)), geometry, params, initial=rho0)
            generator = liouvillian(segment, params, geometry)
            exact = (expm(generator * segment.duration) @ rho0.reshape(-1)).reshape(d, d)
            assert np.abs(result.final_state - exact).max() < 1e-13, segment

    @pytest.mark.parametrize("moving", [False, True], ids=["static", "moving"])
    @pytest.mark.parametrize("n_atoms", [2, 3])
    def test_norm_bound_covers_the_dense_generator(self, n_atoms, moving, params):
        """At rest the generator is L itself; a CF4 factor applies
        2 (a L(t1) + b L(t2)) from the Liouvillians at the Gauss points,
        checked here at the first, a middle and the last step.  The bound is
        also held within a factor of two, since the work grows with it."""
        geometry = ChainGeometry.line(n_atoms, 10.0)
        samples = [sample_thermal(params, n_atoms, s) for s in (3, 4)] if moving else None
        engine = _Engine(geometry, params, samples)
        a1, a2 = (3.0 - 2.0 * np.sqrt(3.0)) / 12.0, (3.0 + 2.0 * np.sqrt(3.0)) / 12.0
        nodes = (0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0)
        eye = np.eye(engine.d)
        for segment in self.segments(n_atoms):
            cache = engine._segment_cache(segment, np.full(engine.batch, 0.5))
            at_rest = liouvillian(segment, params, geometry)
            generators = [at_rest]
            if moving:
                h_rest = hamiltonian_at(0.0, segment, params, geometry)

                # L(t) is L at rest with the Hamiltonian at t in its commutator
                def at(t, sample):
                    h = hamiltonian_at(t, segment, params, geometry, sample) - h_rest
                    return at_rest - 2j * np.pi * (np.kron(h, eye) - np.kron(eye, h.T))

                n_steps = int(np.ceil(segment.duration / cache.dt))
                h = segment.duration / n_steps
                generators = []
                for start in sorted({0, n_steps // 2, n_steps - 1}):
                    t1, t2 = (0.5 + (start + node) * h for node in nodes)
                    for sample in samples:
                        l1, l2 = at(t1, sample), at(t2, sample)
                        generators += [2 * a2 * l1 + 2 * a1 * l2, 2 * a1 * l1 + 2 * a2 * l2]
            for generator in generators:
                norm = self.packed_norm(generator)
                assert norm <= cache.norm < 2.0 * norm, segment

    # RK4's error broke the positivity check on these runs
    @pytest.mark.parametrize("labels", ["udd", "uddd"])
    def test_lossless_moving_free_evolution_matches_xy(self, labels, lossless_params):
        n = len(labels)
        geometry = ChainGeometry.line(n, 20.0)
        samples = [sample_thermal(PhysicalParams(temperature=50.0), n, s) for s in (0, 1, 2)]
        taus = np.linspace(0.25, 3.0, 12)
        scan = readout_scan(geometry, lossless_params, [], taus, [], samples, labels)
        expected = xy.propagate_ensemble(geometry, lossless_params, samples, "full",
                                         xy.SpinState.excitation_at(n, 0), taus)
        spin_states = [labels[-k:] + labels[:-k] for k in range(n)]
        observed = scan.populations[..., [basis_index(s) for s in spin_states]]
        assert np.abs(observed.transpose(0, 2, 1) - expected).max() < 1e-6
        assert scan.max_trace_deviation < 1e-8


    def test_hot_atoms_default_steps_match_fine_steps(self):
        """An accuracy guard on the step rule: three hot atoms at 20 um,
        through the exchange prefix, 2 us of free evolution and the readout.
        The default steps landed 3.8e-8 from 1/8 of them; steps twice as
        long land 7.4e-7, four times as long 1.4e-5."""
        params = PhysicalParams(temperature=300.0)
        geometry = ChainGeometry.line(3, 20.0)
        samples = [sample_thermal(params, 3, s) for s in (0, 1, 2)]
        args = (geometry, params, exchange_prefix(params, 3), np.linspace(0.0, 2.0, 11),
                deexcite_suffix(params, 3), samples)
        default = readout_scan(*args)
        fine = readout_scan(*args, dt_scale=1 / 8)
        assert np.abs(default.populations - fine.populations).max() < 1e-6


class TestReadoutProjection:
    def test_labels(self):
        # the level order of the master equation is the order the readout reads
        assert level_labels(2)[basis_index("ud")] == "ud"
        assert pattern_labels(2) == ["00", "01", "10", "11"]
        pops = np.zeros(9)
        pops[basis_index("gd")] = 1.0
        assert pattern_labels(2)[int(np.argmax(forward_detection(pops, 0.0)))] == "10"


class TestCheckState:
    def test_positivity_violation_raises_with_time(self, chain3):
        # force a huge step by disabling step control via dt_scale is not
        # possible; instead check the guard directly on a negative matrix
        engine = _Engine(chain3, PhysicalParams())
        rho = basis_rho("ggg")[None].copy()
        rho[0, 0, 0] = -1e-5
        rho[0, 1, 1] = 1.0 + 1e-5
        with pytest.raises(IntegrationError, match="t = 1.25"):
            engine.check_state(pack_state(rho).reshape(-1), np.array([1.25]))

    def test_positivity_sees_the_imaginary_coherences(self, pair30):
        # diagonal 1/2, 1/2 and coherence 0.3 + 0.45i: |coherence| = 0.54 > 1/2,
        # so rho has a negative eigenvalue that its real part alone lacks
        ud, du = basis_index("ud"), basis_index("du")
        rho = np.zeros((9, 9), dtype=complex)
        rho[ud, ud] = rho[du, du] = 0.5
        rho[ud, du], rho[du, ud] = 0.3 + 0.45j, 0.3 - 0.45j
        assert np.linalg.eigvalsh(rho.real).min() > -1e-15
        engine = _Engine(pair30, PhysicalParams())
        with pytest.raises(IntegrationError, match="positivity"):
            engine.check_state(pack_state(rho).reshape(-1), 0.0)

    @staticmethod
    def dipped(labels, depth):
        """A mixture of 'ud' and 'du' whose 'uu' population is -depth, so its
        smallest eigenvalue is -depth and its trace 1."""
        rho = 0.5 * (basis_rho("ud") + basis_rho("du"))
        rho[basis_index(labels), basis_index(labels)] -= depth
        rho[basis_index("ud"), basis_index("ud")] += depth
        return rho

    def test_positivity_names_the_one_dipping_row(self, pair30):
        # the Cholesky screen fails for the whole stack; the refusal names
        # the row below -1e-7, its time and its eigenvalue
        engine = _Engine(pair30, PhysicalParams())
        stack = np.stack([self.dipped("uu", 0.0), self.dipped("uu", 2e-7),
                          self.dipped("uu", 5e-8)])
        with pytest.raises(IntegrationError) as err:
            engine.check_state(pack_state(stack).reshape(-1), np.array([0.25, 0.75, 1.25]))
        assert str(err.value) == (
            "density matrix positivity violated at t = 0.75 us (min eigenvalue -2e-07)"
        )

    def test_positivity_names_the_row_whose_block_dips(self, pair30):
        # on the down-number blocks, the 1 x 1 block 'dd' of the second row
        # dips below -1e-7 and the 'uu' entry of the third, in another
        # block, stays above it
        engine = _Engine(pair30, PhysicalParams())
        stack = np.stack([self.dipped("uu", 0.0), self.dipped("dd", 2e-7),
                          self.dipped("uu", 5e-8)])
        m = engine.to_blocks(pack_state(stack).reshape(-1))
        with pytest.raises(IntegrationError) as err:
            engine.check_state(m, np.array([0.25, 0.75, 1.25]))
        assert str(err.value) == (
            "density matrix positivity violated at t = 0.75 us (min eigenvalue -2e-07)"
        )

    def test_eigenvalue_above_the_tolerance_passes(self, pair30):
        engine = _Engine(pair30, PhysicalParams())
        state = pack_state(self.dipped("uu", 5e-8)).reshape(-1)
        assert np.linalg.eigvalsh(self.dipped("uu", 5e-8)).min() < -4e-8
        assert engine.check_state(state, 0.5) < 1e-15

    def test_passing_stack_returns_its_trace_deviation(self, pair30):
        engine = _Engine(pair30, PhysicalParams())
        stack = np.stack([self.dipped("uu", 0.0), self.dipped("gg", 3e-8),
                          self.dipped("uu", 0.0)])
        stack[0] *= 1.0 + 4e-9
        stack[2] *= 1.0 - 7e-9
        m = pack_state(stack)
        expected = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
        assert expected > 6e-9
        assert engine.check_state(m.reshape(-1), np.zeros(3)) == expected
