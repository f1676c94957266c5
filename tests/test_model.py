import numpy as np
import pytest

from xychain.errors import ConfigError, GeometryError, IntegrationError
from xychain.model import (
    DEFAULT_C3,
    MAGIC_ANGLE,
    PHASE_CAP,
    ChainGeometry,
    PairFlight,
    PhysicalParams,
    angular_c3,
    pair_coupling,
    to_angular,
    to_ordinary,
    validate,
)
from xychain.thermal import free_flight, sample_thermal

A20 = 7965.0 / 20**3  # nearest-neighbor coupling at 20 um


class TestUnits:
    def test_round_trip_is_machine_exact(self, rng):
        nu = rng.uniform(1e-3, 1e3, size=200)
        back = to_ordinary(to_angular(nu))
        assert np.all(np.abs(back - nu) <= 2 * np.finfo(float).eps * np.abs(nu))

    def test_one_mhz_is_one_cycle_per_us(self):
        assert to_angular(1.0) == pytest.approx(2 * np.pi)


class TestAngularC3:
    def test_magic_angle_zeroes_the_coupling(self):
        assert angular_c3(1.0, MAGIC_ANGLE) == pytest.approx(0.0, abs=1e-15)
        assert angular_c3(1.0, -MAGIC_ANGLE) == pytest.approx(0.0, abs=1e-15)

    def test_perpendicular_geometry(self):
        assert angular_c3(1.0, np.pi / 2) == pytest.approx(1.0)

    def test_on_axis_value_matches_effective_coefficient(self):
        # prefactor solving c3_tilde * (1 - 3 cos^2 0) = 7965
        assert angular_c3(-3982.5, 0.0) == pytest.approx(7965.0)

    def test_even_in_theta(self, rng):
        for theta in rng.uniform(-np.pi, np.pi, size=50):
            assert angular_c3(2.7, theta) == pytest.approx(angular_c3(2.7, -theta))


class TestPairCoupling:
    def test_30um_value(self, pair30, params):
        assert pair_coupling(pair30, params, 0, 1) == pytest.approx(7965.0 / 30**3)
        assert pair_coupling(pair30, params, 0, 1) == pytest.approx(0.295)

    def test_20um_value(self, chain3, params):
        assert pair_coupling(chain3, params, 0, 1) == pytest.approx(7965.0 / 20**3)

    def test_symmetric_under_swap(self, chain3, params, rng):
        for _ in range(10):
            disp = rng.normal(0, 0.2, size=(2, 3))
            forward = pair_coupling(chain3, params, 0, 2, disp[0], disp[1])
            backward = pair_coupling(chain3, params, 2, 0, disp[1], disp[0])
            assert forward == pytest.approx(backward, rel=1e-15)

    def test_dilation_scales_as_inverse_cube(self, params, rng):
        for _ in range(10):
            pos = rng.uniform(-30, 30, size=(4, 3))
            scale = rng.uniform(0.5, 3.0)
            g1 = ChainGeometry(positions=pos)
            g2 = ChainGeometry(positions=pos * scale)
            for i, j in [(0, 1), (1, 3), (0, 2)]:
                v1 = pair_coupling(g1, params, i, j)
                v2 = pair_coupling(g2, params, i, j)
                assert v2 == pytest.approx(v1 / scale**3, rel=1e-12)

    def test_displacements_enter_the_distance(self, pair30, params):
        value = pair_coupling(pair30, params, 0, 1, displacement_j=(2.0, 0.0, 0.0))
        assert value == pytest.approx(7965.0 / 32.0**3)

    def test_coincident_atoms_rejected(self, params):
        geom = ChainGeometry(positions=[[0, 0, 0], [1, 0, 0]])
        with pytest.raises(GeometryError):
            pair_coupling(geom, params, 0, 1, displacement_i=(1.0, 0.0, 0.0))
        with pytest.raises(GeometryError):
            pair_coupling(geom, params, 0, 0)


class TestPairFlight:
    def test_couplings_match_pair_coupling_under_free_flight(self, params):
        geometry = ChainGeometry.line(4, 20.0)
        hot = PhysicalParams(temperature=50.0)
        samples = [sample_thermal(hot, 4, seed) for seed in (1, 2, 3)]
        flight = PairFlight(
            geometry,
            params,
            np.stack([s.displacements for s in samples]),
            np.stack([s.velocities for s in samples]),
        )
        assert flight.pairs.shape == (6, 2)
        assert not flight.static
        for t in (0.0, 2.5, 9.0):
            nu = flight.couplings(t)
            rel = flight._rel0 + flight._relv * t                 # (3, B, P)
            assert np.array_equal(nu, flight.c3 / np.linalg.norm(rel, axis=0) ** 3)
            for b, sample in enumerate(samples):
                disp = free_flight(sample, t)
                for p, (i, j) in enumerate(flight.pairs):
                    expected = pair_coupling(geometry, params, i, j, disp[i], disp[j])
                    assert nu[b, p] == pytest.approx(expected, rel=1e-12)

    def test_stacked_times_give_stacked_couplings(self, params, rng):
        # (copies, B) times, as the readout branches of a scan use them
        geometry = ChainGeometry.line(3, 20.0)
        flight = PairFlight(geometry, params, rng.normal(0.0, 0.5, size=(2, 3, 3)),
                            rng.normal(0.0, 1.0, size=(2, 3, 3)))
        t = np.array([[0.5, 1.5], [2.0, 3.0], [4.0, 0.0]])
        stacked = flight.couplings(t)
        assert stacked.shape == (3, 2, 3)
        for copy, t_copy in enumerate(t):
            assert np.array_equal(stacked[copy], flight.couplings(t_copy))

    def test_at_rest_is_static(self, chain3, params):
        flight = PairFlight(chain3, params)
        assert flight.static
        assert flight.couplings(5.0)[0] == pytest.approx([A20, A20 / 8, A20])
        assert flight.bound(0.0, 5.0) == pytest.approx(A20, rel=1e-15)

    def test_bound_covers_a_dense_grid(self, params, rng):
        geometry = ChainGeometry.line(4, 6.0)
        disp = rng.normal(0.0, 0.5, size=(3, 4, 3))
        vel = rng.normal(0.0, 1.0, size=(3, 4, 3))
        flight = PairFlight(geometry, params, disp, vel)
        grid = np.linspace(1.0, 6.0, 5001)
        # each realization's bound covers its own peak
        peak = np.max([flight.couplings(t).max(axis=1) for t in grid], axis=0)
        assert np.all(flight.bound(1.0, 6.0) >= peak)
        # per-realization window starts, as the master-equation batch uses
        assert np.array_equal(
            flight.bound(np.full(3, 1.0), np.full(3, 6.0)), flight.bound(1.0, 6.0)
        )

    def test_bound_is_exact_at_an_interior_vertex(self, params):
        # atom 0 flies past atom 1 at impact parameter 5 um; closest at t = 10
        geometry = ChainGeometry(positions=[[0.0, 0.0, 0.0], [30.0, 5.0, 0.0]])
        vel = np.array([[[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        flight = PairFlight(geometry, params, velocities=vel)
        grid = np.linspace(2.0, 16.0, 1401)
        peak = max(float(flight.couplings(t).max()) for t in grid)
        assert flight.bound(2.0, 16.0) >= peak
        assert flight.bound(2.0, 16.0) == pytest.approx(params.c3 / 5.0**3, rel=1e-12)
        assert peak == pytest.approx(params.c3 / 5.0**3, rel=1e-12)
        # vertex outside the window: the nearer endpoint decides
        assert flight.bound(0.0, 6.0) == pytest.approx(
            float(flight.couplings(6.0).max()), rel=1e-12
        )

    def test_coincidence_rejected(self, params):
        geometry = ChainGeometry.line(2, 30.0)
        vel = np.array([[[3.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        flight = PairFlight(geometry, params, velocities=vel)
        assert flight.bound(0.0, 9.0) > 0.0
        with pytest.raises(GeometryError, match="atoms 0 and 1"):
            flight.bound(0.0, 12.0)
        with pytest.raises(GeometryError, match="atoms 0 and 1"):
            flight.couplings(10.0)
        with pytest.raises(GeometryError, match="atoms 0 and 1"):
            flight.couplings(np.array([[0.0], [10.0]]))
        # a step to check does not hide the coincidence
        with pytest.raises(GeometryError, match="atoms 0 and 1"):
            flight.couplings(10.0, step=1e-9)

    def test_step_check_names_the_earliest_step_then_row(self, params):
        # atom 0 approaches atom 1 at 1 um/us in row 0 and 2 um/us in row 1;
        # at these (S, B) times the pairs sit 29, 24, 21 um apart in row 0
        # and 30, 20, 26 um in row 1
        geometry = ChainGeometry.line(2, 30.0)
        vel = np.array([[[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                        [[2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])
        flight = PairFlight(geometry, params, velocities=vel)
        t = np.array([[1.0, 0.0], [6.0, 5.0], [9.0, 2.0]])

        def cap(r):
            """The step whose phase reaches PHASE_CAP at separation r."""
            return PHASE_CAP / (2.0 * np.pi * params.c3 / r**3)

        nu = flight.couplings(t)
        assert np.array_equal(flight.couplings(t, cap(20.0) * (1.0 - 1e-9)), nu)
        for r, named in ((20.0, 5.0), (21.0, 5.0), (24.0, 6.0)):
            # 20 um: only (1, 1); 21 um: also (2, 0), a later step; 24 um:
            # also (1, 0), the same step in an earlier row
            with pytest.raises(IntegrationError, match=f"violation at t = {named:g} us"):
                flight.couplings(t, cap(r) * (1.0 + 1e-9))
        # a step per time: only the one of (2, 1) is too long
        step = np.zeros_like(t)
        step[2, 1] = cap(26.0) * (1.0 + 1e-9)
        with pytest.raises(IntegrationError, match=r"at t = 2 us: 2\*pi\*nu_max\*dt = 0.05 "):
            flight.couplings(t, step)
        step[2, 1] *= 1.0 - 2e-9
        assert np.array_equal(flight.couplings(t, step), nu)

    def test_one_atom_has_no_couplings(self, params):
        flight = PairFlight.of_samples(ChainGeometry.line(1, 20.0), params, [None, None])
        nu = flight.couplings(np.zeros((4, 2)), step=1e6)
        assert nu.shape == (4, 2, 0)

    def test_of_samples_at_rest_is_static(self, chain3, params):
        flight = PairFlight.of_samples(chain3, params, [None, None])
        zeros = PairFlight(chain3, params, np.zeros((2, 3, 3)), np.zeros((2, 3, 3)))
        assert flight.static
        assert np.array_equal(flight.couplings(2.0), zeros.couplings(2.0))

    def test_of_samples_stacks_and_validates(self, chain3, params):
        hot = PhysicalParams(temperature=50.0)
        samples = [sample_thermal(hot, 3, 1), None]
        flight = PairFlight.of_samples(chain3, params, samples)
        explicit = PairFlight(chain3, params,
                              np.stack([samples[0].displacements, np.zeros((3, 3))]),
                              np.stack([samples[0].velocities, np.zeros((3, 3))]))
        assert np.array_equal(flight.couplings(1.5), explicit.couplings(1.5))
        with pytest.raises(ConfigError, match="at least one realization"):
            PairFlight.of_samples(chain3, params, [])
        with pytest.raises(ConfigError, match="does not match"):
            PairFlight.of_samples(chain3, params, [sample_thermal(hot, 2, 1)])


class TestValidate:
    def test_valid_setup_is_clean(self, chain3, params):
        assert validate(chain3, params) == []

    def test_coincident_atoms_flagged(self, params):
        geom = ChainGeometry(positions=[[0, 0, 0], [0, 0, 0], [20, 0, 0]])
        issues = validate(geom, params)
        assert any("singular geometry" in msg for msg in issues)

    def test_negative_rate_flagged(self, chain3):
        issues = validate(chain3, PhysicalParams(gamma_up=-0.01))
        assert any("non-physical rate" in msg for msg in issues)

    def test_zero_trap_frequency_with_temperature_flagged(self, chain3):
        issues = validate(chain3, PhysicalParams(temperature=50.0, omega_perp=0.0))
        assert any("omega_perp" in msg for msg in issues)


class TestTypes:
    def test_defaults_match_reference_values(self, params):
        assert params.c3 == DEFAULT_C3
        assert 1.0 / params.gamma_up == pytest.approx(101.0)
        assert 1.0 / params.gamma_down == pytest.approx(135.0)
        assert params.omega_opt == pytest.approx(5.3)
        assert params.omega_mw == pytest.approx(4.6)

    def test_per_atom_broadcast(self, params):
        assert np.allclose(params.omega_opt_per_atom(3), [5.3, 5.3, 5.3])
        custom = PhysicalParams(omega_opt=(5.2, 5.3, 5.4))
        assert np.allclose(custom.omega_opt_per_atom(3), [5.2, 5.3, 5.4])
        with pytest.raises(ValueError):
            custom.omega_opt_per_atom(2)

    # a complex drive would make the master-equation Hamiltonian non-Hermitian
    @pytest.mark.parametrize(
        "field, value",
        [("omega_mw", 4.6 + 0.3j), ("omega_opt", [5.3, 4.0 + 0.1j]), ("gamma_down", 0.01j)],
    )
    def test_complex_values_refused(self, field, value):
        with pytest.raises(ConfigError, match=f"params.{field} must be real"):
            PhysicalParams(**{field: value})

    def test_geometry_is_immutable(self, chain3):
        with pytest.raises(ValueError):
            chain3.positions[0, 0] = 1.0

    def test_line_factory(self):
        geom = ChainGeometry.line(4, 20.0)
        assert geom.n_atoms == 4
        sep = geom.separations()
        assert sep[0, 3] == pytest.approx(60.0)
        assert np.allclose(geom.quantization_axis, [1, 0, 0])
