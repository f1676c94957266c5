import numpy as np
import pytest

from xychain.errors import GeometryError, IntegrationError
from xychain.model import PhysicalParams
from xychain.thermal import (
    MonteCarloError,
    ThermalSample,
    realization_seeds,
    recapture_epsilon,
    run_ensemble,
    sample_thermal,
    sigma_position,
    sigma_velocity,
)

from oracles import free_flight


class TestSampling:
    def test_rms_values_match_reference_numbers(self, params):
        # 50 uK in a 2*pi*90 kHz trap: ~120 nm and ~70 nm/us rms
        assert sigma_position(params) == pytest.approx(0.122, abs=2e-3)
        assert sigma_velocity(params) == pytest.approx(0.069, abs=1e-3)

    def test_zero_temperature_is_exactly_at_rest(self):
        sample = sample_thermal(PhysicalParams(temperature=0.0), 3, seed=9)
        assert np.all(sample.displacements == 0.0)
        assert np.all(sample.velocities == 0.0)

    def test_fixed_seed_is_bit_identical(self, params):
        one = sample_thermal(params, 4, seed=77)
        two = sample_thermal(params, 4, seed=77)
        assert np.array_equal(one.displacements, two.displacements)
        assert np.array_equal(one.velocities, two.velocities)

    def test_empirical_moments_converge(self, params):
        n = 100_000
        sample = sample_thermal(params, n, seed=5)
        assert np.std(sample.displacements) == pytest.approx(sigma_position(params), rel=0.02)
        assert np.std(sample.velocities) == pytest.approx(sigma_velocity(params), rel=0.02)


class TestFreeFlight:
    def test_time_zero_returns_initial_displacement(self, params):
        sample = sample_thermal(params, 3, seed=1)
        assert np.array_equal(free_flight(sample, 0.0), sample.displacements)

    def test_linear_motion(self):
        sample = ThermalSample(
            displacements=np.zeros((1, 3)),
            velocities=np.array([[0.07, 0.0, 0.0]]),
            seed=0,
        )
        assert free_flight(sample, 5.0)[0] == pytest.approx([0.35, 0.0, 0.0])

    def test_velocity_contribution_doubles_with_time(self, params):
        sample = sample_thermal(params, 2, seed=2)
        d1 = free_flight(sample, 1.5) - sample.displacements
        d2 = free_flight(sample, 3.0) - sample.displacements
        assert np.allclose(d2, 2.0 * d1)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError):
            free_flight(sample_thermal(params, 2, seed=2), -1.0)


class TestMonteCarlo:
    def test_batch_is_drawn_once_in_seed_order(self, params):
        calls = []

        def run(samples):
            calls.append(samples)
            return "result"

        assert run_ensemble(run, params, 3, 5, 123) == "result"
        [samples] = calls
        assert [s.seed for s in samples] == realization_seeds(123, 5)
        expected = sample_thermal(params, 3, realization_seeds(123, 5)[4])
        assert np.array_equal(samples[4].velocities, expected.velocities)

    def test_zero_temperature_runs_one_chain_at_rest(self):
        calls = []
        run_ensemble(calls.append, PhysicalParams(temperature=0.0), 3, 5, 123)
        assert calls == [[None]]

    def test_seeds_are_deterministic(self):
        assert realization_seeds(42, 5) == realization_seeds(42, 5)
        assert realization_seeds(42, 5) != realization_seeds(43, 5)

    def test_failures_carry_seed_identification(self, params):
        seeds = realization_seeds(7, 3)

        def run(samples):
            if any(s.seed == seeds[1] for s in samples):
                raise GeometryError("atoms 0 and 1 coincide")
            return len(samples)

        with pytest.raises(MonteCarloError, match=rf"realization 1 \(seed {seeds[1]}\)"):
            run_ensemble(run, params, 2, 3, 7)

    def test_failure_only_in_a_batch_names_the_chunk(self, params):
        def run(samples):
            if len(samples) > 1:
                raise IntegrationError("batch too large")
            return len(samples)

        with pytest.raises(MonteCarloError, match=r"realizations 0-2 failed together"):
            run_ensemble(run, params, 2, 3, 7)

    def test_programming_error_is_not_relabelled(self, params):
        calls = []

        def run(samples):
            calls.append(samples)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            run_ensemble(run, params, 2, 3, 7)
        assert len(calls) == 1


class TestRecapture:
    def test_no_flight_deep_trap_keeps_the_atom(self, params):
        eps = recapture_epsilon(params, trap_depth=1e6, t=0.0, n_mc=20_000, seed=3)
        assert eps < 1e-3

    def test_zero_temperature_returns_the_floor(self):
        params = PhysicalParams(temperature=0.0)
        assert recapture_epsilon(params, 100.0, 5.0, 1000, floor=0.013) == 0.013

    def test_monotone_in_time_and_temperature(self):
        depth = 2092.0
        previous = -1.0
        for t in [0.0, 2.0, 4.0, 6.0, 8.0]:
            eps = recapture_epsilon(PhysicalParams(), depth, t, 100_000, seed=8, floor=0.01)
            assert eps >= previous - 1e-3
            previous = eps
        cold = recapture_epsilon(
            PhysicalParams(temperature=10.0), depth, 7.0, 100_000, seed=8, floor=0.01
        )
        hot = recapture_epsilon(
            PhysicalParams(temperature=50.0), depth, 7.0, 100_000, seed=8, floor=0.01
        )
        assert hot > cold

    def test_calibrated_depth_matches_endpoint(self):
        # the bundled trap depth reproduces ~20% loss at 7 us for 50 uK
        eps = recapture_epsilon(PhysicalParams(), 2092.0, 7.0, 400_000, seed=12, floor=0.01)
        assert eps == pytest.approx(0.20, abs=0.01)

