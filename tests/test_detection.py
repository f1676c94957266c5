import numpy as np
import pytest

from oracles import brute_force_detection
from xychain.detection import (
    EpsilonModel,
    fit_epsilon,
    forward_detection,
    loss_partitions,
    pattern_labels,
    scale_excitation_large_n,
)
from xychain.errors import DataError, ExtrapolationWarning


def _pure(labels: str) -> np.ndarray:
    index = 0
    for ch in labels:
        index = 3 * index + {"g": 0, "u": 1, "d": 2}[ch]
    out = np.zeros(3 ** len(labels))
    out[index] = 1.0
    return out


class TestForwardDetection:
    def test_ideal_detection_of_one_ground_atom(self):
        observed = forward_detection(_pure("guu"), epsilon=0.0)
        assert observed[0b100] == pytest.approx(1.0)

    def test_all_ground_partition_at_ten_percent(self):
        observed = forward_detection(_pure("ggg"), epsilon=0.1)
        assert observed[0b111] == pytest.approx(0.729)
        two = observed[0b110] + observed[0b101] + observed[0b011]
        one = observed[0b100] + observed[0b010] + observed[0b001]
        assert two == pytest.approx(0.243)
        assert one == pytest.approx(0.027)
        assert observed[0b000] == pytest.approx(0.001)

    def test_matches_brute_force_enumeration(self, rng):
        for n in (1, 2, 3, 4):
            for epsilon in (0.0, 0.07, 0.2, 0.55, 1.0):
                probs = rng.random(3**n)
                probs /= probs.sum()
                fast = forward_detection(probs, epsilon)
                slow = brute_force_detection(probs, epsilon)
                assert np.abs(fast - slow).max() < 1e-12
                assert fast.sum() == pytest.approx(1.0, abs=1e-9)

    def test_closed_form_partitions_across_epsilon_grid(self):
        for eps in np.linspace(0.0, 1.0, 21):
            observed = forward_detection(_pure("ggg"), float(eps))
            forms = loss_partitions(eps)
            assert observed[0b111] == pytest.approx(forms["all_recaptured"], abs=1e-12)
            assert observed[0b000] == pytest.approx(forms["none_recaptured"], abs=1e-12)
            two = observed[0b110] + observed[0b101] + observed[0b011]
            one = observed[0b100] + observed[0b010] + observed[0b001]
            assert two == pytest.approx(forms["two_recaptured"], abs=1e-12)
            assert one == pytest.approx(forms["one_recaptured"], abs=1e-12)

    def test_product_states_factorize(self, rng):
        # single-atom channels act independently on product inputs
        singles = rng.random((3, 3))
        singles /= singles.sum(axis=1, keepdims=True)
        joint = np.einsum("i,j,k->ijk", *singles).reshape(-1)
        eps = 0.23
        observed = forward_detection(joint, eps)
        per_atom = [forward_detection(s, eps) for s in singles]
        expected = np.einsum("i,j,k->ijk", *per_atom).reshape(-1)
        assert np.abs(observed - expected).max() < 1e-12

    def test_batched_rows_with_epsilon_per_row(self, rng):
        pops = rng.random((4, 5, 27))
        pops /= pops.sum(axis=-1, keepdims=True)
        eps = rng.random((4, 5))
        batched = forward_detection(pops, eps)
        assert batched.shape == (4, 5, 8)
        for i in range(4):
            for j in range(5):
                row = forward_detection(pops[i, j], eps[i, j])
                assert np.array_equal(batched[i, j], row)
                assert np.abs(row - brute_force_detection(pops[i, j], eps[i, j])).max() < 1e-12

    def test_contract_errors(self):
        with pytest.raises(DataError, match="sums to"):
            forward_detection(np.ones(9), 0.1)
        with pytest.raises(DataError, match="sums to"):
            forward_detection(np.stack([_pure("gg"), np.ones(9)]), 0.1)
        with pytest.raises(DataError, match="epsilon"):
            forward_detection(_pure("gg"), 1.5)
        with pytest.raises(DataError, match="one per row"):
            forward_detection(np.stack([_pure("gg")] * 2), [0.1, 0.2, 0.3])
        with pytest.raises(DataError, match="power"):
            forward_detection(np.full(5, 0.2), 0.1)
        with pytest.raises(DataError, match="power"):
            forward_detection(np.full(8, 0.125), 0.1)


class TestTrueReadout:
    """At epsilon = 0 the forward model is the true readout."""

    def test_all_ground_maps_to_all_recaptured(self):
        observed = forward_detection(_pure("ggg"), 0.0)
        assert observed[0b111] == pytest.approx(1.0)

    def test_udd_after_deexcitation_convention(self):
        # readout maps u -> g; a (g, d, d) state reads out as pattern 100
        observed = forward_detection(_pure("gdd"), 0.0)
        assert observed[0b100] == pytest.approx(1.0)
        assert pattern_labels(3)[0b100] == "100"

    def test_marginalization_preserves_normalization(self, rng):
        pops = rng.random((5, 27))
        pops /= pops.sum(axis=1, keepdims=True)
        observed = forward_detection(pops, 0.0)
        assert np.abs(observed.sum(axis=1) - 1.0).max() < 1e-12


class TestEpsilonModel:
    def test_table_interpolates(self):
        model = EpsilonModel.from_table([0.0, 2.0, 4.0], [0.0, 0.1, 0.2])
        assert model(1.0) == pytest.approx(0.05)
        assert model(np.array([0.0, 4.0]))[1] == pytest.approx(0.2)

    def test_extrapolation_warns_and_clips(self):
        model = EpsilonModel.from_polynomial([0.1, 0.0], (0.0, 5.0))
        with pytest.warns(ExtrapolationWarning):
            value = model(50.0)
        assert value == 1.0

    def test_non_monotone_table_warns(self):
        with pytest.warns(UserWarning, match="monotone"):
            EpsilonModel.from_table([0.0, 1.0, 2.0], [0.0, 0.2, 0.1])

    def test_table_validation(self):
        with pytest.raises(DataError):
            EpsilonModel.from_table([0.0, 0.0], [0.1, 0.2])
        with pytest.raises(DataError):
            EpsilonModel.from_table([0.0, 1.0], [0.1, 1.2])

    def test_constant_model(self):
        model = EpsilonModel.constant(0.07)
        assert model(123.0) == pytest.approx(0.07)


class TestFitEpsilon:
    def test_recovers_linear_ground_truth(self):
        t = np.linspace(0.0, 7.0, 29)
        eps_true = 0.01 + 0.027 * t
        model = fit_epsilon(t, (1.0 - eps_true) ** 3, degree=1)
        assert model.coefficients[-1] == pytest.approx(0.01, abs=1e-6)
        assert model.coefficients[-2] == pytest.approx(0.027, abs=1e-6)
        assert model.fit_rms < 1e-12

    def test_quadratic_default_degree_roundtrips(self):
        t = np.linspace(0.0, 7.0, 29)
        eps_true = 0.01 + 0.02 * t + 0.001 * t**2
        model = fit_epsilon(t, (1.0 - eps_true) ** 3)
        assert np.abs(model(t) - eps_true).max() < 1e-9

    def test_constant_unity_series_gives_zero(self):
        t = np.linspace(0.0, 5.0, 11)
        model = fit_epsilon(t, np.ones_like(t), degree=1)
        assert np.abs(model(t)).max() < 1e-12

    def test_partitions_follow_from_the_fit(self):
        t = np.linspace(0.0, 7.0, 15)
        eps_true = 0.01 + 0.027 * t
        model = fit_epsilon(t, (1.0 - eps_true) ** 3, degree=1)
        forms = loss_partitions(model(t))
        assert np.allclose(forms["two_recaptured"], 3 * eps_true * (1 - eps_true) ** 2,
                           atol=1e-6)
        assert np.allclose(forms["none_recaptured"], eps_true**3, atol=1e-6)

    def test_out_of_range_probabilities_rejected(self):
        with pytest.raises(DataError):
            fit_epsilon([0.0, 1.0, 2.0], [0.5, 1.2, 0.4], degree=1)
        with pytest.raises(DataError):
            fit_epsilon([0.0, 1.0], [0.5, 0.4], degree=2)


class TestLargeNScaling:
    def test_zero_epsilon_is_identity(self, rng):
        model = EpsilonModel.constant(0.0)
        t = np.linspace(0, 10, 21)
        p = rng.random((4, 21))
        assert np.array_equal(scale_excitation_large_n(t, p, model, 20), p)

    def test_single_atom_is_identity(self, rng):
        model = EpsilonModel.constant(0.35)
        t = np.linspace(0, 10, 5)
        p = rng.random(5)
        assert np.allclose(scale_excitation_large_n(t, p, model, 1), p)

    def test_twenty_atoms_at_twenty_percent(self):
        model = EpsilonModel.constant(0.2)
        scaled = scale_excitation_large_n(np.array([3.0]), np.array([1.0]), model, 20)
        assert scaled[0] == pytest.approx(0.8**19)
        assert scaled[0] == pytest.approx(0.0144, abs=2e-4)
