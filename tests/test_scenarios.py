import warnings
from typing import Annotated

import numpy as np
import pytest

from xychain import obe, thermal
from xychain.errors import ConfigError, ExtrapolationWarning
from xychain.model import PhysicalParams
from xychain.scenarios import (
    ScenarioSpec,
    catalog,
    load_epsilon_table,
    resolve_epsilon_model,
    run_scenario,
    scenario_options,
)

# small grids keep the open-system runs fast; physics tests live in
# test_acceptance.py at full scale
FAST_FULL = {
    "tau_max": 2.0,
    "tau_step": 0.2,
    "n_realizations": 4,
}


class TestCatalog:
    def test_contains_all_six_scenarios(self):
        names = [spec.name for spec in catalog()]
        assert names == sorted(names)
        assert set(names) >= {
            "two-atom-exchange",
            "distance-scan",
            "three-chain",
            "temperature-ablation",
            "long-chain",
            "calibrate-epsilon",
        }

    def test_every_entry_names_its_anchor_figure(self):
        for spec in catalog():
            assert spec.anchor.startswith("fig")
            assert spec.summary

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenario("does-not-exist")

    def test_option_without_help_text_refused(self):
        def runner(params, seed, tau_max: float = 1.0):
            return {}, {}

        def unchecked(params, seed, tau_max: Annotated[float, "longest time, us"] = 1.0):
            return {}, {}

        with pytest.raises(TypeError, match="tau_max"):
            ScenarioSpec("bare", "no help text", "fig0", runner)
        with pytest.raises(TypeError, match="tau_max"):
            ScenarioSpec("unchecked", "no check", "fig0", unchecked)

    def test_option_defaults_are_copied_per_run(self):
        # a run's options are echoed in its result; editing them must not
        # change the defaults of later runs
        options = scenario_options("distance-scan")
        options["radii"].append(60.0)
        options["epsilon"]["backend"] = "none"
        again = scenario_options("distance-scan")
        assert again["radii"][-1] == 50.0
        assert again["epsilon"] == {}

    def test_unknown_option_rejected_with_path(self):
        with pytest.raises(ConfigError, match="options.bogus"):
            run_scenario("three-chain", options={"bogus": 1})


class TestTwoAtomExchange:
    def test_ideal_frequency_and_contrast(self):
        result = run_scenario("two-atom-exchange", options={"mode": "ideal"}, seed=1)
        fit = result.summary["fit_P_10"]
        assert fit["frequency_mhz"] == pytest.approx(0.59, rel=5e-3)
        assert fit["contrast"] == pytest.approx(1.0, abs=1e-3)
        table = result.tables["populations"]
        assert table.columns == ("tau_us", "P_10", "P_01")
        assert np.abs(table.column("P_10") + table.column("P_01") - 1.0).max() < 1e-9

    def test_ideal_at_fifty_microns_still_resolvable(self):
        result = run_scenario(
            "two-atom-exchange", options={"mode": "ideal", "spacing": 50.0}, seed=1
        )
        fit = result.summary["fit_P_10"]
        assert fit["frequency_mhz"] == pytest.approx(2 * 7965.0 / 50**3, rel=2e-2)

    def test_full_mode_smoke(self):
        result = run_scenario(
            "two-atom-exchange",
            options={"mode": "full", **FAST_FULL, "tau_max": 4.0},
            seed=3,
        )
        observed = result.tables["observed"]
        total = sum(observed.column(f"P_{p}") for p in ("00", "01", "10", "11"))
        assert np.abs(total - 1.0).max() < 1e-8
        assert result.summary["max_trace_deviation"] < 1e-8

    def test_failure_names_the_realization(self, monkeypatch):
        # the third of four realizations flies atom 0 through atom 1, 30 um
        # away, at t = 2 us: inside the free evolution after the prefix
        seeds = thermal.realization_seeds(thermal.realization_seeds(11, 4)[0], 4)
        draw = thermal.sample_thermal

        def sample(params, n_atoms, seed):
            if seed == seeds[2]:
                vel = np.zeros((n_atoms, 3))
                vel[0, 0] = 15.0
                return thermal.ThermalSample(np.zeros((n_atoms, 3)), vel, seed)
            return draw(params, n_atoms, seed)

        monkeypatch.setattr(thermal, "sample_thermal", sample)
        opts = {"tau_max": 2.0, "tau_step": 0.2, "n_realizations": 4}
        with pytest.raises(thermal.MonteCarloError) as failure:
            run_scenario("two-atom-exchange", options=opts, seed=11)
        assert str(failure.value).startswith(f"realization 2 (seed {seeds[2]}) failed")
        assert "atoms 0 and 1 coincide" in str(failure.value)

    def test_spacing_bounds(self):
        with pytest.raises(ConfigError):
            run_scenario("two-atom-exchange", options={"spacing": 1.0})


class TestDistanceScan:
    def test_ideal_self_consistency(self):
        result = run_scenario("distance-scan", seed=5)
        assert result.summary["exponent"] == pytest.approx(-3.0, abs=5e-3)
        assert result.summary["fixed_exponent_prefactor_mhz_um3"] == pytest.approx(
            7965.0, rel=5e-3
        )

    def test_noisy_scatter(self):
        result = run_scenario(
            "distance-scan",
            options={"r_noise_frac": 0.05, "n_trials": 30},
            seed=6,
        )
        assert 0.05 < result.summary["exponent_scatter"] < 0.45

    @pytest.mark.parametrize(
        "scenario, options",
        [
            # 40 and 30 um widen the window; R = 20 um keeps tau_max 1.0 and
            # gets 6 points, and is found although it comes last
            ("distance-scan", {"radii": [40.0, 30.0, 20.0], "tau_max": 1.0}),
            ("two-atom-exchange", {"tau_max": 0.3}),
        ],
    )
    def test_short_fit_window_refused_before_any_scan(self, scenario, options,
                                                      monkeypatch):
        def readout_scan(*args, **kwargs):
            raise AssertionError("a readout scan ran before the fit window was checked")

        monkeypatch.setattr(obe, "readout_scan", readout_scan)
        options = {"mode": "full", "tau_step": 0.2, "n_realizations": 2, **options}
        with pytest.raises(ConfigError, match="needs at least 8"):
            run_scenario(scenario, options=options)

    def test_single_radius_refused(self):
        with pytest.raises(ConfigError, match="options.radii: expected a list of at least 3"):
            run_scenario("distance-scan", options={"radii": [30.0]})


class TestThreeChain:
    def test_ideal_nearest_neighbor(self):
        result = run_scenario(
            "three-chain",
            options={"mode": "ideal", "range_mode": "nearest_neighbor"},
            seed=2,
        )
        table = result.tables["populations"]
        assert table.columns == ("tau_us", "P_udd", "P_dud", "P_ddu")
        assert table.column("P_dud").max() == pytest.approx(0.5, abs=1e-3)
        a = result.summary["nn_coupling_mhz"]
        assert sorted(result.summary["eigenvalues_mhz"])[2] == pytest.approx(
            np.sqrt(2) * a
        )

    def test_ideal_full_range_is_aperiodic(self):
        result = run_scenario("three-chain", options={"mode": "ideal"}, seed=2)
        beats = result.summary["beat_frequencies_mhz"]
        a = result.summary["nn_coupling_mhz"]
        assert np.allclose(np.array(beats) / a, [1.2281, 1.6031, 2.8312], atol=1e-3)
        p1 = result.tables["populations"].column("P_udd")
        taus = result.tables["populations"].column("tau_us")
        period = 1.0 / (np.sqrt(2) * a)
        later = np.interp(taus[:40] + 2 * period, taus, p1)
        assert np.abs(later - p1[:40]).max() > 0.05  # no longer periodic

    def test_full_mode_smoke(self):
        result = run_scenario("three-chain", options=FAST_FULL, seed=9)
        observed = result.tables["observed"]
        assert observed.columns[0] == "tau_us"
        assert len(observed.columns) == 9
        assert result.summary["pattern_sum_deviation"] < 1e-8
        assert result.summary["max_trace_deviation"] < 1e-8

    def test_detection_toggle(self):
        off = run_scenario(
            "three-chain", options={**FAST_FULL, "epsilon": {"backend": "none"}}, seed=9
        )
        assert np.array_equal(
            off.tables["observed"].data, off.tables["true_patterns"].data
        )


class TestTemperatureAblation:
    def test_toggles_off_reproduce_zero_temperature_curve(self):
        result = run_scenario(
            "temperature-ablation",
            options={"tau_max": 1.5, "tau_step": 0.25, "n_realizations": 3,
                     "envelope_window": 1.0},
            seed=4,
        )
        table = result.tables["p001"]
        assert set(table.columns) == {
            "tau_us",
            "P_001_zero_temperature",
            "P_001_loss_only",
            "P_001_motion_only",
            "P_001_full",
        }
        # loss-free, motion-free curve equals the zero-temperature baseline
        # by construction; with the loss channel the curve must differ
        assert not np.array_equal(
            table.column("P_001_loss_only"), table.column("P_001_zero_temperature")
        )

    def test_motion_curve_differs(self):
        result = run_scenario(
            "temperature-ablation",
            options={"tau_max": 1.5, "tau_step": 0.25, "n_realizations": 3,
                     "envelope_window": 1.0},
            seed=4,
        )
        table = result.tables["p001"]
        assert not np.array_equal(
            table.column("P_001_motion_only"), table.column("P_001_zero_temperature")
        )


class TestLongChain:
    def test_reduces_to_three_chain_ideal(self):
        ideal = run_scenario(
            "three-chain",
            options={"mode": "ideal", "tau_max": 3.0, "tau_step": 0.1},
            seed=8,
        )
        long = run_scenario(
            "long-chain",
            options={"n_atoms": 3, "temperature": 0.0, "tau_max": 3.0,
                     "tau_step": 0.1, "epsilon": {"backend": "none"}},
            seed=8,
        )
        a = ideal.tables["populations"].column("P_udd")
        b = long.tables["observed"].column("P_site_01")
        assert np.abs(a - b).max() < 1e-7

    def test_zero_temperature_norm(self):
        result = run_scenario(
            "long-chain",
            options={"n_atoms": 6, "temperature": 0.0, "tau_max": 3.0,
                     "tau_step": 0.1},
            seed=8,
        )
        assert result.summary["norm_deviation"] < 1e-8

    def test_determinism_under_fixed_seed(self):
        opts = {"n_atoms": 4, "tau_max": 2.0, "tau_step": 0.2, "n_realizations": 3}
        one = run_scenario("long-chain", options=opts, seed=11)
        two = run_scenario("long-chain", options=opts, seed=11)
        assert np.array_equal(
            one.tables["observed"].data, two.tables["observed"].data
        )
        three = run_scenario("long-chain", options=opts, seed=12)
        assert not np.array_equal(
            one.tables["observed"].data, three.tables["observed"].data
        )

    def test_workers_do_not_change_bytes(self):
        opts = {"n_atoms": 4, "tau_max": 2.0, "tau_step": 0.2, "n_realizations": 4}
        one = run_scenario("long-chain", options=opts, seed=11, workers=1)
        four = run_scenario("long-chain", options=opts, seed=11, workers=4)
        assert np.array_equal(one.tables["observed"].data, four.tables["observed"].data)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_names_the_realization(self, monkeypatch, workers):
        # workers is an accepted key with no effect: both runs take one thread
        # the third of four realizations flies atom 0 through atom 1 at t = 4/3 us
        seeds = thermal.realization_seeds(thermal.realization_seeds(11, 4)[0], 4)
        draw = thermal.sample_thermal

        def sample(params, n_atoms, seed):
            if seed == seeds[2]:
                vel = np.zeros((n_atoms, 3))
                vel[0, 0] = 15.0
                return thermal.ThermalSample(np.zeros((n_atoms, 3)), vel, seed)
            return draw(params, n_atoms, seed)

        monkeypatch.setattr(thermal, "sample_thermal", sample)
        opts = {"n_atoms": 3, "tau_max": 2.0, "tau_step": 0.2, "n_realizations": 4}
        with pytest.raises(thermal.MonteCarloError) as failure:
            run_scenario("long-chain", options=opts, seed=11, workers=workers)
        assert str(failure.value).startswith(f"realization 2 (seed {seeds[2]}) failed")
        assert "atoms 0 and 1 coincide" in str(failure.value)


class TestCalibrateEpsilon:
    def test_round_trip(self):
        result = run_scenario("calibrate-epsilon", seed=1)
        assert result.summary["max_roundtrip_error"] < 1e-6
        assert result.summary["epsilon_at_0"] == pytest.approx(0.01, abs=1e-3)
        assert result.summary["epsilon_at_7us"] == pytest.approx(0.199, abs=2e-3)

    def test_partitions_table_consistent_with_forward_model(self):
        result = run_scenario("calibrate-epsilon", seed=1)
        partitions = result.tables["partitions"]
        eps = result.tables["epsilon"].column("epsilon_fit")
        assert np.allclose(
            partitions.column("none_recaptured"), eps**3, atol=1e-12
        )

    def test_ingests_measured_table(self, tmp_path):
        path = tmp_path / "eps.txt"
        t = np.linspace(0, 8, 17)
        eps = 0.02 + 0.025 * t
        path.write_text(
            "# t_us  epsilon\n"
            + "\n".join(f"{a:.6f} {b:.6f}" for a, b in zip(t, eps))
        )
        result = run_scenario(
            "calibrate-epsilon", options={"table_path": str(path)}, seed=1
        )
        assert result.summary["epsilon_at_0"] == pytest.approx(0.02, abs=1e-3)


class TestEpsilonResolution:
    def test_default_table_endpoints(self):
        model = resolve_epsilon_model({}, PhysicalParams(), 0, 7.0)
        assert model(0.0) == pytest.approx(0.01)
        assert model(7.0) == pytest.approx(0.199, abs=1e-9)

    def test_recapture_backend_is_temperature_aware(self):
        hot = resolve_epsilon_model(
            {"backend": "recapture_mc", "n_mc": 50_000}, PhysicalParams(), 3, 8.0
        )
        cold = resolve_epsilon_model(
            {"backend": "recapture_mc", "n_mc": 50_000},
            PhysicalParams(temperature=10.0),
            3,
            8.0,
        )
        assert hot(7.0) > cold(7.0)
        assert hot(7.0) == pytest.approx(0.20, abs=0.02)

    def test_p111_table_kind(self, tmp_path):
        path = tmp_path / "p111.txt"
        t = np.linspace(0, 7, 8)
        eps = 0.01 + 0.027 * t
        path.write_text(
            "\n".join(f"{a:.6f} {b:.8f}" for a, b in zip(t, (1 - eps) ** 3))
        )
        tt, ee = load_epsilon_table(path, "p111")
        assert np.allclose(ee, eps, atol=1e-9)

    @pytest.mark.parametrize("text", [None, "0.0 0.01\n1.0 abc\n"], ids=["missing", "text"])
    def test_unreadable_table_names_the_key(self, text, tmp_path):
        path = tmp_path / "epsilon.txt"
        if text is not None:
            path.write_text(text)
        with pytest.raises(ConfigError, match=f"options.table_path: cannot read {path}"):
            load_epsilon_table(path, key="options.table_path")

    def test_unknown_key_rejected_in_ideal_mode(self):
        # the loss model is never built, but a typo must not reach provenance
        options = {"mode": "ideal", "epsilon": {"backnd": "none"}}
        with pytest.raises(ConfigError, match="options.epsilon.backnd"):
            run_scenario("three-chain", options=options)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigError):
            resolve_epsilon_model({"backend": "psychic"}, PhysicalParams(), 0, 5.0)

    @pytest.mark.parametrize("key, value", [("backend", "psychic"), ("table_kind", "bogus")])
    def test_unknown_choice_rejected_in_ideal_mode(self, key, value):
        options = {"mode": "ideal", "epsilon": {key: value}}
        with pytest.raises(ConfigError, match=f"options.epsilon.{key}: unknown value"):
            run_scenario("two-atom-exchange", options=options)

    @pytest.mark.parametrize(
        "scenario, options",
        [
            # the grid rounds up to 12.05 and 12.0 us, past the requested tau_max
            ("two-atom-exchange", {"tau_max": 11.9, "tau_step": 0.25}),
            ("long-chain", {"n_atoms": 3, "tau_max": 12.03, "tau_step": 0.05}),
        ],
    )
    def test_loss_model_spans_the_rounded_tau_grid(self, scenario, options):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ExtrapolationWarning)
            run_scenario(scenario, params=PhysicalParams(temperature=0.0), options=options)
