import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import xychain
from xychain import analysis, detection, obe, xy
from xychain.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    apply_override,
    main,
    read_table,
    validate_config_dict,
    write_table,
)
from xychain.errors import ConfigError

IDEAL_ARGS = ["--ideal", "--set", "options.tau_max=3.0", "--set", "options.tau_step=0.1"]

#: Loss tables whose content a run refuses, written under ``tables/`` of the
#: working directory.
BAD_TABLES = {
    "one-column": "0.0\n1.0\n",
    "non-finite": "0.0 0.01\n1.0 nan\n",
    "times-not-increasing": "0.0 0.01\n1.0 0.02\n1.0 0.03\n",
    "epsilon-above-1": "0.0 0.01\n1.0 1.7\n",
    "p111-0": "0.0 1.0\n1.0 0.0\n",
}

# A short full-mode exchange run, sinusoid fit included, in a fresh interpreter;
# prints the scipy and numpy.ma modules it loaded.
NO_SCIPY_SCRIPT = """
import sys
import xychain
from xychain import cli, scenarios

config = cli.validate_config_dict({
    "scenario": "two-atom-exchange", "seed": 6, "output_dir": sys.argv[1],
    "options": {"mode": "full", "n_realizations": 2, "tau_max": 2.0, "tau_step": 0.2},
})
params = cli.build_params(config.params)
result = scenarios.run_scenario(config.scenario, params=params, seed=config.seed,
                                options=config.options, workers=config.workers)
cli.write_outputs(result, config)
assert result.summary["fit_P_10"]["frequency_mhz"] > 0
print(sorted(m for m in sys.modules
             if m in ("scipy", "numpy.ma") or m.startswith(("scipy.", "numpy.ma."))))
"""


def run_cli(args):
    return main(args)


def test_run_imports_no_scipy(tmp_path):
    src = str(Path(xychain.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


class TestListScenarios:
    def test_catalog_is_printed_sorted_with_anchors(self, capsys):
        assert run_cli(["list-scenarios"]) == EXIT_OK
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines()
                 if line and not line.startswith(" ")]
        assert len(names) >= 6
        assert names == sorted(names)
        assert "[fig2b]" in out and "[figS4]" in out


class TestRun:
    def test_three_chain_ideal_schema(self, tmp_path, capsys):
        code = run_cli(
            ["run", "three-chain", "--range", "full", *IDEAL_ARGS,
             "--output-dir", str(tmp_path), "--seed", "7"]
        )
        assert code == EXIT_OK
        table_path = tmp_path / "three-chain_populations.csv"
        assert table_path.exists()
        columns, data = read_table(table_path)
        assert columns == ["tau_us", "P_udd", "P_dud", "P_ddu"]
        assert data[0, 0] == 0.0
        summary = json.loads((tmp_path / "three-chain_summary.json").read_text())
        assert "eigenvalues_mhz" in summary
        assert (tmp_path / "provenance.yaml").exists()

    def test_distance_scan_summary_contents(self, tmp_path):
        code = run_cli(
            ["run", "distance-scan", "--output-dir", str(tmp_path), "--seed", "3"]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "distance-scan_summary.json").read_text())
        assert summary["exponent"] == pytest.approx(-3.0, abs=5e-3)
        assert summary["fixed_exponent_prefactor_mhz_um3"] == pytest.approx(
            7965.0, rel=5e-3
        )

    def test_malformed_config_exits_2_without_outputs(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("scenario: three-chain\noptions:\n  tau_maxx: 3\n")
        out_dir = tmp_path / "out"
        code = run_cli(["run", str(config), "--output-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "options.tau_maxx" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_unknown_scenario_exits_2(self, capsys):
        assert run_cli(["run", "warp-drive"]) == EXIT_CONFIG
        assert "warp-drive" in capsys.readouterr().err

    def test_unwritable_output_exits_4(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        code = run_cli(
            ["run", "calibrate-epsilon", "--output-dir", str(blocker)]
        )
        assert code == 4
        assert "i/o error" in capsys.readouterr().err

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        # constant series: the oscillation fit has no spectral peak
        code = run_cli(
            ["run", "two-atom-exchange", "--ideal", "--output-dir", str(tmp_path),
             "--set", "options.spacing=100.0",
             "--set", "options.tau_max=0.5", "--set", "options.tau_step=0.05"]
        )
        assert code == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err

    def test_bad_loss_model_exits_2_before_propagating(self, tmp_path, monkeypatch,
                                                        capsys):
        def propagate(*args, **kwargs):
            raise AssertionError("the chain propagated before its loss model resolved")

        monkeypatch.setattr(xy, "propagate_ensemble", propagate)
        code = run_cli(["run", "long-chain", "--output-dir", str(tmp_path),
                        "--set", "options.epsilon.backend=psychic"])
        assert code == EXIT_CONFIG
        assert "psychic" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "args",
        [
            ["long-chain", "--set", "options.epsilon.backend=recapture_mc",
             "--set", "options.epsilon.n_mc=0"],
            ["long-chain", "--set", "options.epsilon.backend=recapture_mc",
             "--set", "options.epsilon.n_mc=-5"],
            ["long-chain", "--set", "options.epsilon.n_mc=2.5"],
            ["long-chain", "--set", "options.epsilon.floor=.nan"],
            ["long-chain", "--set", "options.epsilon.floor=2"],
            ["long-chain", "--set", "options.epsilon.slope=.inf"],
            ["long-chain", "--set", "options.epsilon.backend=recapture_mc",
             "--set", "options.epsilon.trap_depth=deep"],
            ["long-chain", "--set", "options.epsilon.trap_depth=0"],
            ["two-atom-exchange", "--n-realizations", "0"],
            ["three-chain", "--n-realizations", "0"],
            ["long-chain", "--n-realizations", "0"],
            ["long-chain", "--set", "options.n_realizations=true"],
            ["distance-scan", "--set", "options.n_trials=0"],
            ["distance-scan", "--set", "options.n_trials=2.5"],
            ["distance-scan", "--set", "options.n_trials=true"],
            ["calibrate-epsilon", "--set", "options.floor=.nan"],
            ["calibrate-epsilon", "--set", "options.floor=-0.1"],
            ["calibrate-epsilon", "--set", "options.slope=.inf"],
            ["long-chain", "--set", "params.c3=.nan"],
            ["long-chain", "--set", "params.omega_perp=.nan"],
            ["three-chain", "--set", "options.mode=ideal", "--set", "params.c3=.inf"],
            ["two-atom-exchange", "--set", "params.temperature=.nan"],
            ["two-atom-exchange", "--set", "params.temperature=-5"],
            ["three-chain", "--set", "options.temperature=-5"],
            ["long-chain", "--set", "options.temperature=-5"],
            ["temperature-ablation", "--set", "options.temperature=.nan"],
            ["temperature-ablation", "--set", "options.temperature=null"],
            ["long-chain", "--set", "params.omega_perp=0"],
            ["long-chain", "--set", "params.omega_perp=-1"],
            ["long-chain", "--set", "params.mass=0"],
            ["two-atom-exchange", "--set", "params.gamma_up=-1"],
            ["two-atom-exchange", "--set", "params.gamma_eff=-1"],
            ["long-chain", "--set", "params.c3=abc"],
            ["long-chain", "--set", "params.c3=[1,2]"],
            ["long-chain", "--set", "options.spacing=0"],
            ["three-chain", "--set", "options.spacing=0"],
            ["two-atom-exchange", "--set", "options.spacing=1"],
            ["three-chain", "--set", "options.mode=ideal", "--set", "options.spacing=abc"],
            ["two-atom-exchange", "--set", "options.mode=ideal",
             "--set", "options.tau_step=abc"],
            ["three-chain", "--set", "options.tau_max=0"],
            ["three-chain", "--set", "options.mode=quantum"],
            ["long-chain", "--set", "options.range_mode=all"],
            ["long-chain", "--set", "options.n_atoms=2.5"],
            ["long-chain", "--set", "options.baseline_window=-1"],
            ["long-chain", "--set", "options.epsilon.table_path=5"],
            ["distance-scan", "--set", "options.radii=abc"],
            ["distance-scan", "--set", "options.radii=[30,40]"],
            ["distance-scan", "--set", "options.r_noise_frac=-0.1"],
            ["temperature-ablation", "--set", "options.envelope_window=0"],
            ["calibrate-epsilon", "--set", "options.degree=-1"],
            ["calibrate-epsilon", "--set", "options.t_max=-1"],
            ["calibrate-epsilon", "--set", "options.n_points=0"],
        ],
        ids=["n_mc-0", "n_mc-negative", "n_mc-fraction", "floor-nan", "floor-2",
             "slope-inf", "trap_depth-string", "trap_depth-0",
             "two-atom-no-realizations", "three-chain-no-realizations",
             "long-chain-no-realizations", "realizations-bool", "n_trials-0",
             "n_trials-fraction", "n_trials-bool", "calibrate-floor-nan",
             "calibrate-floor-negative", "calibrate-slope-inf", "c3-nan",
             "omega_perp-nan", "ideal-c3-inf", "params-temperature-nan",
             "params-temperature-negative", "three-chain-temperature-negative",
             "long-chain-temperature-negative", "ablation-temperature-nan",
             "ablation-temperature-null", "omega_perp-0", "omega_perp-negative",
             "mass-0", "gamma_up-negative", "gamma_eff-negative", "c3-string",
             "c3-sequence", "long-chain-spacing-0", "three-chain-spacing-0",
             "two-atom-spacing-1", "spacing-string", "tau_step-string", "tau_max-0",
             "mode-unknown", "range_mode-unknown", "n_atoms-fraction",
             "baseline_window-negative", "epsilon-table_path-number", "radii-string",
             "radii-two", "r_noise_frac-negative", "envelope_window-0",
             "degree-negative", "t_max-negative", "n_points-0"],
    )
    def test_out_of_range_option_exits_2_without_outputs(self, args, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run_cli(["run", *args, "--output-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "expected" in capsys.readouterr().err
        assert not out_dir.exists()
        # validate-config refuses the same settings written as a config file
        raw = {"scenario": args[0]}
        for flag, value in zip(args[1::2], args[2::2]):
            setting = value if flag == "--set" else f"options.n_realizations={value}"
            key, _, text = setting.partition("=")
            apply_override(raw, key, yaml.safe_load(text))
        config = tmp_path / "bad.yaml"
        config.write_text(yaml.safe_dump(raw))
        assert run_cli(["validate-config", str(config)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args, named",
        [
            (["three-chain", "--set", "params.omega_opt=[5.2,5.3]"], "params.omega_opt"),
            (["two-atom-exchange", "--set", "params.omega_opt=0"], "params.omega_opt"),
            (["two-atom-exchange", "--set", "params.omega_mw=0"], "params.omega_mw"),
            (["temperature-ablation", "--set", "options.envelope_window=0.1"],
             "options.envelope_window"),
            (["calibrate-epsilon", "--set", "options.n_points=3", "--set", "options.degree=3"],
             "options.degree"),
            (["calibrate-epsilon", "--set", "options.table_path=missing/epsilon.txt"],
             "options.table_path: cannot read missing/epsilon.txt"),
            (["three-chain", "--set", "options.epsilon.table_path=missing/epsilon.txt"],
             "options.epsilon.table_path: cannot read missing/epsilon.txt"),
            (["calibrate-epsilon", "--set", "options.table_path=tables/one-column.txt"],
             "options.table_path: tables/one-column.txt: needs two columns"),
            (["calibrate-epsilon", "--set", "options.table_path=tables/non-finite.txt"],
             "options.table_path: tables/non-finite.txt: holds a non-finite value"),
            (["calibrate-epsilon", "--set",
              "options.table_path=tables/times-not-increasing.txt"],
             "options.table_path: tables/times-not-increasing.txt: times must strictly"),
            (["two-atom-exchange", "--set",
              "options.epsilon.table_path=tables/epsilon-above-1.txt"],
             "options.epsilon.table_path: tables/epsilon-above-1.txt: epsilon values"),
            (["two-atom-exchange", "--set", "options.epsilon.table_path=tables/p111-0.txt",
              "--set", "options.epsilon.table_kind=p111"],
             "options.epsilon.table_path: tables/p111-0.txt: P_111 values"),
        ],
        ids=["omega_opt-per-atom-length", "omega_opt-0", "omega_mw-0",
             "envelope_window-below-4-steps", "degree-not-below-n_points",
             "calibrate-table-missing", "epsilon-table-missing",
             "calibrate-table-one-column", "calibrate-table-non-finite",
             "calibrate-table-times-not-increasing", "epsilon-table-above-1",
             "p111-table-0"],
    )
    def test_refused_at_run_exits_2_before_any_work(self, args, named, tmp_path,
                                                    monkeypatch, capsys):
        # settings that the chain, another option or a file makes invalid
        def propagate(*args, **kwargs):
            raise AssertionError("the run started before its inputs were checked")

        monkeypatch.chdir(tmp_path)
        (tmp_path / "tables").mkdir()
        for name, text in BAD_TABLES.items():
            (tmp_path / "tables" / f"{name}.txt").write_text(text)
        monkeypatch.setattr(xy, "propagate_ensemble", propagate)
        monkeypatch.setattr(obe, "readout_scan", propagate)
        monkeypatch.setattr(detection, "fit_epsilon", propagate)
        out_dir = tmp_path / "out"
        assert run_cli(["run", *args, "--output-dir", str(out_dir)]) == EXIT_CONFIG
        assert named in capsys.readouterr().err
        assert not out_dir.exists()

    def test_table_round_trips_into_analysis(self, tmp_path):
        run_cli(
            ["run", "two-atom-exchange", "--ideal", "--output-dir", str(tmp_path),
             "--seed", "5"]
        )
        columns, data = read_table(tmp_path / "two-atom-exchange_populations.csv")
        fit = analysis.fit_sinusoid(data[:, 0], data[:, columns.index("P_10")])
        assert fit.frequency == pytest.approx(0.59, rel=1e-3)

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("XYCHAIN_OUTPUT_DIR", str(tmp_path / "env_out"))
        code = run_cli(["run", "calibrate-epsilon"])
        assert code == EXIT_OK
        assert (tmp_path / "env_out" / "calibrate-epsilon_summary.json").exists()

    def test_flags_override_file(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text(
            yaml.safe_dump(
                {
                    "scenario": "three-chain",
                    "seed": 1,
                    "output_dir": str(tmp_path / "a"),
                    "options": {"mode": "ideal", "tau_max": 3.0, "tau_step": 0.1},
                }
            )
        )
        code = run_cli(["run", str(config), "--output-dir", str(tmp_path / "b"),
                        "--seed", "2"])
        assert code == EXIT_OK
        assert (tmp_path / "b").exists() and not (tmp_path / "a").exists()
        prov = yaml.safe_load((tmp_path / "b" / "provenance.yaml").read_text())
        assert prov["seed"] == 2

    def test_provenance_rerun_is_byte_identical(self, tmp_path):
        runs = {
            "three-chain": (IDEAL_ARGS, ("populations.csv", "summary.json")),
            # thermal run with options.temperature unset
            "long-chain": (
                ["--set", "options.n_atoms=4", "--set", "options.tau_max=2.0",
                 "--set", "options.tau_step=0.2", "--n-realizations", "3"],
                ("populations.csv", "observed.csv", "summary.json"),
            ),
        }
        for scenario, (args, outputs) in runs.items():
            out1 = tmp_path / scenario / "first"
            out2 = tmp_path / scenario / "second"
            assert run_cli(["run", scenario, *args, "--output-dir", str(out1),
                            "--seed", "42"]) == EXIT_OK
            # the provenance record is itself a valid config
            assert run_cli(["run", str(out1 / "provenance.yaml"),
                            "--output-dir", str(out2)]) == EXIT_OK
            for name in outputs:
                path = f"{scenario}_{name}"
                assert (out1 / path).read_bytes() == (out2 / path).read_bytes()

    def test_tsv_format(self, tmp_path):
        run_cli(["run", "calibrate-epsilon", "--output-dir", str(tmp_path),
                 "--table-format", "tsv"])
        text = (tmp_path / "calibrate-epsilon_epsilon.tsv").read_text()
        assert "\t" in text.splitlines()[0]

    def test_params_override(self, tmp_path):
        code = run_cli(
            ["run", "two-atom-exchange", "--ideal", "--output-dir", str(tmp_path),
             "--set", "params.c3=4000.0"]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / "two-atom-exchange_summary.json").read_text())
        assert summary["fit_P_10"]["frequency_mhz"] == pytest.approx(
            2 * 4000.0 / 30**3, rel=1e-3
        )


class TestValidateConfig:
    def test_valid_config_passes(self, tmp_path, capsys):
        config = tmp_path / "ok.yaml"
        config.write_text("scenario: long-chain\nseed: 9\n")
        assert run_cli(["validate-config", str(config)]) == EXIT_OK
        assert "ok:" in capsys.readouterr().out

    def test_bad_params_key_reported_with_path(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("scenario: long-chain\nparams:\n  c4: 1.0\n")
        assert run_cli(["validate-config", str(config)]) == EXIT_CONFIG
        assert "params.c4" in capsys.readouterr().err

    def test_unknown_epsilon_key_reported_with_path(self, tmp_path, capsys):
        config = tmp_path / "typo.yaml"
        config.write_text("scenario: three-chain\noptions:\n  epsilon:\n    backnd: none\n")
        assert run_cli(["validate-config", str(config)]) == EXIT_CONFIG
        assert "options.epsilon.backnd" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("backend", "psychic"), ("table_kind", "bogus")])
    def test_unknown_epsilon_choice_reported_with_path(self, key, value, tmp_path, capsys):
        config = tmp_path / "choice.yaml"
        config.write_text(f"scenario: distance-scan\noptions:\n  epsilon:\n    {key}: {value}\n")
        assert run_cli(["validate-config", str(config)]) == EXIT_CONFIG
        assert f"options.epsilon.{key}: unknown value {value!r}" in capsys.readouterr().err

    def test_invalid_yaml_rejected(self, tmp_path):
        config = tmp_path / "broken.yaml"
        config.write_text("scenario: [unclosed\n")
        assert run_cli(["validate-config", str(config)]) == EXIT_CONFIG


class TestConfigValidation:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="config: scnario"):
            validate_config_dict({"scnario": "three-chain"})

    def test_seed_type_checked(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config_dict({"scenario": "three-chain", "seed": "abc"})

    def test_workers_positive(self):
        with pytest.raises(ConfigError, match="workers"):
            validate_config_dict({"scenario": "three-chain", "workers": 0})

    def test_table_format_checked(self):
        with pytest.raises(ConfigError, match="table_format"):
            validate_config_dict({"scenario": "three-chain", "table_format": "xlsx"})


def test_write_table_text_is_nine_digit_formatting_of_the_values(tmp_path):
    data = np.array([
        [0.0, -0.0, 1.0 / 3.0, 123456789.123],
        [np.nan, np.inf, -np.inf, -2.5e12],
        [1e-300, 5e-324, 0.1 + 0.2, -1.0],
    ])
    path = tmp_path / "table.tsv"
    write_table(path, ["a", "b", "c", "d"], data, "\t")
    expected = ["a\tb\tc\td"] + ["\t".join(f"{x:.9g}" for x in row) for row in data]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_text().splitlines()[1:3] == [
        "0\t-0\t0.333333333\t123456789", "nan\tinf\t-inf\t-2.5e+12"
    ]
