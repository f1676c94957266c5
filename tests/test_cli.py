import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import xychain
from xychain import analysis, xy
from xychain.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    main,
    read_table,
    validate_config_dict,
)
from xychain.errors import ConfigError

IDEAL_ARGS = ["--ideal", "--set", "options.tau_max=3.0", "--set", "options.tau_step=0.1"]

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
        ],
        ids=["n_mc-0", "n_mc-negative", "n_mc-fraction", "floor-nan", "floor-2",
             "slope-inf", "trap_depth-string", "trap_depth-0",
             "two-atom-no-realizations", "three-chain-no-realizations",
             "long-chain-no-realizations", "realizations-bool"],
    )
    def test_out_of_range_option_exits_2_without_outputs(self, args, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run_cli(["run", *args, "--output-dir", str(out_dir)])
        assert code == EXIT_CONFIG
        assert "expected" in capsys.readouterr().err
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
