"""Records of the scenario catalog, the provenance echo and the tables.

``golden/list_scenarios.txt`` is the output of ``xychain list-scenarios``;
``golden/<scenario>.provenance.yaml`` is the ``provenance.yaml`` of one fast
run of each scenario with the arguments in ``RUNS``, written to the relative
output directory ``out``, and compared byte for byte.
``golden/tables/<run>/`` holds the tables written by each run of ``RUNS``
and ``FULL_RUNS``; they are compared after :func:`xychain.cli.read_table`
within ``TABLE_ATOL``, so a change of floating-point evaluation order does
not need new records.
"""

from pathlib import Path

import numpy as np
import pytest

from xychain.cli import EXIT_OK, main, read_table

GOLDEN = Path(__file__).parent / "golden"
TABLE_ATOL = 1e-8

RUNS = {
    "two-atom-exchange": ["--ideal", "--set", "options.tau_max=3.0",
                          "--set", "options.tau_step=0.1", "--seed", "5"],
    "distance-scan": ["--seed", "3"],
    "three-chain": ["--ideal", "--set", "options.tau_max=3.0",
                    "--set", "options.tau_step=0.1", "--seed", "7"],
    "temperature-ablation": ["--set", "options.tau_max=1.5",
                             "--set", "options.tau_step=0.25",
                             "--n-realizations", "3", "--seed", "4"],
    "long-chain": ["--set", "options.n_atoms=4", "--set", "options.tau_max=2.0",
                   "--set", "options.tau_step=0.2", "--n-realizations", "3",
                   "--seed", "11"],
    "calibrate-epsilon": ["--seed", "1"],
}

_FAST_THREE_CHAIN = ["--set", "options.tau_max=1.5", "--set", "options.tau_step=0.25",
                     "--n-realizations", "3", "--seed", "8"]

# run -> (scenario, arguments): the open-system pipeline in full mode
FULL_RUNS = {
    "two-atom-exchange-full": (
        "two-atom-exchange",
        ["--set", "options.tau_max=2.0", "--set", "options.tau_step=0.2",
         "--n-realizations", "3", "--seed", "6"],
    ),
    "three-chain-full": ("three-chain", _FAST_THREE_CHAIN),
    "three-chain-full-zero-temperature": (
        "three-chain", [*_FAST_THREE_CHAIN, "--set", "options.temperature=0"]
    ),
}


def _run(scenario: str, args: list, tmp_path, monkeypatch) -> Path:
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("XYCHAIN_OUTPUT_DIR", raising=False)
    monkeypatch.delenv("XYCHAIN_WORKERS", raising=False)
    assert main(["run", scenario, *args, "--output-dir", "out"]) == EXIT_OK
    return tmp_path / "out"


def _assert_tables_match(out: Path, run: str) -> None:
    expected = GOLDEN / "tables" / run
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == sorted(p.name for p in expected.glob("*.csv"))
    for name in names:
        columns, data = read_table(out / name)
        expected_columns, expected_data = read_table(expected / name)
        assert columns == expected_columns, name
        np.testing.assert_allclose(data, expected_data, rtol=0, atol=TABLE_ATOL, err_msg=name)


def test_list_scenarios_matches_golden(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "list_scenarios.txt").read_text()


@pytest.mark.parametrize("scenario", sorted(RUNS))
def test_provenance_matches_golden(scenario, tmp_path, monkeypatch, capsys):
    out = _run(scenario, RUNS[scenario], tmp_path, monkeypatch)
    got = (out / "provenance.yaml").read_text()
    assert got == (GOLDEN / f"{scenario}.provenance.yaml").read_text()
    _assert_tables_match(out, scenario)


@pytest.mark.parametrize("run", sorted(FULL_RUNS))
def test_full_mode_tables_match_golden(run, tmp_path, monkeypatch, capsys):
    scenario, args = FULL_RUNS[run]
    _assert_tables_match(_run(scenario, args, tmp_path, monkeypatch), run)
