"""Byte-for-byte records of the scenario catalog and the provenance echo.

``golden/list_scenarios.txt`` is the output of ``xychain list-scenarios``;
``golden/<scenario>.provenance.yaml`` is the ``provenance.yaml`` of one fast
run of each scenario with the arguments in ``RUNS``, written to the relative
output directory ``out``.
"""

from pathlib import Path

import pytest

from xychain.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

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


def test_list_scenarios_matches_golden(capsys):
    assert main(["list-scenarios"]) == EXIT_OK
    assert capsys.readouterr().out == (GOLDEN / "list_scenarios.txt").read_text()


@pytest.mark.parametrize("scenario", sorted(RUNS))
def test_provenance_matches_golden(scenario, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("XYCHAIN_OUTPUT_DIR", raising=False)
    monkeypatch.delenv("XYCHAIN_WORKERS", raising=False)
    assert main(["run", scenario, *RUNS[scenario], "--output-dir", "out"]) == EXIT_OK
    got = (tmp_path / "out" / "provenance.yaml").read_text()
    assert got == (GOLDEN / f"{scenario}.provenance.yaml").read_text()
