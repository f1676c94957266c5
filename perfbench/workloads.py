"""Workload definitions shared by run.py, its worker and the reference tool.

A workload is a run configuration of the public CLI layer (the mapping that
``xychain.cli.validate_config_dict`` accepts).  The benchmark seed selects one
of ``N_REFERENCE_SEEDS`` scenario seeds, so every run has stored reference
tables to be checked against.
"""

from __future__ import annotations

import copy

N_REFERENCE_SEEDS = 8

#: Thread pools of the numerical libraries are pinned to one thread, so a
#: run uses at most ``workers`` threads of its own.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

WORKLOADS = {
    # Batched, time-dependent master equation: 10 thermal realizations of
    # moving atoms advance together through prefix, free evolution and 101
    # readout branches (5 us of the default 10 us grid); the only workload
    # that fits a sinusoid.  The production batch of 100 and the three-atom
    # chain are timed by the per-layer kernel rates: a 100-realization
    # scenario takes about 35 s, too long to repeat within a run.
    "two-atom-thermal": {
        "scenario": "two-atom-exchange",
        "workers": 2,
        "params": {"temperature": 50.0},
        "options": {"mode": "full", "n_realizations": 10, "tau_max": 5.0},
    },
    # Closed-system propagation of a 20-atom chain over 10 thermal
    # realizations; the master equation is never called.
    "long-chain-thermal": {
        "scenario": "long-chain",
        "workers": 1,
        "options": {"n_atoms": 20, "temperature": 50.0, "n_realizations": 10},
    },
}

#: The worker-scaling probe of the traced run: ``long-chain-thermal`` run
#: once with each worker count.
SCALING_WORKERS = (1, 2)


def scenario_seed(seed: int) -> int:
    return seed % N_REFERENCE_SEEDS


def run_config(workload: str, seed: int, output_dir: str) -> dict:
    """Raw config mapping of one workload run at benchmark seed ``seed``."""
    raw = copy.deepcopy(WORKLOADS[workload])
    raw["seed"] = scenario_seed(seed)
    raw["output_dir"] = output_dir
    return raw


def scaling_config(seed: int, workers: int, output_dir: str) -> dict:
    raw = run_config("long-chain-thermal", seed, output_dir)
    raw["workers"] = workers
    return raw
