"""Regenerate the reference outputs the correctness gate compares against.

Usage, from the repository root::

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every workload (default: all) at each of the ``N_REFERENCE_SEEDS``
scenario seeds through the benchmark's worker and stores its tables and
summary, gzip-compressed, under ``perfbench/reference/<workload>/seed<k>/``.
References are regenerated only when a change is meant to alter the outputs
beyond the gate's tolerance, and that change says so.
"""

from __future__ import annotations

import gzip
import shutil
import sys
import time

import check
from run import REFERENCE_DIR, ROOT, RUN_DIR, Runner
from workloads import N_REFERENCE_SEEDS, WORKLOADS, run_config


def main(names) -> int:
    for workload in names or sorted(WORKLOADS):
        for seed in range(N_REFERENCE_SEEDS):
            snap = ROOT / RUN_DIR / "reference" / workload
            run = Runner(time.monotonic() + 600.0)
            out = run(
                {
                    "kind": "scenario",
                    "config": run_config(workload, seed, f"{RUN_DIR}/reference/out"),
                    "snapshot": str(snap),
                }
            )
            problems = check.invariant_problems(check.read_summary(snap))
            if problems:
                print(f"{workload} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                return 1
            target = REFERENCE_DIR / workload / f"seed{seed}"
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for path in sorted(snap.iterdir()):
                if path.name != check.PROVENANCE:
                    data = gzip.compress(path.read_bytes(), mtime=0)
                    (target / f"{path.name}.gz").write_bytes(data)
            print(f"{workload} seed {seed}: {out['scenario_s']:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
