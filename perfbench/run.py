"""Benchmark of the xychain simulation engine.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it runs the workload's scenario through the public
scenario/CLI path, one fresh interpreter per run, until ``S`` seconds are
spent, and reports the end-to-end metrics (medians over the runs).  With
``--trace 1`` it runs the scenario once untraced and once with every public
function of the layer modules wrapped, times the kernels on synthetic inputs
and the worker scaling of the long chain, and reports the per-layer metrics.
Every run's outputs pass the correctness gate of ``check.py``; repeated runs
must write byte-identical files.

The last line of standard output is the result object; the line before it is
the machine block.  The full record, spans included, goes to
``.perfbench_run/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from workloads import (
    SCALING_WORKERS,
    THREAD_ENV,
    WORKLOADS,
    run_config,
    scaling_config,
    scenario_seed,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ".perfbench_run"
REFERENCE_DIR = HERE / "reference"
TIME_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 5

END_TO_END = {
    "scenario_s": "s",
    "realization_taus_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics read from the traced run's spans: (span, field).
SPAN_METRICS = [
    ("obe.readout_scan", "busy_s"),
    ("obe.readout_scan", "calls"),
    ("obe.project_to_readout", "busy_s"),
    ("xy.propagate_time_dependent", "busy_s"),
    ("xy.propagate_time_dependent", "calls"),
    ("thermal.sample_thermal", "busy_s"),
    ("thermal.sample_thermal", "calls"),
    ("thermal.monte_carlo", "busy_s"),
    ("detection.forward_detection", "busy_s"),
    ("detection.forward_detection", "calls"),
    ("detection.scale_excitation_large_n", "busy_s"),
    ("analysis.fit_sinusoid", "busy_s"),
    ("cli.write_outputs", "busy_s"),
]
KERNEL_METRICS = {
    "obe.free_s_per_us.n2_b1": "s/us",
    "obe.free_s_per_us.n3_b1": "s/us",
    "obe.free_s_per_us.n2_b100": "s/us",
    "obe.free_s_per_us.n3_b100": "s/us",
    "obe.readout_branch_s.n3_b100": "s",
    "xy.s_per_realization.n20": "s",
}
RUN_METRICS = {
    "thermal.monte_carlo.speedup_2w": "ratio",
    "cli.bytes_written": "bytes",
    "scenarios.self_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_frac": "ratio",
    "repo.src_lines": "count",
}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker interpreters within the run's time limit."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, **THREAD_ENV)

    def __call__(self, job: dict) -> dict:
        job = dict(job, root=str(ROOT))
        timeout = self.deadline - time.monotonic()
        if timeout <= 1.0:
            raise WorkerError("time limit reached before the job started")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise WorkerError(f"{job['kind']} job exceeded the time limit") from exc
        if proc.returncode != 0:
            raise WorkerError(
                f"{job['kind']} job exited with {proc.returncode}:\n{proc.stderr.strip()}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Gate:
    """Counts attempted and failed runs and explains every failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            log(f"FAIL {label}: " + "; ".join(problems))


def _reference(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / workload / f"seed{scenario_seed(seed)}"


def _without_provenance(digests: dict) -> dict:
    return {k: v for k, v in digests.items() if k != check.PROVENANCE}


def end_to_end(workload: str, seed: int, seconds: float, run, gate: Gate):
    base = f"{RUN_DIR}/{workload}"
    reference = _reference(workload, seed)
    runs, machine, first_digests = [], None, None
    start = time.monotonic()
    while True:
        snap = ROOT / base / f"run{len(runs)}"
        job_start = time.monotonic()
        label = f"{workload} run {len(runs)}"
        try:
            out = run(
                {
                    "kind": "scenario",
                    "config": run_config(workload, seed, f"{base}/out"),
                    "snapshot": str(snap),
                    "machine": machine is None,
                }
            )
        except WorkerError as exc:
            gate.record(label, [str(exc)])
            out = None
        else:
            machine = machine or out.get("machine")
            problems = check.reference_problems(snap, reference)
            digests = check.digests(snap)
            if first_digests is None:
                first_digests = digests
            elif digests != first_digests:
                problems.append("outputs not byte-identical to the first run")
            gate.record(label, problems)
            try:
                out["work"] = check.work_size(snap)
            except (OSError, KeyError, ValueError, StopIteration):
                pass  # malformed outputs: already counted as a failure
            runs.append(out)
        # stop at the repetition count that measures closest to `seconds`
        job_s = time.monotonic() - job_start
        if out is None or time.monotonic() - start + job_s / 2 > seconds:
            break
    if not runs:
        raise WorkerError(f"no run of {workload} completed")
    setups = [r["setup_s"] for r in runs]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(run({"kind": "setup", "config": run_config(workload, seed, base)})["setup_s"])
    scenario_s = statistics.median(r["scenario_s"] for r in runs)
    work = next((r["work"] for r in runs if "work" in r), None)
    if work is None:
        raise WorkerError(f"no run of {workload} wrote readable outputs")
    metrics = {
        "scenario_s": scenario_s,
        "realization_taus_per_s": work / scenario_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    record = {"runs": runs, "setup_samples": setups}
    return metrics, machine, record


def src_lines() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "xychain").glob("*.py"))
    )


def traced(workload: str, seed: int, run, gate: Gate):
    base = f"{RUN_DIR}/{workload}"
    reference = _reference(workload, seed)
    config = run_config(workload, seed, f"{base}/out")

    plain_dir, traced_dir = ROOT / base / "untraced", ROOT / base / "traced"
    plain = run(
        {"kind": "scenario", "config": config, "snapshot": str(plain_dir), "machine": True}
    )
    gate.record(f"{workload} untraced", check.reference_problems(plain_dir, reference))
    trace_file = ROOT / RUN_DIR / f"spans_{workload}_seed{seed}.json"
    tr = run(
        {
            "kind": "trace",
            "config": config,
            "snapshot": str(traced_dir),
            "run_id": f"{workload}/seed{seed}",
            "trace_file": str(trace_file),
        }
    )
    problems = check.reference_problems(traced_dir, reference)
    if check.digests(traced_dir) != check.digests(plain_dir):
        problems.append("traced outputs not byte-identical to the untraced run")
    gate.record(f"{workload} traced", problems)

    kern = run({"kind": "kernels", "config": config})

    scaling = {}
    for workers in SCALING_WORKERS:
        snap = ROOT / base / f"scaling_w{workers}"
        out = run(
            {
                "kind": "scenario",
                "config": scaling_config(seed, workers, f"{base}/out"),
                "snapshot": str(snap),
            }
        )
        problems = check.invariant_problems(check.read_summary(snap), ["norm_deviation"])
        digests = _without_provenance(check.digests(snap))
        if scaling and digests != next(iter(scaling.values()))[1]:
            problems.append("long-chain tables differ between worker counts")
        gate.record(f"long-chain scaling, workers={workers}", problems)
        scaling[workers] = (out["scenario_s"], digests)

    spans = tr["spans"]
    metrics = {}
    for name, field in SPAN_METRICS:
        metrics[f"{name}.{field}"] = spans.get(name, {}).get(field, 0 if field == "calls" else 0.0)
    for name in KERNEL_METRICS:
        metrics[name] = kern[name]
    w1, w2 = SCALING_WORKERS
    metrics["thermal.monte_carlo.speedup_2w"] = scaling[w1][0] / scaling[w2][0]
    metrics["cli.bytes_written"] = tr["bytes_written"]
    metrics["scenarios.self_s"] = sum(
        row["self_s"] for name, row in spans.items() if name.startswith("scenarios.")
    )
    metrics["process.cpu_per_wall"] = plain["cpu_s"] / plain["scenario_s"]
    metrics["trace.overhead_frac"] = tr["scenario_s"] / plain["scenario_s"] - 1.0
    metrics["repo.src_lines"] = src_lines()

    root_s = spans["scenario"]["busy_s"]
    layer_map = {
        name: dict(row, self_share=row["self_s"] / root_s) for name, row in sorted(spans.items())
    }
    log(f"layer map of the traced run ({root_s:.3f} s):")
    for name, row in layer_map.items():
        log(
            f"  {name:40s} calls {row['calls']:5d}  busy {row['busy_s']:9.4f} s  "
            f"self {row['self_s']:9.4f} s  ({100 * row['self_share']:5.1f}%)"
        )
    accounted = sum(row["self_s"] for row in spans.values()) / root_s
    log(f"  summed self times / traced scenario_s = {accounted:.6f}")
    record = {
        "untraced": plain,
        "traced": tr,
        "kernels": kern,
        "scaling_s": {w: s for w, (s, _) in scaling.items()},
        "layer_map": layer_map,
        "self_accounted_frac": accounted,
        "trace_file": str(trace_file.relative_to(ROOT)),
    }
    return metrics, plain.get("machine"), record


def unit_of(name: str) -> str:
    units = {**END_TO_END, **KERNEL_METRICS, **RUN_METRICS}
    return units.get(name, "count" if name.endswith(".calls") else "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running worker before the exit propagates
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "xychain" / "__init__.py").is_file():
        log(f"error: no xychain sources under {ROOT / 'src'}")
        return 2
    shutil.rmtree(ROOT / RUN_DIR / args.workload, ignore_errors=True)
    (ROOT / RUN_DIR).mkdir(exist_ok=True)
    run = Runner(time.monotonic() + TIME_LIMIT_S)
    gate = Gate()
    try:
        if args.trace:
            metrics, machine, record = traced(args.workload, args.seed, run, gate)
        else:
            metrics, machine, record = end_to_end(
                args.workload, args.seed, args.seconds, run, gate
            )
    except WorkerError as exc:
        log(f"error: {exc}")
        return 1
    machine = dict(machine or {}, workers=WORKLOADS[args.workload]["workers"])
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {
            name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()
        },
    }
    record_path = ROOT / RUN_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    record_path.write_text(
        json.dumps(
            {"args": vars(args), "machine": machine, "result": result, "detail": record},
            indent=2,
        )
        + "\n"
    )
    print(json.dumps({"machine": machine}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
