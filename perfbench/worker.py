"""Benchmark worker: one fresh interpreter per measured job.

Usage: ``python3 perfbench/worker.py '<job as JSON>'``, from the repository
root.  The job's ``kind`` is one of

* ``setup``     import the package and resolve the run config;
* ``scenario``  the same, then run the scenario and write its outputs;
* ``trace``     as ``scenario``, with every public function of the layer
                modules wrapped by the span recorder;
* ``kernels``   time the master-equation and chain kernels on synthetic
                inputs through the public ``readout_scan`` and
                ``propagate_time_dependent``.

The worker prints one JSON object as the last line of its standard output.
Nothing but the standard library is imported before the set-up clock starts.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, summarize

LAYERS = ("scenarios", "obe", "xy", "thermal", "detection", "analysis", "cli")

#: Free-evolution span (us) timed per kernel configuration (atoms, batch).
KERNEL_SPANS_US = {(2, 1): 0.25, (3, 1): 0.25, (2, 100): 0.25, (3, 100): 0.1}
KERNEL_TEMPERATURE_UK = 50.0
KERNEL_SPACING_UM = 20.0
CHAIN_ATOMS = 20
CHAIN_REALIZATIONS = 3


def setup(root: Path, raw_config: dict):
    """Import the package from ``root/src`` and resolve the run config."""
    src = root / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import xychain
    from xychain import cli

    config = cli.validate_config_dict(raw_config)
    params = cli.build_params(config.params)
    setup_s = time.perf_counter() - start
    if Path(xychain.__file__).resolve().parent != (src / "xychain").resolve():
        raise RuntimeError(f"xychain imported from {xychain.__file__}, not from {src}")
    return config, params, setup_s


def run_scenario(config, params, tracer=None) -> dict:
    """One scenario, from ``run_scenario`` through ``cli.write_outputs``."""
    from xychain import cli, scenarios

    outer = tracer.span("scenario") if tracer else contextlib.nullcontext()
    cpu0 = time.process_time()
    start = time.perf_counter()
    with outer:
        # looked up at call time, so that wrapped functions are the ones run
        result = scenarios.run_scenario(
            config.scenario,
            params=params,
            seed=config.seed,
            options=config.options,
            workers=config.workers,
        )
        written = cli.write_outputs(result, config)
    wall = time.perf_counter() - start
    return {
        "scenario_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "bytes_written": sum(p.stat().st_size for p in written),
    }


def snapshot(output_dir: str, target: str) -> None:
    """Move the run's output directory aside, so the next run writes afresh."""
    shutil.rmtree(target, ignore_errors=True)
    Path(target).parent.mkdir(parents=True, exist_ok=True)
    os.replace(output_dir, target)


def traced_run(config, params, job: dict) -> dict:
    tracer = Tracer(job["run_id"])
    for layer in LAYERS:
        tracer.wrap_module(importlib.import_module(f"xychain.{layer}"), layer)
    try:
        out = run_scenario(config, params, tracer)
    finally:
        tracer.restore()
    records = tracer.records()
    Path(job["trace_file"]).write_text(json.dumps(records) + "\n")
    out["spans"] = summarize(records)
    return out


def _median_time(func, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernels(seed: int) -> dict:
    """Per-kernel costs on synthetic inputs, through public entry points only."""
    import numpy as np
    from xychain import obe, scenarios, thermal, xy
    from xychain.model import ChainGeometry, PhysicalParams

    params = PhysicalParams(temperature=KERNEL_TEMPERATURE_UK)

    def samples(n_atoms: int, batch: int):
        seeds = thermal.realization_seeds(seed, batch)
        return [thermal.sample_thermal(params, n_atoms, s) for s in seeds]

    out = {}
    for (n_atoms, batch), span in KERNEL_SPANS_US.items():
        geometry = ChainGeometry.line(n_atoms, KERNEL_SPACING_UM)
        # batch 1 is the static (motionless) engine, batch 100 moving atoms
        trajectories = None if batch == 1 else samples(n_atoms, batch)
        initial = "u" + "d" * (n_atoms - 1)
        repeats = 3 if batch > 1 else 7

        def scan(taus, suffix=()):
            return obe.readout_scan(
                geometry, params, [], taus, list(suffix), trajectories, initial
            )

        scan([0.0, span])  # warm-up: operator tables, allocator
        base = _median_time(lambda: scan([0.0]), repeats)
        free = _median_time(lambda: scan([0.0, span]), repeats)
        out[f"obe.free_s_per_us.n{n_atoms}_b{batch}"] = (free - base) / span
        if (n_atoms, batch) == (3, 100):
            suffix = scenarios.deexcite_suffix(params, n_atoms)
            branch = _median_time(lambda: scan([0.0], suffix), repeats)
            out["obe.readout_branch_s.n3_b100"] = branch - base

    geometry = ChainGeometry.line(CHAIN_ATOMS, KERNEL_SPACING_UM)
    initial = xy.SpinState.excitation_at(CHAIN_ATOMS, 0)
    taus = np.linspace(0.0, 10.0, 201)
    per_realization = []
    for sample in samples(CHAIN_ATOMS, CHAIN_REALIZATIONS):
        start = time.perf_counter()
        xy.propagate_time_dependent(geometry, params, sample, "full", initial, taus)
        per_realization.append(time.perf_counter() - start)
    out["xy.s_per_realization.n20"] = statistics.median(per_realization)
    return out


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return None


def machine_block() -> dict:
    """The machine and library stack the run measured."""
    import numpy
    import scipy

    blas = None
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError):
        pass
    caches = {}
    cache_root = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_root.glob("index*")):
        level = _read_text(index / "level")
        kind = _read_text(index / "type")
        size = _read_text(index / "size")
        if level and kind and size:
            caches[f"L{level.strip()}_{kind.strip().lower()}"] = size.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "numba": importlib.util.find_spec("numba") is not None,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(job: dict) -> dict:
    root = Path(job["root"])
    config, params, setup_s = setup(root, job["config"])
    out = {"setup_s": setup_s}
    if job["kind"] in ("scenario", "trace"):
        if job["kind"] == "trace":
            out.update(traced_run(config, params, job))
        else:
            out.update(run_scenario(config, params))
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        snapshot(config.output_dir, job["snapshot"])
    elif job["kind"] == "kernels":
        out.update(kernels(config.seed))
    if job.get("machine"):
        out["machine"] = machine_block()
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
