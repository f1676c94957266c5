"""Correctness gate of a benchmark run.

A run's output directory passes when

* every table matches the stored reference of its workload and scenario
  seed: same files, columns and rows, tau within 1e-9 and every probability
  column within 1e-6 absolute (the master-equation engine's stated accuracy);
* the summary's invariants hold (trace and norm deviation <= 1e-8, pattern
  sums within 1e-9 of one) and its realization count equals the reference's.

Byte identity between repeated runs is checked on the files' SHA-256 digests.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

PROBABILITY_ATOL = 1e-6
TAU_ATOL = 1e-9
INVARIANTS = {
    "max_trace_deviation": 1e-8,
    "norm_deviation": 1e-8,
    "pattern_sum_deviation": 1e-9,
}
PROVENANCE = "provenance.yaml"


def digests(run_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.iterdir())
        if p.is_file()
    }


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.strip().splitlines()
    columns = lines[0].split(",")
    return columns, [[float(v) for v in line.split(",")] for line in lines[1:]]


def read_summary(run_dir: Path) -> dict:
    (path,) = run_dir.glob("*_summary.json")
    return json.loads(path.read_text())


def work_size(run_dir: Path) -> int:
    """Realizations times tau points of a run."""
    table = next(iter(sorted(run_dir.glob("*.csv"))))
    _, rows = parse_table(table.read_text())
    return read_summary(run_dir)["n_realizations"] * len(rows)


def invariant_problems(summary: dict, required=()) -> list[str]:
    problems = [f"summary lacks {key}" for key in required if key not in summary]
    for key, limit in INVARIANTS.items():
        if key in summary and not abs(summary[key]) <= limit:
            problems.append(f"{key} = {summary[key]!r} exceeds {limit}")
    return problems


def _table_problems(name: str, got: str, want: str) -> list[str]:
    got_cols, got_rows = parse_table(got)
    want_cols, want_rows = parse_table(want)
    if got_cols != want_cols:
        return [f"{name}: columns {got_cols} != reference {want_cols}"]
    if len(got_rows) != len(want_rows):
        return [f"{name}: {len(got_rows)} rows != reference {len(want_rows)}"]
    worst = 0.0
    for g, w in zip(got_rows, want_rows):
        if abs(g[0] - w[0]) > TAU_ATOL:
            return [f"{name}: tau {g[0]} != reference {w[0]}"]
        worst = max([worst] + [abs(a - b) for a, b in zip(g[1:], w[1:])])
    if not worst <= PROBABILITY_ATOL:
        return [f"{name}: max |difference| {worst:.3g} from reference exceeds {PROBABILITY_ATOL}"]
    return []


def reference_problems(run_dir: Path, ref_dir: Path) -> list[str]:
    if not ref_dir.is_dir():
        return [f"no reference at {ref_dir}"]
    got = {p.name for p in run_dir.iterdir() if p.name != PROVENANCE}
    want = {p.name[: -len(".gz")] for p in ref_dir.glob("*.gz")}
    if got != want:
        return [f"output files {sorted(got)} != reference {sorted(want)}"]
    if not (run_dir / PROVENANCE).is_file():
        return [f"{PROVENANCE} missing"]
    problems = []
    for name in sorted(want):
        reference = gzip.decompress((ref_dir / f"{name}.gz").read_bytes()).decode()
        if name.endswith(".csv"):
            problems += _table_problems(name, (run_dir / name).read_text(), reference)
    ref_summary = json.loads(
        gzip.decompress(next(ref_dir.glob("*_summary.json.gz")).read_bytes())
    )
    summary = read_summary(run_dir)
    if summary.get("n_realizations") != ref_summary.get("n_realizations"):
        problems.append(
            f"n_realizations {summary.get('n_realizations')} != "
            f"reference {ref_summary.get('n_realizations')}"
        )
    required = [key for key in INVARIANTS if key in ref_summary]
    return problems + invariant_problems(summary, required)
