"""Command-line front end: scenario selection, configuration, serialization.

Configuration is a YAML document (comments and nesting supported) merged
with command-line overrides; precedence is flags > environment > file >
defaults.  A run writes, into the output directory:

* one delimited text table per requested observable
  (``<scenario>_<table>.csv``, header row, tau in us first, 9 significant
  digits),
* ``<scenario>_summary.json`` with fits, eigenvalues, beat frequencies and
  contrast metrics,
* ``provenance.yaml``, the fully resolved configuration plus seed and
  version; feeding it back through ``run`` reproduces every output byte for
  byte.

Exit codes: 0 success, 2 configuration error, 3 numerical failure, 4 I/O
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, DataError, FitError, IntegrationError, XYChainError
from .model import PhysicalParams
from .scenarios import SCENARIOS, ScenarioResult, catalog, run_scenario, scenario_options
from .xy import RANGE_MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ENV_OUTPUT_DIR = "XYCHAIN_OUTPUT_DIR"
ENV_WORKERS = "XYCHAIN_WORKERS"

_PARAM_KEYS = {f.name for f in dataclasses.fields(PhysicalParams)}
_TABLE_DELIMS = {"csv": ",", "tsv": "\t"}


@dataclasses.dataclass
class RunConfig:
    """Fully resolved run configuration."""

    scenario: str
    seed: int = 1234
    output_dir: str = "results"
    table_format: str = "csv"
    workers: int = 1
    params: dict = dataclasses.field(default_factory=dict)
    options: dict = dataclasses.field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


# ``version`` is informational: provenance records carry it
_TOP_LEVEL_KEYS = {f.name for f in dataclasses.fields(RunConfig)} | {"version"}


def _check_mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"config: {path or '<root>'}: expected a mapping, got {type(node).__name__}")
    return node


def validate_config_dict(raw: dict) -> RunConfig:
    """Validate a raw config mapping; unknown keys are rejected with paths."""
    raw = _check_mapping(raw, "")
    for key in raw:
        if key not in _TOP_LEVEL_KEYS:
            raise ConfigError(
                f"config: {key}: unknown key (expected one of: "
                f"{', '.join(sorted(_TOP_LEVEL_KEYS))})"
            )
    scenario = raw.get("scenario")
    if not scenario or not isinstance(scenario, str):
        raise ConfigError("config: scenario: required, must name a scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"config: scenario: unknown scenario {scenario!r} "
            f"(expected one of: {', '.join(sorted(SCENARIOS))})"
        )
    params = _check_mapping(raw.get("params"), "params")
    for key in params:
        if key not in _PARAM_KEYS:
            raise ConfigError(
                f"config: params.{key}: unknown key (expected one of: "
                f"{', '.join(sorted(_PARAM_KEYS))})"
            )
    options = _check_mapping(raw.get("options"), "options")
    try:
        scenario_options(scenario, options)
    except ConfigError as exc:
        raise ConfigError(f"config: {exc}") from None
    table_format = raw.get("table_format", "csv")
    if table_format not in _TABLE_DELIMS:
        raise ConfigError(
            f"config: table_format: expected one of {sorted(_TABLE_DELIMS)}, "
            f"got {table_format!r}"
        )
    seed = raw.get("seed", 1234)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"config: seed: expected a non-negative integer, got {seed!r}")
    workers = raw.get("workers", 1)
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ConfigError(f"config: workers: expected a positive integer, got {workers!r}")
    return RunConfig(
        scenario=scenario,
        seed=seed,
        output_dir=str(raw.get("output_dir", "results")),
        table_format=table_format,
        workers=workers,
        params=dict(params),
        options=dict(options),
    )


def _load_raw(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: {path}: invalid YAML: {exc}") from exc
    return _check_mapping(raw, "")


def load_config(path) -> RunConfig:
    return validate_config_dict(_load_raw(path))


def _parse_set_value(text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError:
        return text


def apply_override(raw: dict, dotted_key: str, value) -> None:
    """Set ``a.b.c`` = value inside a nested mapping, creating levels."""
    parts = dotted_key.split(".")
    node = raw
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise ConfigError(f"config: {dotted_key}: {part} is not a mapping")
        node = child
    node[parts[-1]] = value


def build_params(overrides: dict) -> PhysicalParams:
    return PhysicalParams(**{k: _delistify(v) for k, v in overrides.items()})


def _delistify(value):
    # YAML lists arrive as python lists; per-atom params accept sequences
    return tuple(value) if isinstance(value, list) else value


def _format_value(x: float) -> str:
    return f"{x:.9g}"


def write_table(path: Path, columns, data: np.ndarray, delimiter: str) -> None:
    lines = [delimiter.join(columns)]
    for row in data:
        lines.append(delimiter.join(_format_value(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def read_table(path) -> tuple[list[str], np.ndarray]:
    """Load a table written by :func:`write_table` (round-trip helper)."""
    text = Path(path).read_text().strip().splitlines()
    delimiter = "\t" if "\t" in text[0] else ","
    columns = text[0].split(delimiter)
    data = np.array([[float(v) for v in line.split(delimiter)] for line in text[1:]])
    return columns, data


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    return value


def write_outputs(result: ScenarioResult, config: RunConfig) -> list[Path]:
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    delimiter = _TABLE_DELIMS[config.table_format]
    suffix = config.table_format
    written = []
    for name, table in sorted(result.tables.items()):
        path = out_dir / f"{result.scenario}_{name}.{suffix}"
        write_table(path, table.columns, table.data, delimiter)
        written.append(path)
    summary_path = out_dir / f"{result.scenario}_summary.json"
    summary_path.write_text(
        json.dumps(_json_ready(result.summary), indent=2, sort_keys=True) + "\n"
    )
    written.append(summary_path)
    # the config with the options the scenario resolved
    provenance = dict(config.to_dict(), options=result.options, version=__version__)
    provenance_path = out_dir / "provenance.yaml"
    provenance_path.write_text(
        "# resolved configuration; re-running it reproduces all outputs\n"
        + yaml.safe_dump(_json_ready(provenance), sort_keys=True)
    )
    written.append(provenance_path)
    return written


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xychain",
        description="Simulate coherent excitation transfer in dipolar spin chains.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario or a config file")
    run.add_argument(
        "target",
        help="scenario name or path to a YAML config file",
    )
    run.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dotted paths allowed, e.g. options.tau_max=5)",
    )
    run.add_argument("--seed", type=int, default=None, help="master seed")
    run.add_argument("--output-dir", default=None, help="output directory")
    run.add_argument("--workers", type=int, default=None, help="worker cap")
    run.add_argument(
        "--table-format", choices=sorted(_TABLE_DELIMS), default=None
    )
    run.add_argument(
        "--ideal", action="store_true", help="shortcut for --set options.mode=ideal"
    )
    run.add_argument(
        "--range",
        dest="range_mode",
        choices=RANGE_MODES,
        default=None,
        help="shortcut for --set options.range_mode=...",
    )
    run.add_argument(
        "--n-realizations",
        type=int,
        default=None,
        help="shortcut for --set options.n_realizations=...",
    )

    sub.add_parser("list-scenarios", help="print the scenario catalog")

    val = sub.add_parser("validate-config", help="check a config file")
    val.add_argument("config", help="path to a YAML config file")
    return parser


def _assemble_run_config(args) -> RunConfig:
    target = args.target
    if target.endswith((".yaml", ".yml")) or os.path.sep in target or Path(target).is_file():
        raw = _load_raw(target)
    else:
        if target not in SCENARIOS:
            raise ConfigError(
                f"config: {target!r} is neither a config file nor a scenario "
                f"(expected one of: {', '.join(sorted(SCENARIOS))})"
            )
        raw = {"scenario": target}

    if ENV_OUTPUT_DIR in os.environ:
        raw["output_dir"] = os.environ[ENV_OUTPUT_DIR]
    if ENV_WORKERS in os.environ:
        try:
            raw["workers"] = int(os.environ[ENV_WORKERS])
        except ValueError as exc:
            raise ConfigError(f"config: {ENV_WORKERS}: not an integer") from exc

    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        apply_override(raw, key.strip(), _parse_set_value(value))
    if args.ideal:
        apply_override(raw, "options.mode", "ideal")
    if args.range_mode is not None:
        apply_override(raw, "options.range_mode", args.range_mode)
    if args.n_realizations is not None:
        apply_override(raw, "options.n_realizations", args.n_realizations)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.output_dir is not None:
        raw["output_dir"] = args.output_dir
    if args.workers is not None:
        raw["workers"] = args.workers
    if args.table_format is not None:
        raw["table_format"] = args.table_format
    return validate_config_dict(raw)


def cmd_run(args) -> int:
    try:
        config = _assemble_run_config(args)
        params = build_params(config.params)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        result = run_scenario(
            config.scenario,
            params=params,
            seed=config.seed,
            options=config.options,
            workers=config.workers,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FitError, IntegrationError, DataError) as exc:
        print(f"numerical failure in scenario {config.scenario!r}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except XYChainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    try:
        written = write_outputs(result, config)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    for path in written:
        print(path)
    return EXIT_OK


def cmd_list_scenarios() -> int:
    for spec in catalog():
        print(f"{spec.name}  [{spec.anchor}]")
        print(f"  {spec.summary}")
        for key, (default, help_text) in spec.options.items():
            print(f"    {key} (default {default!r}): {help_text}")
    return EXIT_OK


def cmd_validate_config(args) -> int:
    try:
        config = load_config(args.config)
        build_params(config.params)
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"ok: scenario {config.scenario!r}, seed {config.seed}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "list-scenarios":
        return cmd_list_scenarios()
    if args.command == "validate-config":
        return cmd_validate_config(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
