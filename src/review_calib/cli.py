"""Command-line entry point for the benchmark runner.

Exit codes: 0 success, 2 configuration error, 3 generation infeasibility,
4 I/O failure. The REVIEW_CALIB_SEED environment variable overrides
--seed when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace

from .bench import FORMATS, ExperimentConfig, emit_results, run_experiment
from .errors import ConfigurationError, GenerationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_IO = 4

SEED_ENV_VAR = "REVIEW_CALIB_SEED"


def _case_names(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="review-calib",
        description=(
            "Simulate a synthetic conference, generate review scores under "
            "configurable reviewer noise, and compare four score estimators by RMSE."
        ),
    )
    parser.add_argument("--config", metavar="PATH", help="JSON experiment configuration file")
    # every other flag but --workers stores into the ExperimentConfig field it sets
    seed_help = f"master seed (env {SEED_ENV_VAR} overrides)"
    parser.add_argument("--seed", dest="master_seed", metavar="SEED", type=int, help=seed_help)
    parser.add_argument("--cases", type=_case_names, help="comma-separated noise case names")
    parser.add_argument(
        "--reps", dest="repetitions", metavar="REPS", type=int, help="repetitions per case"
    )
    parser.add_argument("--blend", type=float, help="reviewer-calibration blend weight in [0, 1]")
    parser.add_argument(
        "--out", dest="output_path", metavar="PATH", help="output file (default: stdout)"
    )
    parser.add_argument("--format", dest="output_format", choices=FORMATS, help="output format")
    parser.add_argument("--workers", type=int, default=1, help="parallel worker processes")
    return parser


def _refuse_repeated_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigurationError(f"config repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        return ExperimentConfig()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_refuse_repeated_keys)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_json(obj)


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    names = {f.name for f in fields(ExperimentConfig)}
    updates = {k: v for k, v in vars(args).items() if k in names and v is not None}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            updates["master_seed"] = int(env_seed)
        except ValueError as exc:
            raise ConfigurationError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
    return replace(config, **updates)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _apply_overrides(_load_config(args.config), args)
        table = run_experiment(config, workers=args.workers)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    # only an OSError while writing is an output failure; one from the worker pool is not
    try:
        emit_results(table, config.output_format, config.output_path)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
