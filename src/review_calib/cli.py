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
from dataclasses import replace

from .bench import FORMATS, ExperimentConfig, emit_results, run_experiment
from .errors import ConfigurationError, GenerationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GENERATION = 3
EXIT_IO = 4

SEED_ENV_VAR = "REVIEW_CALIB_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="review-calib",
        description=(
            "Simulate a synthetic conference, generate review scores under "
            "configurable reviewer noise, and compare four score estimators by RMSE."
        ),
    )
    parser.add_argument("--config", metavar="PATH", help="JSON experiment configuration file")
    parser.add_argument("--seed", type=int, help=f"master seed (env {SEED_ENV_VAR} overrides)")
    parser.add_argument("--cases", help="comma-separated noise case names")
    parser.add_argument("--reps", type=int, help="repetitions per case")
    parser.add_argument("--blend", type=float, help="reviewer-calibration blend weight in [0, 1]")
    parser.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=FORMATS, help="output format")
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
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_json(obj)


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    updates: dict = {}
    seed = args.seed
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigurationError(f"{SEED_ENV_VAR}={env_seed!r} is not an integer") from exc
    if seed is not None:
        updates["master_seed"] = seed
    if args.cases is not None:
        updates["cases"] = tuple(c.strip() for c in args.cases.split(",") if c.strip())
    if args.reps is not None:
        updates["repetitions"] = args.reps
    if args.blend is not None:
        updates["blend"] = args.blend
    if args.out is not None:
        updates["output_path"] = args.out
    if args.format is not None:
        updates["output_format"] = args.format
    return replace(config, **updates) if updates else config


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _apply_overrides(_load_config(args.config), args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        table = run_experiment(config, workers=args.workers)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GenerationError as exc:
        print(f"generation error: {exc}", file=sys.stderr)
        return EXIT_GENERATION
    try:
        emit_results(table, config.output_format, config.output_path)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
