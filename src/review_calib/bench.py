"""Benchmark harness: simulate scores repeatedly and compare estimators.

The conference is generated once per run; every (noise case, repetition)
cell then simulates fresh review scores from its own derived random
stream and evaluates the four estimators. Cells are independent, so they
can run in a process pool; results are identical for any worker count
because each cell's stream is addressed by (case registry index,
repetition) rather than by execution order.
"""

from __future__ import annotations

import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .conference import DEFAULT_MASTER_SEED, Conference, GenConfig, gen_conference
from .errors import ConfigurationError, config_float, config_int
from .estimators import (
    OwnerPartition,
    avg_scores,
    build_owner_partition,
    calibrate_author,
    calibrate_reviewer,
    rmse,
)
from .scoring import NOISE_CASES, generate_final_scores, get_noise_case
from .seeding import PURPOSE_CONFERENCE, PURPOSE_SCORES, check_master_seed, stream

METHODS = ("average", "reviewer", "author", "combined")
METHOD_LABELS = {
    "average": "1. average scores",
    "reviewer": "2. reviewer rankings",
    "author": "3. author rankings",
    "combined": "4. combined",
}
FORMATS = ("csv", "json", "table")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full benchmark description; serialisable to/from JSON."""

    gen: GenConfig = field(default_factory=GenConfig)
    cases: tuple[str, ...] = tuple(NOISE_CASES)
    repetitions: int = 10
    blend: float = 0.5
    master_seed: int | None = None
    output_path: str | None = None
    output_format: str = "table"

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {self.repetitions}")
        if not self.cases:
            raise ConfigurationError("at least one noise case is required")
        for name in self.cases:
            get_noise_case(name)
        if not 0.0 <= self.blend <= 1.0:
            raise ConfigurationError(f"blend must lie in [0, 1], got {self.blend}")
        if self.output_format not in FORMATS:
            raise ConfigurationError(
                f"output_format must be one of {FORMATS}, got {self.output_format!r}"
            )
        if self.master_seed is not None:
            check_master_seed(self.master_seed)

    @property
    def effective_seed(self) -> int:
        """The master seed the run uses: ``master_seed``, or ``DEFAULT_MASTER_SEED`` when None."""
        return self.master_seed if self.master_seed is not None else DEFAULT_MASTER_SEED

    def to_json(self) -> dict:
        return {
            "gen": self.gen.to_json(),
            "cases": list(self.cases),
            "repetitions": self.repetitions,
            "blend": self.blend,
            "master_seed": self.master_seed,
            "output_path": self.output_path,
            "output_format": self.output_format,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        if not isinstance(obj, dict):
            raise ConfigurationError(f"experiment config must be a JSON object, got {obj!r}")
        kwargs = {}
        for key, value in obj.items():
            if key == "gen":
                kwargs["gen"] = GenConfig.from_json(value)
            elif key == "cases":
                if not isinstance(value, list):
                    raise ConfigurationError(f"cases must be a list of names, got {value!r}")
                kwargs["cases"] = tuple(str(c) for c in value)
            elif key == "repetitions":
                kwargs["repetitions"] = config_int(value, key)
            elif key == "blend":
                kwargs["blend"] = config_float(value, key)
            elif key == "master_seed":
                kwargs["master_seed"] = None if value is None else config_int(value, key)
            elif key in ("output_path", "output_format"):
                if not isinstance(value, str) and not (value is None and key == "output_path"):
                    raise ConfigurationError(f"{key} must be a string, got {value!r}")
                kwargs[key] = value
            else:
                raise ConfigurationError(f"unknown experiment option {key!r}")
        return cls(**kwargs)


@dataclass
class ResultsTable:
    """Mean and standard deviation of RMSE per (case, method)."""

    cases: tuple[str, ...]
    methods: tuple[str, ...]
    mean_rmse: np.ndarray
    sd_rmse: np.ndarray
    repetitions: int
    master_seed: int

    def cell(self, case: str, method: str) -> tuple[float, float]:
        i = self.cases.index(case)
        j = self.methods.index(method)
        return float(self.mean_rmse[i, j]), float(self.sd_rmse[i, j])

    def to_csv(self) -> str:
        lines = ["case,method,mean_rmse,sd_rmse"]
        for i, case in enumerate(self.cases):
            for j, method in enumerate(self.methods):
                lines.append(
                    f"{case},{method},{float(self.mean_rmse[i, j])!r},{float(self.sd_rmse[i, j])!r}"
                )
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "repetitions": self.repetitions,
            "results": [
                {
                    "case": case,
                    "method": method,
                    "mean_rmse": float(self.mean_rmse[i, j]),
                    "sd_rmse": float(self.sd_rmse[i, j]),
                }
                for i, case in enumerate(self.cases)
                for j, method in enumerate(self.methods)
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ResultsTable":
        cases: list[str] = []
        methods: list[str] = []
        for row in obj["results"]:
            if row["case"] not in cases:
                cases.append(row["case"])
            if row["method"] not in methods:
                methods.append(row["method"])
        mean = np.zeros((len(cases), len(methods)))
        sd = np.zeros((len(cases), len(methods)))
        for row in obj["results"]:
            i = cases.index(row["case"])
            j = methods.index(row["method"])
            mean[i, j] = row["mean_rmse"]
            sd[i, j] = row["sd_rmse"]
        return cls(
            cases=tuple(cases),
            methods=tuple(methods),
            mean_rmse=mean,
            sd_rmse=sd,
            repetitions=int(obj["repetitions"]),
            master_seed=int(obj["master_seed"]),
        )

    def to_text(self) -> str:
        """Grid with methods as rows and cases as columns; '*' marks column minima."""
        col_min = self.mean_rmse.argmin(axis=1)
        header = ["method".ljust(22)] + [case.rjust(16) for case in self.cases]
        lines = ["".join(header)]
        for j, method in enumerate(self.methods):
            row = [METHOD_LABELS.get(method, method).ljust(22)]
            for i in range(len(self.cases)):
                mark = "*" if col_min[i] == j else " "
                row.append(f"{mark}{self.mean_rmse[i, j]:.3f} ({self.sd_rmse[i, j]:.3f})".rjust(16))
            lines.append("".join(row))
        lines.append(f"(seed {self.master_seed}, {self.repetitions} repetitions; '*' = column best)")
        return "\n".join(lines) + "\n"


_WORKER: dict = {}


def _init_worker(conference: Conference, owners: OwnerPartition, seed: int, blend: float) -> None:
    _WORKER["conference"] = conference
    _WORKER["owners"] = owners
    _WORKER["seed"] = seed
    _WORKER["blend"] = blend


def _run_cell(task: tuple[str, int, int]) -> tuple[tuple[str, int], list[float]]:
    case_name, case_idx, rep = task
    conference: Conference = _WORKER["conference"]
    owners: OwnerPartition = _WORKER["owners"]
    rng = stream(_WORKER["seed"], PURPOSE_SCORES, case_idx, rep)
    final, _raw, rankings = generate_final_scores(conference, NOISE_CASES[case_name], rng)
    avg = avg_scores(final, conference)
    reviewer_est = calibrate_reviewer(avg, rankings, _WORKER["blend"])
    author_est = calibrate_author(avg, owners)
    combined_est = calibrate_author(reviewer_est, owners)  # == calibrate_combined
    truth = conference.true_scores
    return (case_name, rep), [rmse(e, truth) for e in (avg, reviewer_est, author_est, combined_est)]


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ResultsTable:
    """Run every (case, repetition) cell and aggregate mean/sd RMSEs.

    The standard deviation is the population sd across repetitions (zero
    for a single repetition). Output is fully determined by the config and
    seed, for any worker count.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    seed = config.effective_seed
    conference = gen_conference(config.gen, stream(seed, PURPOSE_CONFERENCE))
    owners = build_owner_partition(conference)
    case_names = [get_noise_case(name).name for name in config.cases]
    registry = list(NOISE_CASES)
    tasks = [
        (case_name, registry.index(case_name), rep)
        for case_name in case_names
        for rep in range(config.repetitions)
    ]
    results: dict[tuple[str, int], list[float]] = {}
    if workers == 1:
        _init_worker(conference, owners, seed, config.blend)
        for task in tasks:
            key, value = _run_cell(task)
            results[key] = value
    else:
        with ProcessPoolExecutor(
            max_workers=workers,
            initializer=_init_worker,
            initargs=(conference, owners, seed, config.blend),
        ) as pool:
            for key, value in pool.map(_run_cell, tasks):
                results[key] = value
    mean = np.zeros((len(case_names), len(METHODS)))
    sd = np.zeros_like(mean)
    for i, case_name in enumerate(case_names):
        cells = np.asarray([results[(case_name, rep)] for rep in range(config.repetitions)])
        mean[i] = cells.mean(axis=0)
        sd[i] = cells.std(axis=0, ddof=0)
    return ResultsTable(
        cases=tuple(case_names),
        methods=METHODS,
        mean_rmse=mean,
        sd_rmse=sd,
        repetitions=config.repetitions,
        master_seed=seed,
    )


def emit_results(table: ResultsTable, output_format: str, path: str | None) -> None:
    """Write the table as CSV, JSON or a text grid to a file or stdout."""
    if output_format == "csv":
        payload = table.to_csv()
    elif output_format == "json":
        payload = json.dumps(table.to_json_obj(), indent=2) + "\n"
    elif output_format == "table":
        payload = table.to_text()
    else:
        raise ConfigurationError(f"output_format must be one of {FORMATS}, got {output_format!r}")
    if path is None:
        sys.stdout.write(payload)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
