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
from .errors import ConfigurationError, config_float, config_from_json, config_int, config_json
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

METHOD_LABELS = {
    "average": "1. average scores",
    "reviewer": "2. reviewer rankings",
    "author": "3. author rankings",
    "combined": "4. combined",
}
METHODS = tuple(METHOD_LABELS)


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
        if not isinstance(self.gen, GenConfig):
            raise ConfigurationError(f"gen must be a GenConfig, got {self.gen!r}")
        object.__setattr__(self, "repetitions", config_int(self.repetitions, "repetitions"))
        object.__setattr__(self, "blend", config_float(self.blend, "blend"))
        if self.master_seed is not None:
            object.__setattr__(self, "master_seed", check_master_seed(self.master_seed))
        if self.repetitions < 1:
            raise ConfigurationError(f"repetitions must be >= 1, got {self.repetitions}")
        if not isinstance(self.cases, tuple) or not all(isinstance(c, str) for c in self.cases):
            raise ConfigurationError(f"cases must be a tuple of names, got {self.cases!r}")
        if not self.cases:
            raise ConfigurationError("at least one noise case is required")
        names = tuple(get_noise_case(name).name for name in self.cases)
        for i, name in enumerate(names):
            if name in names[:i]:
                raise ConfigurationError(f"noise case {name!r} is named twice in cases")
        object.__setattr__(self, "cases", names)
        if not 0.0 <= self.blend <= 1.0:
            raise ConfigurationError(f"blend must lie in [0, 1], got {self.blend}")
        if not isinstance(self.output_path, (str, type(None))):
            raise ConfigurationError(f"output_path must be a string, got {self.output_path!r}")
        if self.output_format not in FORMATS:
            raise ConfigurationError(
                f"output_format must be one of {FORMATS}, got {self.output_format!r}"
            )

    @property
    def effective_seed(self) -> int:
        """The master seed the run uses: ``master_seed``, or ``DEFAULT_MASTER_SEED`` when None."""
        return self.master_seed if self.master_seed is not None else DEFAULT_MASTER_SEED

    def to_json(self) -> dict:
        return config_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        return config_from_json(cls, obj, "experiment")


_COLUMNS = ("case", "method", "mean_rmse", "sd_rmse")


@dataclass(eq=False)
class ResultsTable:
    """Mean and standard deviation of RMSE per (case, method); a table equals only itself."""

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

    def _rows(self):
        """``(case, method, mean, sd)`` for every cell, case by case."""
        for i, case in enumerate(self.cases):
            for j, method in enumerate(self.methods):
                yield case, method, float(self.mean_rmse[i, j]), float(self.sd_rmse[i, j])

    def to_csv(self) -> str:
        rows = (f"{c},{m},{mean!r},{sd!r}" for c, m, mean, sd in self._rows())
        return "\n".join((",".join(_COLUMNS), *rows)) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "master_seed": self.master_seed,
            "repetitions": self.repetitions,
            "results": [dict(zip(_COLUMNS, row)) for row in self._rows()],
        }

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


_RENDERERS = {
    "csv": ResultsTable.to_csv,
    "json": lambda table: json.dumps(table.to_json_obj(), indent=2) + "\n",
    "table": ResultsTable.to_text,
}
FORMATS = tuple(_RENDERERS)


def _run_cell(
    conference: Conference, owners: OwnerPartition, seed: int, blend: float, task: tuple
) -> list[float]:
    case_name, case_idx, rep = task
    rng = stream(seed, PURPOSE_SCORES, case_idx, rep)
    final, _raw, rankings = generate_final_scores(conference, NOISE_CASES[case_name], rng)
    avg = avg_scores(final, conference)
    reviewer_est = calibrate_reviewer(avg, rankings, blend)
    author_est = calibrate_author(avg, owners)
    combined_est = calibrate_author(reviewer_est, owners)  # combined: reviewer, then author
    truth = conference.true_scores
    return [rmse(e, truth) for e in (avg, reviewer_est, author_est, combined_est)]


# a pool worker's cell state, set once per worker by _init_worker; in-process runs never touch it.
# Under fork, initargs reach the workers through inherited memory, while a functools.partial of
# _run_cell is pickled with every chunk: the partial raised peak RSS by about 6 % on the default
# conference (47.5 to 50.5 MB) and on capacity 6 (49.0 to 52.0 MB).
_WORKER: dict = {}


def _init_worker(conference: Conference, owners: OwnerPartition, seed: int, blend: float) -> None:
    _WORKER.update(conference=conference, owners=owners, seed=seed, blend=blend)


def _pooled_cell(task: tuple) -> list[float]:
    return _run_cell(**_WORKER, task=task)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ResultsTable:
    """Run every (case, repetition) cell and aggregate mean/sd RMSEs.

    Cells run in task order, case by case and repetition by repetition,
    and each returns one RMSE per method, so their results reshape into
    one (case, repetition, method) array. The standard deviation is the
    population sd across repetitions (zero for a single repetition).
    Output is fully determined by the config and seed, for any worker
    count.
    """
    workers = config_int(workers, "workers")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    seed = config.effective_seed
    conference = gen_conference(config.gen, stream(seed, PURPOSE_CONFERENCE))
    owners = build_owner_partition(conference)
    registry = list(NOISE_CASES)
    tasks = [
        (case_name, registry.index(case_name), rep)
        for case_name in config.cases
        for rep in range(config.repetitions)
    ]
    # a pool forks all its workers up front, so never ask for more than there are cells
    workers = min(workers, len(tasks))
    state = (conference, owners, seed, config.blend)
    if workers == 1:
        rows = [_run_cell(*state, task) for task in tasks]
    else:
        with ProcessPoolExecutor(workers, initializer=_init_worker, initargs=state) as pool:
            rows = list(pool.map(_pooled_cell, tasks))
    cells = np.asarray(rows).reshape(len(config.cases), config.repetitions, len(METHODS))
    return ResultsTable(
        cases=config.cases,
        methods=METHODS,
        mean_rmse=cells.mean(axis=1),
        sd_rmse=cells.std(axis=1, ddof=0),
        repetitions=config.repetitions,
        master_seed=seed,
    )


def emit_results(table: ResultsTable, output_format: str, path: str | None) -> None:
    """Write the table as CSV, JSON or a text grid to a file or stdout."""
    payload = _RENDERERS[output_format](table)
    if path is None:
        sys.stdout.write(payload)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)
