"""Workloads, passes, tracing and the correctness gate of the review-calib benchmark.

The benchmark drives the package only through its public functions:

* the untraced pass times ``run_experiment`` end to end, at 1 and 2 workers;
* the traced pass rebuilds every cell (one noise case x one repetition) from
  the per-module calls that ``bench._run_cell`` makes, with one in-memory span
  per call, and must reproduce ``run_experiment``'s CSV byte for byte.

Nothing here is imported by the package; ``run.py`` is the command line.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from review_calib import (
    NOISE_CASES,
    Conference,
    DiscreteDistribution,
    ExperimentConfig,
    GenConfig,
    OwnerPartition,
    ResultsTable,
    avg_scores,
    build_owner_partition,
    calibrate_author,
    full_ranking,
    gen_conference,
    generate_final_scores,
    get_noise_case,
    hierarchical_tiers,
    isotonic_project_indexed,
    rmse,
    run_experiment,
    scaled_config,
)
from review_calib.bench import METHODS
from review_calib.seeding import PURPOSE_CONFERENCE, PURPOSE_SCORES, stream

MIN_SETUPS = 3
"""Fewest set-ups per run; ``setup_s`` is their median."""

TAIL_BEYOND = 10
"""A tail percentile must leave at least this many samples above it."""

TAILED_SPANS = (
    "bench.cell",
    "scoring.generate_final_scores",
    "ranking.hierarchical_tiers",
    "estimators.calibrate_author",
)
MEDIAN_SPANS = (
    "estimators.avg_scores",
    "ranking.full_ranking",
    "isotonic.isotonic_project_indexed",
    "estimators.rmse",
)


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a conference config, the noise cases and repetitions."""

    name: str
    gen: GenConfig
    cases: tuple[str, ...]
    repetitions: int
    check_base_ordering: bool = False

    def config(self, seed: int) -> ExperimentConfig:
        return ExperimentConfig(
            gen=self.gen, cases=self.cases, repetitions=self.repetitions, master_seed=seed
        )

    @property
    def cells(self) -> int:
        return len(self.cases) * self.repetitions


ALL_CASES = tuple(NOISE_CASES)

# Why each workload exists is recorded in BENCHMARK.json and NOTES.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("default", GenConfig(), ALL_CASES, 2, check_base_ordering=True),
        Workload("scaled-65k", scaled_config(GenConfig(), 65380), ("Base",), 2),
        Workload(
            "capacity-6",
            GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(6)),
            ALL_CASES,
            2,
        ),
    )
}


# --------------------------------------------------------------------- tracing


@dataclass
class Span:
    name: str
    trace: str
    parent: int | None
    start: float
    end: float = math.nan

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory spans; ``trace`` names the cell that the spans belong to."""

    spans: list[Span] = field(default_factory=list)
    trace: str = ""
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        record = Span(name, self.trace, parent, time.perf_counter())
        self.spans.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args):
        with self.span(name):
            return fn(*args)

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def self_seconds(self, name: str) -> list[float]:
        """Span duration minus the time its (sequential) child spans cover."""
        child_time = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.seconds
        return [
            s.seconds - child_time.get(i, 0.0) for i, s in enumerate(self.spans) if s.name == name
        ]

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "trace": s.trace, "parent": s.parent, "start": s.start, "end": s.end}
            for s in self.spans
        ]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with >= 10 samples beyond it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    k = n - TAIL_BEYOND
    return sorted(values)[k - 1], 100.0 * k / n


# ----------------------------------------------------------------- the passes


@dataclass
class Setup:
    conference: Conference
    owners: OwnerPartition
    seconds: float


def set_up(workload: Workload, seed: int, tracer: Tracer | None = None) -> Setup:
    """What ``run_experiment`` does before its first cell, timed as ``setup_s``."""
    tracer = tracer or Tracer()
    tracer.trace = "setup"
    start = time.perf_counter()
    conf = tracer.call(
        "conference.gen_conference", gen_conference, workload.gen, stream(seed, PURPOSE_CONFERENCE)
    )
    owners = tracer.call("estimators.build_owner_partition", build_owner_partition, conf)
    return Setup(conf, owners, time.perf_counter() - start)


def tasks(workload: Workload) -> list[tuple[str, int, int]]:
    """(case, case registry index, repetition) in ``run_experiment``'s order."""
    registry = list(NOISE_CASES)
    names = [get_noise_case(name).name for name in workload.cases]
    return [(c, registry.index(c), rep) for c in names for rep in range(workload.repetitions)]


def traced_cell(tracer: Tracer, setup: Setup, seed: int, blend: float, task):
    """One cell from the public per-module calls; mirrors ``bench._run_cell``."""
    case_name, case_idx, rep = task
    conf, owners = setup.conference, setup.owners
    with tracer.span("bench.cell"):
        rng = stream(seed, PURPOSE_SCORES, case_idx, rep)
        final, _raw, rankings = tracer.call(
            "scoring.generate_final_scores",
            generate_final_scores,
            conf,
            NOISE_CASES[case_name],
            rng,
        )
        avg = tracer.call("estimators.avg_scores", avg_scores, final, conf)
        # calibrate_reviewer's three calls
        tiers = tracer.call(
            "ranking.hierarchical_tiers", hierarchical_tiers, rankings, range(len(avg))
        )
        order = tracer.call("ranking.full_ranking", full_ranking, tiers, avg)
        reviewer = tracer.call(
            "isotonic.isotonic_project_indexed", isotonic_project_indexed, avg, order, blend
        )
        author = tracer.call("estimators.calibrate_author", calibrate_author, avg, owners)
        combined = tracer.call("estimators.calibrate_author", calibrate_author, reviewer, owners)
        errors = [
            tracer.call("estimators.rmse", rmse, est, conf.true_scores)
            for est in (avg, reviewer, author, combined)
        ]
    return errors, rankings, tiers


@dataclass
class TracedPass:
    csv: str
    cells: int
    failed: int
    cell_seconds: float
    counts: dict[str, int]


def traced_pass(workload: Workload, seed: int, setup: Setup, tracer: Tracer) -> TracedPass:
    """Every cell of the workload, traced, aggregated exactly as ``run_experiment`` does."""
    config = workload.config(seed)
    results: dict[tuple[str, int], list[float]] = {}
    failed = 0
    counts: dict[str, int] = {}
    start = len(tracer.spans)
    cells = tasks(workload)
    for task in cells:
        case_name, _, rep = task
        tracer.trace = f"{case_name}/{rep}"
        try:
            errors, rankings, tiers = traced_cell(tracer, setup, seed, config.blend, task)
        except Exception:  # a failed cell is counted, never fatal to the run
            traceback.print_exc(file=sys.stderr)
            errors = [math.nan] * len(METHODS)
        else:
            if not counts:
                counts = structure_counts(rankings, tiers)
        if not all(math.isfinite(e) for e in errors):
            failed += 1
        results[(case_name, rep)] = errors
    case_names = tuple(dict.fromkeys(c for c, _, _ in cells))
    mean = np.zeros((len(case_names), len(METHODS)))
    sd = np.zeros_like(mean)
    for i, case_name in enumerate(case_names):
        rows = np.asarray([results[(case_name, rep)] for rep in range(workload.repetitions)])
        mean[i] = rows.mean(axis=0)
        sd[i] = rows.std(axis=0, ddof=0)
    table = ResultsTable(
        cases=case_names,
        methods=METHODS,
        mean_rmse=mean,
        sd_rmse=sd,
        repetitions=workload.repetitions,
        master_seed=config.effective_seed,
    )
    cell_seconds = sum(s.seconds for s in tracer.spans[start:] if s.name == "bench.cell")
    return TracedPass(table.to_csv(), len(results), failed, cell_seconds, counts)


def structure_counts(rankings, tiers) -> dict[str, int]:
    """Exact counts from one cell's rankings and tier decomposition."""
    sizes = np.asarray([len(r) for r in rankings], dtype=np.int64)
    last = np.zeros(sum(len(t) for t in tiers.tiers), dtype=bool)
    last[tiers.tiers[-1]] = True
    owner = np.repeat(np.arange(len(rankings)), sizes)
    papers = np.concatenate([np.asarray(r, dtype=np.int64) for r in rankings])
    # The last tier is a cyclic remainder iff some ranking orders two of its papers.
    in_last = np.bincount(owner[last[papers]], minlength=len(rankings))
    remainder = len(tiers.tiers[-1]) if np.any(in_last >= 2) else 0
    return {
        "scoring.bundles": int(np.count_nonzero(sizes)),
        "scoring.bundle_size_max": int(sizes.max()),
        "ranking.pairs": int((sizes * (sizes - 1) // 2).sum()),
        "ranking.tiers": len(tiers.tiers),
        "ranking.top_tier": len(tiers.tiers[0]),
        "ranking.remainder_tier": remainder,
    }


@dataclass
class Untraced:
    run_s: list[float] = field(default_factory=list)
    run_s_2w: list[float] = field(default_factory=list)
    csvs: list[str] = field(default_factory=list)
    cells: int = 0
    failed: int = 0


def untraced_round(workload: Workload, seed: int, out: Untraced) -> None:
    """``run_experiment`` at 1 and then 2 workers, timed end to end."""
    config = workload.config(seed)
    for workers, times in ((1, out.run_s), (2, out.run_s_2w)):
        out.cells += workload.cells
        start = time.perf_counter()
        try:
            table = run_experiment(config, workers=workers)
        except Exception:  # every cell of a run that raised counts as failed
            traceback.print_exc(file=sys.stderr)
            out.failed += workload.cells
            out.csvs.append("")
            continue
        times.append(time.perf_counter() - start)
        out.csvs.append(table.to_csv())


# ------------------------------------------------------------------- the gate


def parse_csv(csv: str) -> dict[tuple[str, str], float]:
    lines = csv.strip().splitlines()
    if not lines or lines[0] != "case,method,mean_rmse,sd_rmse":
        raise ValueError("results CSV has no header")
    out = {}
    for line in lines[1:]:
        case, method, mean, _sd = line.split(",")
        out[(case, method)] = float(mean)
    return out


def check_outputs(workload: Workload, csvs: list[str], traced_csvs: list[str]) -> list[str]:
    """Problems with the run's results; an empty list means the gate passed.

    ``csvs`` alternate the 1- and 2-worker runs of the untraced pass.
    """
    problems = []
    if not csvs or not traced_csvs:
        return ["no results to check"]
    reference = csvs[0]
    for i, csv in enumerate(csvs):
        if csv != reference:
            problems.append(f"untraced run {i} ({1 + i % 2} workers) differs from run 0")
    for i, csv in enumerate(traced_csvs):
        if csv != reference:
            problems.append(f"traced pass {i} differs from the untraced CSV")
    try:
        means = parse_csv(reference)
        for csv in set(csvs) | set(traced_csvs):
            for line in csv.strip().splitlines()[1:]:
                if not all(math.isfinite(float(v)) for v in line.split(",")[2:]):
                    problems.append(f"non-finite RMSE: {line}")
    except ValueError as exc:
        return problems + [f"unreadable CSV: {exc}"]
    expected = {(c, m) for c in workload.cases for m in METHODS}
    if set(means) != expected:
        problems.append("CSV rows do not match the workload's cases and methods")
    elif workload.check_base_ordering and "Base" in workload.cases:
        avg, rev, aut, comb = (means[("Base", m)] for m in METHODS)
        if not (comb < rev < avg and comb < aut):
            problems.append(
                f"Base ordering broken: combined {comb}, reviewer {rev}, average {avg}, "
                f"author {aut}"
            )
    return problems


# ------------------------------------------------------------------- the run


def peak_rss_mb() -> float:
    """High-water RSS of this process or of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def provenance(root: Path, workload: Workload, seed: int) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "workload": workload.name,
        "config": workload.config(seed).to_json(),
    }


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    problems: list[str]
    end_to_end: dict[str, tuple[float, str]]
    per_layer: dict[str, tuple[float, str]]
    detail: dict
    spans: list[dict]


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run of a workload; see NOTES.md for the metric definitions.

    Both modes set up once, then run rounds of set-up, 1-worker and 2-worker
    runs while another round is expected to end within ``seconds``. With ``trace`` off one traced
    pass runs first, for the gate; with it on every round ends with a traced
    pass, and traced passes go on until every tailed span has a tail.
    """
    tracer = Tracer()
    setup = set_up(workload, seed, tracer)
    setups = [setup.seconds]
    validate_s = math.nan
    if trace:
        tracer.trace = "setup"
        with tracer.span("conference.validate") as span:
            setup.conference.validate()
        validate_s = span.seconds

    traced: list[TracedPass] = []
    untraced = Untraced()
    if not trace:
        traced.append(traced_pass(workload, seed, setup, tracer))
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        # a set-up in every round pairs it in time with that round's runs
        setups.append(set_up(workload, seed, tracer).seconds)
        untraced_round(workload, seed, untraced)
        if trace:
            traced.append(traced_pass(workload, seed, setup, tracer))
        # start no round that is expected to end past the deadline
        if 2 * time.perf_counter() - round_start > deadline:
            break
    while trace and len(tracer.durations("bench.cell")) <= TAIL_BEYOND:
        traced.append(traced_pass(workload, seed, setup, tracer))
    while len(setups) < MIN_SETUPS:
        setups.append(set_up(workload, seed, tracer).seconds)
    setup_s = statistics.median(setups)

    problems = check_outputs(workload, untraced.csvs, [t.csv for t in traced])
    failed = untraced.failed + sum(t.failed for t in traced)
    attempted = untraced.cells + sum(t.cells for t in traced)
    if failed:
        problems.append(f"{failed} of {attempted} cells failed")
    correct = not problems and bool(untraced.run_s) and bool(untraced.run_s_2w)

    run_s = statistics.median(untraced.run_s) if untraced.run_s else math.nan
    run_s_2w = statistics.median(untraced.run_s_2w) if untraced.run_s_2w else math.nan
    # each 1-worker run minus the set-up timed just before it
    cell_s = [r - s for r, s in zip(untraced.run_s, setups[1:])]
    cells_per_s = workload.cells / statistics.median(cell_s) if cell_s else math.nan
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "run_s": (run_s, "s"),
        "run_s_2w": (run_s_2w, "s"),
        "cells_per_s": (cells_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {
        "cells": workload.cells,
        "cells_failed": failed,
        "cells_attempted": attempted,
        "untraced_rounds": len(untraced.run_s_2w),
        "run_s_samples": untraced.run_s,
        "run_s_2w_samples": untraced.run_s_2w,
        "setup_s_samples": setups,
        "traced_passes": len(traced),
        "traced_cells_s": [t.cell_seconds for t in traced],
    }
    per_layer = {}
    if trace and correct:
        per_layer = layer_metrics(tracer, setup, traced, setup_s, run_s, run_s_2w, validate_s)
    spans = tracer.to_json() if trace else []
    return Result(correct, attempted, failed, problems, end_to_end, per_layer, detail, spans)


def layer_metrics(tracer, setup, traced, setup_s, run_s, run_s_2w, validate_s):
    ms = 1000.0
    out: dict[str, tuple[float, str]] = {
        "conference.gen_conference.s": (
            statistics.median(tracer.durations("conference.gen_conference")),
            "s",
        ),
        "conference.validate.s": (validate_s, "s"),
        "conference.papers": (setup.conference.n_papers, "count"),
        "conference.reviewers": (setup.conference.n_reviewers, "count"),
        "conference.slots": (setup.conference.n_slots, "count"),
        "estimators.build_owner_partition.s": (
            statistics.median(tracer.durations("estimators.build_owner_partition")),
            "s",
        ),
        "estimators.owners": (len(setup.owners.owners), "count"),
        "estimators.owned_papers": (setup.owners.n_owned, "count"),
    }
    out.update({name: (value, "count") for name, value in traced[0].counts.items()})
    for name in TAILED_SPANS:
        values = tracer.durations(name)
        value, pct = tail(values)
        out[f"{name}.ms_p50"] = (statistics.median(values) * ms, "ms")
        out[f"{name}.ms_tail"] = (value * ms, "ms")
        out[f"{name}.tail_pct"] = (pct, "%")
        out[f"{name}.n"] = (len(values), "count")
    out["bench.cell.self_ms_p50"] = (statistics.median(tracer.self_seconds("bench.cell")) * ms, "ms")
    for name in MEDIAN_SPANS:
        out[f"{name}.ms_p50"] = (statistics.median(tracer.durations(name)) * ms, "ms")
    traced_cells_s = statistics.median(t.cell_seconds for t in traced)
    untraced_cells_s = run_s - setup_s
    out["bench.tracing_overhead.pct"] = (
        100.0 * (traced_cells_s - untraced_cells_s) / untraced_cells_s,
        "%",
    )
    out["bench.pool.s"] = (run_s_2w - setup_s - traced_cells_s / 2, "s")
    return out
