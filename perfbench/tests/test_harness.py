"""Smoke test of the benchmark on a 150-paper conference.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
from review_calib import GenConfig, scaled_config  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = harness.Workload("tiny", scaled_config(GenConfig(), 150), ("Base", "NoBias"), 3)


@pytest.fixture(scope="module")
def untraced():
    return harness.run(TINY, seed=42, seconds=0.05, trace=False)


def test_untraced_run_emits_every_end_to_end_metric(untraced):
    assert untraced.correct, untraced.problems
    assert untraced.failed == 0 and untraced.attempted >= 3 * TINY.cells
    units = {name: unit for name, (_, unit) in untraced.end_to_end.items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in untraced.end_to_end.values())


def test_traced_run_emits_every_per_layer_metric():
    result = harness.run(TINY, seed=42, seconds=0.05, trace=True)
    assert result.correct, result.problems
    units = {name: unit for name, (_, unit) in result.per_layer.items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert result.per_layer["conference.papers"][0] == 150
    assert result.per_layer["bench.cell.n"][0] > harness.TAIL_BEYOND
    names = {span["name"] for span in result.spans}
    assert {"bench.cell", "estimators.rmse", "conference.validate"} <= names


def test_gate_rejects_a_doctored_csv():
    reference = harness.traced_pass(TINY, 42, harness.set_up(TINY, 42), harness.Tracer()).csv
    assert harness.check_outputs(TINY, [reference, reference], [reference]) == []
    header, first, *rest = reference.splitlines(keepends=True)
    case, method, mean, sd = first.rstrip("\n").split(",")
    doctored = header + f"{case},{method},{float(mean) + 1e-12!r},{sd}\n" + "".join(rest)
    assert harness.check_outputs(TINY, [reference, doctored], [reference])
    assert harness.check_outputs(TINY, [reference, reference], [doctored])
    nan = header + f"{case},{method},nan,{sd}\n" + "".join(rest)
    assert harness.check_outputs(TINY, [nan, nan], [nan])


def test_failed_cells_are_counted(monkeypatch):
    setup = harness.set_up(TINY, 42)
    monkeypatch.setattr(harness, "rmse", lambda est, truth: math.nan)
    assert harness.traced_pass(TINY, 42, setup, harness.Tracer()).failed == TINY.cells

    def broken(*args):
        raise ValueError("broken cell")

    monkeypatch.setattr(harness, "generate_final_scores", broken)
    assert harness.traced_pass(TINY, 42, setup, harness.Tracer()).failed == TINY.cells


def test_gate_checks_the_base_ordering():
    ordered = harness.Workload("ordered", TINY.gen, ("Base",), 1, check_base_ordering=True)
    rows = {"average": 0.8, "reviewer": 0.66, "author": 0.7, "combined": 0.6}
    good = "case,method,mean_rmse,sd_rmse\n" + "".join(
        f"Base,{m},{rows[m]!r},0.0\n" for m in harness.METHODS
    )
    assert harness.check_outputs(ordered, [good, good], [good]) == []
    bad = good.replace("Base,combined,0.6", "Base,combined,0.75")
    assert harness.check_outputs(ordered, [bad, bad], [bad])


def test_tail_leaves_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    assert harness.tail(values) == (30.0, 75.0)
    with pytest.raises(ValueError):
        harness.tail(values[:10])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
