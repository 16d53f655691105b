"""Command line of the review-calib benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload default --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

The package is imported from ``src/`` next to this directory, never from an
installed copy, so the benchmark measures the checkout it sits in. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``). A fuller report, with
provenance and, when tracing, every span, is written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD_TIMEOUT_S = 900


def import_package():
    """Import review_calib from the checkout's ``src/``, or exit with an error."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import review_calib
    except ImportError as exc:
        sys.exit(f"error: cannot import review_calib from {src}: {exc}")
    if not Path(review_calib.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"error: review_calib was imported from {review_calib.__file__}, not {src}")


def print_metrics(metrics: dict[str, tuple[float, str]]) -> None:
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name.ljust(width)}  {value:.6g} {unit}")


def run_one(args, harness) -> int:
    workload = harness.WORKLOADS[args.workload]
    provenance = harness.provenance(ROOT, workload, args.seed)
    print(f"provenance: {json.dumps(provenance)}")
    result = harness.run(workload, args.seed, args.seconds, bool(args.trace))
    for problem in result.problems:
        print(f"gate failed: {problem}", file=sys.stderr)
    metrics = result.per_layer if args.trace else result.end_to_end
    print(f"{workload.name}: {workload.cells} cells per run, gate {'passed' if result.correct else 'FAILED'}")
    print(f"  cells_failed  {result.failed} count of {result.attempted} attempted")
    if metrics:
        print_metrics(metrics)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    report = {
        "provenance": provenance,
        "correct": result.correct,
        "problems": result.problems,
        "end_to_end": result.end_to_end,
        "per_layer": result.per_layer,
        "detail": result.detail,
        "spans": result.spans,
    }
    path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if result.correct else 1


def run_all(args, harness) -> int:
    """Each workload in a fresh process, so ``peak_rss_mb`` is its own high-water mark."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in harness.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            child = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: workload {name} printed no result (exit {proc.returncode})", file=sys.stderr)
            return 1
        summary["correct"] &= child["correct"] and proc.returncode == 0
        summary["attempted"] += child["attempted"]
        summary["failed"] += child["failed"]
        for metric, value in child["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    import_package()
    import harness

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*harness.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return (run_all if args.workload == "all" else run_one)(args, harness)


if __name__ == "__main__":
    sys.exit(main())
