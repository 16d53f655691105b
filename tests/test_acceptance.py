"""End-to-end acceptance suite.

Each test prints one ``[criterion N] name: PASS/FAIL`` line (run pytest
with ``-s`` to see them live). The expensive full-scale benchmark runs are
shared through session fixtures: the default-seed run doubles as the first
of the five seeds used for the ordering robustness checks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import kendalltau

from oracles import (
    ComparisonGraph,
    TransitionMatrix,
    build_transition_matrix,
    isotonic_qp_oracle,
    pl_ranking_prob,
    sample_pl_ranking,
    stationary_distribution,
    two_state_stationary,
    validate_tiers,
)
from review_calib import (
    DiscreteDistribution,
    ExperimentConfig,
    GenConfig,
    NOISE_CASES,
    gen_conference,
    generate_final_scores,
    hierarchical_tiers,
    run_experiment,
    scaled_config,
)
from review_calib.cli import main as cli_main
from review_calib.conference import DEFAULT_MASTER_SEED
from review_calib.isotonic import NON_DECREASING, NON_INCREASING, isotonic_fit
from review_calib.seeding import PURPOSE_CONFERENCE, PURPOSE_SCORES, stream

SEEDS = tuple(DEFAULT_MASTER_SEED + k for k in range(5))
GOLDEN_CSV = Path(__file__).parent / "data" / "default_seed42.csv"
README = Path(__file__).parents[1] / "README.md"
RUNTIME_BUDGET_SECONDS = 300.0
_WORKERS = min(4, os.cpu_count() or 1)


def _report(criterion: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {criterion}] {name}: {status}{suffix}")
    assert ok, f"criterion {criterion} {name} failed{suffix}"


def _means(table, case):
    return {method: table.cell(case, method)[0] for method in table.methods}


def _biased_case_ordering_holds(table, case) -> bool:
    m = _means(table, case)
    return m["combined"] < m["reviewer"] < m["author"] < m["average"]


@pytest.fixture(scope="session")
def default_run():
    start = time.perf_counter()
    table = run_experiment(ExperimentConfig(), workers=_WORKERS)
    elapsed = time.perf_counter() - start
    return table, elapsed


@pytest.fixture(scope="session")
def seed_runs(default_run):
    tables = {SEEDS[0]: default_run[0]}
    for seed in SEEDS[1:]:
        tables[seed] = run_experiment(ExperimentConfig(master_seed=seed), workers=_WORKERS)
    return tables


@pytest.fixture(scope="session")
def default_conference():
    return gen_conference(GenConfig(), stream(DEFAULT_MASTER_SEED, PURPOSE_CONFERENCE))


@pytest.fixture(scope="session")
def default_base_cell(default_conference):
    rng = stream(DEFAULT_MASTER_SEED, PURPOSE_SCORES, 0, 0)
    return generate_final_scores(default_conference, NOISE_CASES["Base"], rng)


def test_criterion_1_base_ordering_and_runtime(default_run):
    table, elapsed = default_run
    m = _means(table, "Base")
    ordering = _biased_case_ordering_holds(table, "Base")
    detail = (
        f"combined {m['combined']:.3f} < reviewer {m['reviewer']:.3f} < "
        f"author {m['author']:.3f} < average {m['average']:.3f}; "
        f"5x10 cells in {elapsed:.0f}s"
    )
    _report(1, "base-case ordering with defaults", ordering and elapsed < RUNTIME_BUDGET_SECONDS, detail)


def test_criterion_2_orderings_across_seeds(seed_runs):
    failures = []
    details = []
    for case in ("NoVariance", "BigBias", "BigVariance"):
        hits = sum(_biased_case_ordering_holds(t, case) for t in seed_runs.values())
        details.append(f"{case} {hits}/5")
        if hits < 4:
            failures.append(case)
    nobias_hits = 0
    for table in seed_runs.values():
        m = _means(table, "NoBias")
        if m["author"] == min(m.values()) and m["reviewer"] > m["average"]:
            nobias_hits += 1
    details.append(f"NoBias {nobias_hits}/5")
    if nobias_hits < 4:
        failures.append("NoBias")
    _report(2, "case orderings on >=4 of 5 seeds", not failures, "; ".join(details))


def test_criterion_3_magnitude_plausibility(default_run):
    table, _ = default_run
    base = table.cell("Base", "average")[0]
    big_bias = table.cell("BigBias", "average")[0]
    ok = 0.6 <= base <= 1.1 and big_bias > base
    _report(3, "benchmark magnitudes", ok, f"Base avg {base:.3f}, BigBias avg {big_bias:.3f}")


def test_criterion_4_isotonic_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for k in range(1000):
        n = int(rng.integers(1, 9))
        values = rng.normal(0, 3, n)
        weights = rng.uniform(0.1, 5.0, n) if k % 2 else None
        direction = NON_INCREASING if k % 3 else NON_DECREASING
        fit = isotonic_fit(values, weights, direction)
        oracle = isotonic_qp_oracle(values, weights, direction)
        worst = max(worst, float(np.max(np.abs(fit - oracle))))
    _report(4, "isotonic matches exhaustive QP oracle", worst < 1e-6, f"max deviation {worst:.2e}")


def test_criterion_5_plackett_luce_correctness():
    theta = np.array([math.log(2.0), 0.0, 0.0])
    perms = list(itertools.permutations(range(3)))
    probs = {p: pl_ranking_prob(theta, np.array(p)) for p in perms}
    total = sum(probs.values())
    exact = probs[(0, 1, 2)] == 0.25
    sums = abs(total - 1.0) < 1e-12

    rng = np.random.default_rng(99)
    n = 100_000
    counts = {p: 0 for p in perms}
    for _ in range(n):
        counts[tuple(sample_pl_ranking(theta, rng).tolist())] += 1
    within = True
    for p in perms:
        prob = probs[p]
        tol = 3 * math.sqrt(prob * (1 - prob) / n)
        if abs(counts[p] / n - prob) > tol:
            within = False
    _report(
        5,
        "sequential-choice ranking probabilities and sampler",
        exact and sums and within,
        f"P(1>2>3)={probs[(0, 1, 2)]!r}, sum={total!r}",
    )


def test_criterion_6_score_generation_invariants(default_conference, default_base_cell):
    final, raw, rankings = default_base_cell
    conf = default_conference
    monotone = True
    max_rel_drift = 0.0
    for r in range(conf.n_reviewers):
        lo, hi = int(conf.reviewer_ptr[r]), int(conf.reviewer_ptr[r + 1])
        if hi == lo:
            continue
        papers = conf.slot_papers[lo:hi]
        position = {int(p): k for k, p in enumerate(rankings[r])}
        order = np.argsort([position[int(p)] for p in papers])
        if np.any(np.diff(final[lo:hi][order]) > 1e-12):
            monotone = False
        total_raw = raw[lo:hi].sum()
        drift = abs(final[lo:hi].sum() - total_raw) / max(1.0, abs(total_raw))
        max_rel_drift = max(max_rel_drift, drift)
    ok = monotone and max_rel_drift <= 1e-9
    _report(6, "final scores obey rankings and preserve totals", ok,
            f"max relative drift {max_rel_drift:.2e}")


def test_criterion_7_tier_properties(default_base_cell, default_conference):
    # partition + top-tier size on the default seed's Base simulation, then
    # top-tier size across the remaining seeds
    _, _, rankings = default_base_cell
    n = default_conference.n_papers
    tiers = hierarchical_tiers(rankings, range(n))
    validate_tiers(tiers, range(n))
    g1_sizes = [len(tiers.tiers[0])]
    for seed in SEEDS[1:]:
        conf = gen_conference(GenConfig(), stream(seed, PURPOSE_CONFERENCE))
        _, _, rks = generate_final_scores(
            conf, NOISE_CASES["Base"], stream(seed, PURPOSE_SCORES, 0, 0)
        )
        seed_tiers = hierarchical_tiers(rks, range(conf.n_papers))
        validate_tiers(seed_tiers, range(conf.n_papers))
        g1_sizes.append(len(seed_tiers.tiers[0]))

    order = [4, 1, 3, 0, 2]
    pair_rankings = [
        np.array([order[i], order[j]]) for i in range(5) for j in range(i + 1, 5)
    ]
    singleton = hierarchical_tiers(pair_rankings, range(5))
    validate_tiers(singleton, range(5))
    acyclic_ok = [t.tolist() for t in singleton.tiers] == [[p] for p in order]

    sizes_ok = all(500 <= g for g in g1_sizes) and all(g <= 2000 for g in g1_sizes)
    _report(7, "tier partition, acyclic order, top-tier size", acyclic_ok and sizes_ok,
            f"G1 sizes {g1_sizes}")


def test_criterion_8_spectral_oracle():
    rng = np.random.default_rng(77)
    closed_ok = True
    for _ in range(10):
        a, b = rng.uniform(0.05, 0.95, size=2)
        tm = TransitionMatrix(papers=np.array([0, 1]), matrix=np.array([[1 - a, a], [b, 1 - b]]))
        pi = stationary_distribution(tm, tol=1e-12)
        if np.max(np.abs(pi - two_state_stationary(a, b))) >= 1e-10:
            closed_ok = False

    n, per_pair = 50, 10_000
    theta = np.linspace(0.0, 3.0, n)
    graph = ComparisonGraph()
    for i in range(n):
        for j in range(i + 1, n):
            p_i = 1.0 / (1.0 + math.exp(theta[j] - theta[i]))
            wins_i = int(rng.binomial(per_pair, p_i))
            if wins_i:
                graph.add(i, j, wins_i)
            if per_pair - wins_i:
                graph.add(j, i, per_pair - wins_i)
    pi = stationary_distribution(build_transition_matrix(graph, range(n)))
    tau = float(kendalltau(theta, pi).statistic)
    _report(8, "spectral oracle (closed form + ordering recovery)",
            closed_ok and tau >= 0.9, f"kendall tau {tau:.3f}")


def test_full_scale_stability_and_assignment_degrees(default_run, default_conference):
    # supporting checks at benchmark scale: repetition noise stays small and
    # every paper carries 3 or 4 reviews
    table, _ = default_run
    per_paper = np.bincount(
        default_conference.slot_papers, minlength=default_conference.n_papers
    )
    assert float(table.sd_rmse.max()) <= 0.03
    assert per_paper.min() == 3 and per_paper.max() == 4


def _readme_results_table() -> str:
    """The fenced block of README.md that holds the results grid."""
    blocks = README.read_text(encoding="utf-8").split("```")
    grid = next(b for b in blocks[1::2] if "1. average scores" in b)
    return grid.lstrip("\n")


def test_default_run_reproduces_golden_csv_and_readme_table(default_run):
    # the CSV was captured from the per-reviewer implementation; any change
    # to what a default run computes shows up here byte for byte
    table, _ = default_run
    assert table.to_csv().encode("utf-8") == GOLDEN_CSV.read_bytes()
    assert table.to_text() == _readme_results_table()


# sha256 of run_experiment(...).to_csv(), recorded before Conference checked itself when built.
# The CSV prints every mean and sd RMSE with repr, so a one-ulp change to any of them shows.
GOLDEN_SEED_SHA256 = {
    43: "4b4140680dbd53b3242a2eee5745fcbfb11034a0b1d2a2b0cc4bb7fb9d040e1a",
    44: "c34bf2316d53704ba9ac95db5948b43ffa563f3ebf061b5ff65e538104cc2560",
    45: "b223aa42232aa43f904b002b5c4eddd03e839dae22bb8da4d20be4df63d22ba9",
    46: "488a6c979be6a73e0efa7af07b72e0a267bc7d74ac5e9f455de932143bb8d377",
}
# seed 42, two repetitions of every case
GOLDEN_WORKLOADS = {
    "capacity-6": (
        GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(6)),
        "d95df51e63d499c134868d71dce9204aa9686b6faa315202f6a83e21cfc8a94a",
    ),
    "scaled-1000": (
        scaled_config(GenConfig(), 1000),
        "a526e4f6296a037f3d187a738ee17254e86865708ca5f83b8f53d6f6dd1d0ab6",
    ),
}


def _csv_sha256(table) -> str:
    return hashlib.sha256(table.to_csv().encode("utf-8")).hexdigest()


def test_acceptance_seeds_reproduce_golden_digests(seed_runs):
    assert {seed: _csv_sha256(seed_runs[seed]) for seed in GOLDEN_SEED_SHA256} == GOLDEN_SEED_SHA256


@pytest.mark.parametrize("workload", sorted(GOLDEN_WORKLOADS))
def test_workload_reproduces_golden_digest(workload):
    gen, digest = GOLDEN_WORKLOADS[workload]
    assert _csv_sha256(run_experiment(ExperimentConfig(gen=gen, repetitions=2))) == digest


def test_criterion_9_determinism_across_workers(tmp_path):
    config = {
        "gen": {
            "n_papers": 800,
            "n_authors": 2268,
            "author_multiplicity_targets": [[2, 551], [5, 62], [10, 9], [15, 3]],
        },
        "cases": ["Base", "NoBias"],
        "repetitions": 3,
        "output_format": "csv",
    }
    config_file = tmp_path / "experiment.json"
    config_file.write_text(json.dumps(config))
    outputs = []
    for workers in (1, 8):
        out = tmp_path / f"out_w{workers}.csv"
        code = cli_main(
            ["--config", str(config_file), "--seed", "5150",
             "--out", str(out), "--workers", str(workers)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    _report(9, "byte-identical CSV for 1 and 8 workers", outputs[0] == outputs[1],
            f"{len(outputs[0])} bytes")
