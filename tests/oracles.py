"""Independent reference implementations used to check the fast paths.

These deliberately avoid the package's algorithms: the isotonic oracle
enumerates candidate block partitions of the quadratic program, the
ranking-probability oracle evaluates the sequential-choice product with
unshifted exponentials, the tier oracle rebuilds the comparison graph
from scratch every round, the score-simulation reference runs the
sequential-choice sampler and the scalar isotonic projection reviewer by
reviewer, and the conference references check and invert the assignment
list by list.
"""

from __future__ import annotations

import math

import numpy as np

from review_calib import (
    GenerationError,
    IsotonicProblem,
    ScoreTable,
    extract_pairwise,
    find_never_losers,
    gen_reviewer_params,
    isotonic_fit,
    raw_scores,
    sample_pl_ranking,
)
from review_calib.isotonic import NON_INCREASING


def isotonic_qp_oracle(values, weights=None, direction="non-increasing"):
    """Exhaustive solver of min sum w (x - y)^2 s.t. x monotone.

    The optimum is piecewise constant on consecutive blocks with values
    equal to the blocks' weighted means, so enumerating all 2**(n-1)
    consecutive partitions and keeping the feasible candidate with the
    smallest objective recovers it exactly. Only usable for small n.
    """
    y = np.asarray(values, dtype=float)
    n = len(y)
    if n == 0:
        return y.copy()
    if n > 16:
        raise ValueError("oracle is exponential; keep n <= 16")
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    sign = 1.0 if direction == "non-decreasing" else -1.0
    yy = sign * y
    best_x = None
    best_obj = math.inf
    for mask in range(2 ** (n - 1)):
        x = np.empty(n)
        feasible = True
        prev_mean = -math.inf
        lo = 0
        for k in range(n):
            if k == n - 1 or (mask >> k) & 1:
                block_w = w[lo : k + 1]
                mean = float(np.dot(block_w, yy[lo : k + 1]) / block_w.sum())
                if mean < prev_mean:
                    feasible = False
                    break
                x[lo : k + 1] = mean
                prev_mean = mean
                lo = k + 1
        if not feasible:
            continue
        obj = float(np.dot(w, (x - yy) ** 2))
        if obj < best_obj:
            best_obj = obj
            best_x = x
    return sign * best_x


def pl_prob_direct(theta, perm):
    """Sequential-choice probability with raw exponentials, no shift."""
    theta = [float(t) for t in theta]
    perm = list(perm)
    prob = 1.0
    remaining = perm[:]
    for k in range(len(perm) - 1):
        denom = sum(math.exp(theta[i]) for i in remaining)
        prob *= math.exp(theta[perm[k]]) / denom
        remaining.remove(perm[k])
    return prob


def naive_hierarchical_tiers(rankings, papers):
    """Literal peel: rebuild restricted comparisons each round."""
    remaining = set(int(p) for p in papers)
    tiers = []
    while remaining:
        graph = extract_pairwise(rankings, remaining)
        never_lose = find_never_losers(graph, remaining)
        if not never_lose:
            tiers.append(sorted(remaining))
            break
        tiers.append(sorted(never_lose))
        remaining -= never_lose
    return tiers


def generate_final_scores_reference(conf, case, rng):
    """Per-reviewer loop: scalar sampler, scalar projection, same streams.

    ``isotonic_fit`` with unit weights runs the scalar stack PAVA on the
    negated values, the projection the loop used.
    """
    params_rng, scores_rng, ranking_rng = rng.spawn(3)
    params = gen_reviewer_params(case, conf.n_reviewers, params_rng)
    raw = raw_scores(conf, params, scores_rng)
    theta = conf.true_scores
    final_values = np.empty(conf.n_slots)
    rankings = []
    ptr = conf.reviewer_ptr
    empty = np.empty(0, dtype=np.int64)
    for r in range(conf.n_reviewers):
        lo, hi = int(ptr[r]), int(ptr[r + 1])
        if hi == lo:
            rankings.append(empty)
            continue
        bundle = conf.slot_papers[lo:hi]
        perm = sample_pl_ranking(theta[bundle], ranking_rng)
        rankings.append(bundle[perm])
        adjusted = np.empty(hi - lo)
        adjusted[perm] = isotonic_fit(
            IsotonicProblem(raw.values[lo:hi][perm], direction=NON_INCREASING)
        )
        final_values[lo:hi] = adjusted
    final = ScoreTable.for_conference(conf, final_values)
    return final, raw, rankings


def two_state_stationary(a, b):
    """Stationary law of the chain [[1-a, a], [b, 1-b]]."""
    return np.array([b, a]) / (a + b)


def reverse_assignment_reference(assignment, n_papers):
    """Paper -> reviewers lists built by walking every reviewer's papers."""
    reverse = [[] for _ in range(n_papers)]
    for r, papers in enumerate(assignment):
        for p in papers:
            reverse[int(p)].append(r)
    return [np.asarray(v, dtype=np.int64) for v in reverse]


def validate_conference_reference(conf):
    """Author-, reviewer- and paper-wise loop over the conference invariants.

    Raises the same GenerationError messages as ``Conference.validate``,
    except that it accepts a reverse list naming one of the paper's
    reviewers twice, wraps a negative reviewer id and lets an id past the
    last reviewer escape as IndexError.
    """
    n = conf.n_papers
    author_cover = np.zeros(n, dtype=bool)
    for papers in conf.authorship:
        if len(papers) == 0:
            raise GenerationError("author with an empty paper list")
        if np.any(papers < 0) or np.any(papers >= n):
            raise GenerationError("authorship references an unknown paper id")
        if len(np.unique(papers)) != len(papers):
            raise GenerationError("author holds a duplicated paper")
        author_cover[papers] = True
    if not author_cover.all():
        missing = int(np.flatnonzero(~author_cover)[0])
        raise GenerationError(f"paper {missing} has no author")
    review_counts = np.zeros(n, dtype=np.int64)
    for r, papers in enumerate(conf.assignment):
        if len(np.unique(papers)) != len(papers):
            raise GenerationError(f"reviewer {r} holds the same paper twice")
        if len(papers) and (papers.min() < 0 or papers.max() >= n):
            raise GenerationError(f"reviewer {r} references an unknown paper id")
        review_counts[papers] += 1
    if np.any(review_counts == 0):
        missing = int(np.flatnonzero(review_counts == 0)[0])
        raise GenerationError(f"paper {missing} has no reviewer")
    if len(conf.reverse_assignment) != n:
        raise GenerationError("reverse_assignment length != n_papers")
    for p, reviewers in enumerate(conf.reverse_assignment):
        if len(reviewers) != review_counts[p]:
            raise GenerationError(f"reverse_assignment inconsistent for paper {p}")
        for r in reviewers:
            if p not in conf.assignment[r]:
                raise GenerationError(f"reverse_assignment lists reviewer {r} not holding {p}")
