"""Independent reference implementations used to check the fast paths.

These deliberately avoid the package's algorithms: the isotonic oracle
enumerates candidate block partitions of the quadratic program, the
ranking-probability oracle evaluates the sequential-choice product with
unshifted exponentials, the tier oracle rebuilds the comparison graph
from scratch every round, the score-simulation reference runs the
sequential-choice sampler and the scalar isotonic projection reviewer by
reviewer, the author-projection reference fits one owner at a time, and
the conference references check and invert the JSON assignment lists list
by list.

The rank-centrality chain (loss-driven transitions whose stationary
distribution orders the papers) is a cross-check of tier peeling, not a
rival estimator: papers that never lose have no outgoing transitions, so
a spectral method alone cannot separate them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from review_calib import Conference, GenerationError
from review_calib.isotonic import NON_INCREASING, isotonic_fit
from review_calib.scoring import NoiseCase, ScoreTable, _draw_reviewer_params, _raw_values


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


class ConvergenceError(RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the last residual so callers can report how far off it was.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass
class ComparisonGraph:
    """Multiset of pairwise outcomes: wins[(i, j)] = #times i beat j."""

    wins: Counter = field(default_factory=Counter)

    def add(self, winner: int, loser: int, count: int = 1) -> None:
        if winner == loser:
            raise ValueError(f"self-comparison for paper {winner}")
        self.wins[(winner, loser)] += count

    def loss_counts(self, active: Iterable[int]) -> dict[int, int]:
        counts = {p: 0 for p in active}
        for (_, loser), c in self.wins.items():
            if loser in counts:
                counts[loser] += c
        return counts


def extract_pairwise(
    rankings: Sequence[np.ndarray], active: Iterable[int]
) -> ComparisonGraph:
    """Expand each ranking into pairwise wins restricted to the active set.

    A ranking of R active papers contributes R*(R-1)/2 comparisons; papers
    outside ``active`` are dropped before pairing.
    """
    active_set = set(int(p) for p in active)
    graph = ComparisonGraph()
    for ranking in rankings:
        kept = [int(p) for p in ranking if int(p) in active_set]
        if len(kept) != len(set(kept)):
            raise ValueError("ranking contains a repeated paper")
        for a in range(len(kept)):
            for b in range(a + 1, len(kept)):
                graph.wins[(kept[a], kept[b])] += 1
    return graph


@dataclass
class TransitionMatrix:
    """Row-stochastic loss-transition chain over an ordered active set.

    P[i, j] is the chance of moving from paper ``papers[i]`` to ``papers[j]``,
    proportional to the fraction of their comparisons that i lost, scaled by
    the maximum comparison degree; the diagonal absorbs the remainder.
    """

    papers: np.ndarray
    matrix: np.ndarray

    def __post_init__(self):
        n = len(self.papers)
        if self.matrix.shape != (n, n):
            raise ValueError(f"matrix shape {self.matrix.shape} != ({n}, {n})")
        off = self.matrix.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValueError("off-diagonal transition probabilities must be >= 0")
        rows = self.matrix.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-12):
            worst = float(np.abs(rows - 1.0).max())
            raise ValueError(f"rows must sum to 1 (max deviation {worst:.3e})")


def build_transition_matrix(g: ComparisonGraph, active: Iterable[int]) -> TransitionMatrix:
    """Loss-normalised chain: P_ij = wins(j over i) / (d_max * n_ij).

    n_ij is the number of i-vs-j comparisons and d_max the maximum number
    of distinct opponents any active paper faced. Papers without
    comparisons become absorbing rows.
    """
    papers = np.asarray(sorted(set(int(p) for p in active)), dtype=np.int64)
    if len(papers) == 0:
        raise ValueError("active set must be non-empty")
    index = {int(p): k for k, p in enumerate(papers)}
    n = len(papers)
    totals: Counter = Counter()
    for (i, j), c in g.wins.items():
        if i in index and j in index:
            key = (i, j) if i < j else (j, i)
            totals[key] += c
    degree = np.zeros(n, dtype=np.int64)
    for (i, j), c in totals.items():
        if c > 0:
            degree[index[i]] += 1
            degree[index[j]] += 1
    d_max = max(1, int(degree.max()))
    matrix = np.zeros((n, n))
    for (i, j), c in g.wins.items():
        if i in index and j in index and c > 0:
            n_ij = max(1, totals[(i, j) if i < j else (j, i)])
            # j beat i "c" times -> probability mass from i toward j
            matrix[index[j], index[i]] += c / (d_max * n_ij)
    np.fill_diagonal(matrix, 0.0)
    np.fill_diagonal(matrix, 1.0 - matrix.sum(axis=1))
    return TransitionMatrix(papers=papers, matrix=matrix)


def _largest_closed_class(matrix: np.ndarray) -> np.ndarray:
    """Indices of the largest recurrent communicating class."""
    off = matrix.copy()
    np.fill_diagonal(off, 0.0)
    n_comp, labels = connected_components(csr_matrix(off > 0), connection="strong")
    closed = np.ones(n_comp, dtype=bool)
    src, dst = np.nonzero(off > 0)
    leaves = labels[src] != labels[dst]
    closed[np.unique(labels[src[leaves]])] = False
    best: np.ndarray | None = None
    for comp in range(n_comp):
        if not closed[comp]:
            continue
        members = np.flatnonzero(labels == comp)
        if best is None or len(members) > len(best) or (
            len(members) == len(best) and members[0] < best[0]
        ):
            best = members
    assert best is not None  # a finite chain always has a recurrent class
    return best


def stationary_distribution(
    P: TransitionMatrix, tol: float = 1e-10, max_iter: int = 100_000
) -> np.ndarray:
    """Stationary probabilities of the chain by power iteration.

    If the chain is reducible the iteration is restricted to its largest
    closed communicating class; other papers receive probability zero.
    Raises ConvergenceError (carrying the residual) if the L1 residual
    does not reach ``tol`` within ``max_iter`` sweeps.
    """
    members = _largest_closed_class(P.matrix)
    sub = P.matrix[np.ix_(members, members)]
    pi = np.full(len(members), 1.0 / len(members))
    residual = np.inf
    for _ in range(max_iter):
        nxt = pi @ sub
        residual = float(np.abs(nxt - pi).sum())
        pi = nxt
        if residual < tol:
            pi = pi / pi.sum()
            out = np.zeros(len(P.papers))
            out[members] = pi
            return out
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {max_iter} sweeps "
        f"(residual {residual:.3e})",
        residual=residual,
    )


def find_never_losers(g: ComparisonGraph, active: Iterable[int]) -> set[int]:
    """Active papers with zero recorded losses (no comparisons counts too)."""
    losses = g.loss_counts(active)
    return {p for p, c in losses.items() if c == 0}


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


@dataclass(frozen=True)
class ReviewerParams:
    """Additive bias and noise level of a single reviewer."""

    bias: float
    noise_sd: float

    def __post_init__(self):
        if self.noise_sd < 0:
            raise ValueError(f"noise_sd must be >= 0, got {self.noise_sd}")


def gen_reviewer_params(
    case: NoiseCase, n_reviewers: int, rng: np.random.Generator
) -> list[ReviewerParams]:
    """Draw per-reviewer bias and noise level for one scenario."""
    biases, sds = _draw_reviewer_params(case, n_reviewers, rng)
    return [ReviewerParams(float(b), float(s)) for b, s in zip(biases, sds)]


def raw_scores(
    conf: Conference, params: list[ReviewerParams], rng: np.random.Generator
) -> ScoreTable:
    """Step-1 raw scores: Normal(theta + bias, noise_sd) per assigned pair.

    Draws are independent across (reviewer, paper) pairs and consumed from
    the stream in the conference's slot order: reviewer by reviewer, each
    reviewer's papers in the order the conference lists them.
    """
    if len(params) != conf.n_reviewers:
        raise ValueError(f"expected {conf.n_reviewers} reviewer params, got {len(params)}")
    bias = np.fromiter((p.bias for p in params), dtype=float, count=len(params))
    noise_sd = np.fromiter((p.noise_sd for p in params), dtype=float, count=len(params))
    return ScoreTable.for_conference(conf, _raw_values(conf, bias, noise_sd, rng))


def sample_pl_ranking(theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Sample a preference order by sequential choice without replacement."""
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        raise ValueError("theta must contain at least one item")
    shift = float(theta.max())
    weights = [math.exp(float(v) - shift) for v in theta]
    indices = list(range(theta.size))
    total = sum(weights)
    out = np.empty(theta.size, dtype=np.int64)
    for k in range(theta.size - 1):
        u = rng.random() * total
        acc = 0.0
        pos = len(weights) - 1
        for q, wq in enumerate(weights):
            acc += wq
            if u <= acc:
                pos = q
                break
        out[k] = indices.pop(pos)
        total -= weights.pop(pos)
    out[-1] = indices[0]
    return out


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
        adjusted[perm] = isotonic_fit(raw.values[lo:hi][perm], direction=NON_INCREASING)
        final_values[lo:hi] = adjusted
    final = ScoreTable.for_conference(conf, final_values)
    return final, raw, rankings


def calibrate_author_reference(scores, owners, blend=1.0):
    """Per-owner author projection: one scalar PAVA call per owner.

    ``isotonic_fit`` with unit weights runs the scalar stack PAVA on the
    negated values, the projection the loop used.
    """
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    out = np.asarray(scores, dtype=float).copy()
    if not np.isfinite(out).all():
        raise ValueError("scores must be finite")
    for papers in owners.owners.values():
        fitted = isotonic_fit(out[papers], direction=NON_INCREASING)
        out[papers] = blend * fitted + (1.0 - blend) * out[papers]
    return out


def two_state_stationary(a, b):
    """Stationary law of the chain [[1-a, a], [b, 1-b]]."""
    return np.array([b, a]) / (a + b)


def conference_from_lists(true_scores, authorship, assignment):
    """An unvalidated Conference from per-author and per-reviewer paper lists."""
    return Conference(
        true_scores=np.asarray(true_scores, dtype=float),
        authorship=[np.asarray(a, dtype=np.int64) for a in authorship],
        slot_papers=np.concatenate([np.asarray(a, dtype=np.int64) for a in assignment]),
        reviewer_ptr=np.cumsum([0, *map(len, assignment)]),
    )


def reverse_assignment_reference(assignment, n_papers):
    """Paper -> reviewers lists built by walking every reviewer's papers."""
    reverse = [[] for _ in range(n_papers)]
    for r, papers in enumerate(assignment):
        for p in papers:
            reverse[int(p)].append(r)
    return [np.asarray(v, dtype=np.int64) for v in reverse]


def validate_conference_reference(obj):
    """Author-, reviewer- and paper-wise loop over the invariants of JSON conference lists.

    ``obj`` is what ``Conference.to_json`` writes. Raises the GenerationError
    messages ``Conference.validate`` raises; for the reverse lists it raises
    per-member messages (a wrong count, or a listed reviewer not holding the
    paper) where ``Conference.from_json`` names only the paper. It accepts a
    reverse list naming one of the paper's reviewers twice, wraps a negative
    reviewer id and lets an id past the last reviewer escape as IndexError.
    """
    n = len(obj["true_scores"])
    authorship = [np.asarray(a, dtype=np.int64) for a in obj["authorship"]]
    assignment = [np.asarray(a, dtype=np.int64) for a in obj["assignment"]]
    author_cover = np.zeros(n, dtype=bool)
    for papers in authorship:
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
    for r, papers in enumerate(assignment):
        if len(np.unique(papers)) != len(papers):
            raise GenerationError(f"reviewer {r} holds the same paper twice")
        if len(papers) and (papers.min() < 0 or papers.max() >= n):
            raise GenerationError(f"reviewer {r} references an unknown paper id")
        review_counts[papers] += 1
    if np.any(review_counts == 0):
        missing = int(np.flatnonzero(review_counts == 0)[0])
        raise GenerationError(f"paper {missing} has no reviewer")
    if len(obj["reverse_assignment"]) != n:
        raise GenerationError("reverse_assignment length != n_papers")
    for p, reviewers in enumerate(obj["reverse_assignment"]):
        if len(reviewers) != review_counts[p]:
            raise GenerationError(f"reverse_assignment inconsistent for paper {p}")
        for r in reviewers:
            if p not in assignment[r]:
                raise GenerationError(f"reverse_assignment lists reviewer {r} not holding {p}")
