"""Independent reference implementations used to check the fast paths.

These deliberately avoid the package's algorithms: the isotonic oracle
enumerates candidate block partitions of the quadratic program,
``pava_reference`` is the scalar stack PAVA with its whole stack in
preallocated lists (the bitwise reference of the kernel), the
exact Plackett-Luce probability multiplies the sequential choices (and is
itself checked against the same product with unshifted exponentials), the
multiplicity-law reference fits with scipy's bounded minimiser, the tier
oracle rebuilds the comparison graph from scratch every round (and
``hierarchical_tiers_all_pairs`` peels over every pair of each ranking,
the bitwise reference of the adjacent-pair peel), the
score-simulation reference runs the sequential-choice sampler and the
scalar isotonic projection reviewer by reviewer, the author-projection
reference fits one owner at a time, and the conference references check
and invert the JSON assignment lists list by list (``conference_from_json``
reads those lists back). The set-up references
deal authorship author by author over the whole deck, match review slots
with per-slot numpy scalars and claim owners with one sort per owner; each
can count the branches its run takes. ``match_slots_reference`` is one
matching attempt with a set per reviewer and every draw through ``below``.
``validate_tiers`` and ``validate_owner_partition`` check the partition
properties of the tier decomposition and the owner partition.
``calibrate_combined`` composes the combined estimator the way
``bench._run_cell`` does inline, and ``tiers_to_json`` and
``results_table_from_json`` convert the tiers and the results table to and
from the JSON forms only tests use.

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
from scipy.optimize import minimize_scalar
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from review_calib import Conference, DiscreteDistribution, GenerationError
from review_calib.isotonic import NON_INCREASING, isotonic_fit
from review_calib.conference import (
    _MATCHING_RETRIES,
    Ragged,
    _reconciled_author_loads,
    _rows,
)
from review_calib.bench import ResultsTable
from review_calib.estimators import OwnerPartition, calibrate_author, calibrate_reviewer
from review_calib.ranking import TierDecomposition
from review_calib.scoring import NoiseCase, _draw_reviewer_params, _raw_values


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


def pava_reference(y: np.ndarray, w: np.ndarray | None, segments) -> np.ndarray:
    """The scalar stack PAVA with every block in three preallocated n-long lists.

    ``isotonic._pava_non_decreasing`` keeps the top block in locals and
    pools with unit-weight denominators written as lengths; this loop,
    kept verbatim, must give the same bytes, or raise the same error.
    """
    n = len(y)
    yl = y.tolist()
    if w is None:
        wl, wyl = [1.0] * n, yl
    else:
        wl, wyl = w.tolist(), (w * y).tolist()
    starts = [0] * n
    wsum = [0.0] * n
    wysum = [0.0] * n
    out = yl[:]
    for seg_lo, seg_hi in segments:
        m = 0
        for i in range(seg_lo, seg_hi):
            starts[m] = i
            wsum[m] = wl[i]
            wysum[m] = wyl[i]
            m += 1
            while m > 1 and wysum[m - 2] * wsum[m - 1] > wysum[m - 1] * wsum[m - 2]:
                wsum[m - 2] += wsum[m - 1]
                wysum[m - 2] += wysum[m - 1]
                m -= 1
        for b in range(m):
            lo = starts[b]
            hi = starts[b + 1] if b + 1 < m else seg_hi
            if hi - lo > 1:
                out[lo:hi] = [math.fsum(wyl[lo:hi]) / math.fsum(wl[lo:hi])] * (hi - lo)
    return np.array(out)


def pl_ranking_prob(theta: np.ndarray, perm: np.ndarray) -> float:
    """Plackett-Luce probability of observing the given preference order.

    ``perm`` lists indices into theta from most to least preferred. The
    probability is the product of sequential softmax choices with weights
    exp(theta); weights are computed with a max shift, which leaves the
    result unchanged (the model is translation invariant).
    """
    theta = np.asarray(theta, dtype=float)
    perm = np.asarray(perm)
    if theta.size == 0:
        raise ValueError("theta must contain at least one item")
    if sorted(perm.tolist()) != list(range(theta.size)):
        raise ValueError("perm is not a permutation of theta's index set")
    w = np.exp(theta - theta.max())
    ordered = w[perm]
    denom = np.cumsum(ordered[::-1])[::-1]
    prob = 1.0
    for k in range(theta.size - 1):
        prob *= ordered[k] / denom[k]
    return float(prob)


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


def hierarchical_tiers_all_pairs(rankings, n: int) -> TierDecomposition:
    """Tier peeling over every pair of each ranking, on papers ``range(n)``.

    ``hierarchical_tiers`` peels over adjacent pairs only; it must give
    these tiers bit for bit. Rankings are taken as valid ids of ``range(n)``.
    """
    papers = np.arange(n, dtype=np.int64)
    rankings = Ragged.of(rankings)
    ids = rankings.flat

    sizes, start = rankings.sizes, rankings.ptr[:-1]
    winners = losers = np.empty(0, dtype=np.int64)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        if size < 2:
            continue
        first = start[sizes == size][:, None]
        a, b = np.triu_indices(size, k=1)
        winners = np.concatenate((winners, ids[first + a].ravel()))
        losers = np.concatenate((losers, ids[first + b].ravel()))
    # every pair of positions is expanded, so a repeat shows up as a self-pair
    if np.any(winners == losers):
        raise ValueError("ranking contains a repeated paper")
    loss_count = np.bincount(losers, minlength=n)

    active = np.ones(n, dtype=bool)
    tiers: list[np.ndarray] = []
    while active.any():
        zero = active & (loss_count == 0)
        if not zero.any():
            tiers.append(papers[active])
            break
        tiers.append(papers[zero])
        active &= ~zero
        loss_count -= np.bincount(losers[zero[winners]], minlength=n)
    return TierDecomposition(tiers)


def validate_tiers(tiers: TierDecomposition, all_papers: Iterable[int]) -> None:
    """Raise ValueError unless the tiers partition ``all_papers``.

    Tiers are checked best first, so the message names the first
    problem: an empty tier or one that shares a paper with an earlier
    tier. A paper repeated inside one tier is not an overlap. A
    non-integer id in ``all_papers`` also raises ValueError.
    """
    rows = tiers.tiers
    sizes, ids, tier_of = rows.sizes, rows.flat, rows.row_of()
    order = np.lexsort((tier_of, ids))
    ids_sorted, tier_sorted = ids[order], tier_of[order]
    again = (ids_sorted[1:] == ids_sorted[:-1]) & (tier_sorted[1:] != tier_sorted[:-1])
    first_overlap = int(tier_sorted[1:][again].min(initial=len(sizes)))
    empty = np.flatnonzero(sizes == 0)
    first_empty = int(empty[0]) if len(empty) else len(sizes)
    if first_empty < first_overlap:
        raise ValueError("empty tier")
    if first_overlap < len(sizes):
        raise ValueError("tiers overlap")
    papers = np.asarray(all_papers if isinstance(all_papers, np.ndarray) else list(all_papers))
    if papers.ndim != 1 or (papers.size and papers.dtype.kind not in "iu"):
        raise ValueError(f"all_papers must be integer ids, got a {papers.ndim}-d array of {papers.dtype}")
    if not np.array_equal(np.unique(ids), np.unique(papers)):
        raise ValueError("tiers do not partition the paper set")


def tiers_to_json(tiers: TierDecomposition) -> list[list[int]]:
    """The tiers as lists of paper ids, best tier first."""
    return [tier.tolist() for tier in tiers.tiers]


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
) -> np.ndarray:
    """Step-1 raw scores: Normal(theta + bias, noise_sd) per assigned pair.

    Draws are independent across (reviewer, paper) pairs and consumed from
    the stream in the conference's slot order: reviewer by reviewer, each
    reviewer's papers in the order the conference lists them.
    """
    if len(params) != conf.n_reviewers:
        raise ValueError(f"expected {conf.n_reviewers} reviewer params, got {len(params)}")
    bias = np.fromiter((p.bias for p in params), dtype=float, count=len(params))
    noise_sd = np.fromiter((p.noise_sd for p in params), dtype=float, count=len(params))
    return _raw_values(conf, bias, noise_sd, rng)


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
    final = np.empty(conf.n_slots)
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
        adjusted[perm] = isotonic_fit(raw[lo:hi][perm], direction=NON_INCREASING)
        final[lo:hi] = adjusted
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
    for papers in owners.owners:
        fitted = isotonic_fit(out[papers], direction=NON_INCREASING)
        out[papers] = blend * fitted + (1.0 - blend) * out[papers]
    return out


def calibrate_combined(avg, rankings, owners: OwnerPartition, blend: float = 0.5) -> np.ndarray:
    """The combined estimator: reviewer calibration first, exact author projection second."""
    return calibrate_author(calibrate_reviewer(avg, rankings, blend), owners)


def validate_owner_partition(partition: OwnerPartition) -> None:
    """Raise ValueError unless every owner owns >= 2 distinct papers and no two owners share one.

    Owners are checked in order, so the message names the first owner at fault.
    """
    seen: set[int] = set()
    for author, papers in zip(partition.authors, partition.owners):
        ids = set(int(p) for p in papers)
        if len(ids) != len(papers) or len(ids) < 2:
            raise ValueError(f"owner {author} must own >= 2 distinct papers")
        if ids & seen:
            raise ValueError(f"owner {author} overlaps a previous owner")
        seen |= ids


def two_state_stationary(a, b):
    """Stationary law of the chain [[1-a, a], [b, 1-b]]."""
    return np.array([b, a]) / (a + b)


def conference_from_lists(true_scores, authorship, assignment):
    """An unvalidated Conference from per-author and per-reviewer paper lists."""
    assignment = Ragged.of(assignment)
    return Conference(
        true_scores=np.asarray(true_scores, dtype=float),
        authorship=authorship,
        slot_papers=assignment.flat,
        reviewer_ptr=assignment.ptr,
    )


def reverse_assignment_reference(assignment, n_papers):
    """Paper -> reviewers lists built by walking every reviewer's papers."""
    reverse = [[] for _ in range(n_papers)]
    for r, papers in enumerate(assignment):
        for p in papers:
            reverse[int(p)].append(r)
    return [np.asarray(v, dtype=np.int64) for v in reverse]


def _finite_scores(values) -> np.ndarray:
    """``values`` as a 1-d float array; GenerationError unless each is a finite number."""
    scores = np.asarray(values)
    if (
        scores.ndim != 1
        or scores.dtype.kind not in "iuf"
        or any(isinstance(v, (bool, np.bool_)) for v in values)
        or not np.isfinite(scores).all()
    ):
        raise GenerationError("true_scores must be a list of finite numbers")
    return scores.astype(float)


def conference_from_json(obj: dict) -> Conference:
    """Read what ``Conference.to_json`` writes; raises GenerationError for an invalid conference.

    After ``validate``, paper p's stored reverse list must name the
    reviewers holding p, each once, in any order. An id that is not an
    integer is refused, not converted, and so is a true score that is not
    a finite number.
    """
    assignment = _rows(obj["assignment"], "assignment")
    conf = Conference(
        true_scores=_finite_scores(obj["true_scores"]),
        authorship=obj["authorship"],
        slot_papers=assignment.flat,
        reviewer_ptr=assignment.ptr,
    )
    conf.validate()
    listed = _rows(obj["reverse_assignment"], "reverse_assignment")
    if len(listed) != conf.n_papers:
        raise GenerationError("reverse_assignment length != n_papers")
    for p, (given, held) in enumerate(zip(listed, conf._paper_reviewers())):
        if np.sort(given).tolist() != held.tolist():
            raise GenerationError(f"reverse_assignment inconsistent for paper {p}")
    return conf


def validate_conference_reference(obj):
    """Author-, reviewer- and paper-wise loop over the invariants of JSON conference lists.

    ``obj`` is what ``Conference.to_json`` writes. Raises the GenerationError
    messages ``Conference.validate`` raises; for the reverse lists it raises
    per-member messages (a wrong count, or a listed reviewer not holding the
    paper) where ``conference_from_json`` names only the paper. It accepts a
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


def fit_multiplicity_distribution_reference(targets, n_authors):
    """``conference.fit_multiplicity_distribution`` with scipy's bounded minimiser.

    The exponent is fit by ``scipy.optimize.minimize_scalar`` with
    ``method="bounded"``, the call the package's own minimiser replaces.
    """
    targets = tuple((t, c) for t, c in targets if c > 0)
    if not targets:
        return DiscreteDistribution.point_mass(1)
    t1, c1 = targets[0]
    f1 = c1 / n_authors
    higher = [(t, c / n_authors) for t, c in targets[1:]]

    def tail_ratios(alpha, m):
        ks = np.arange(t1, m + 1, dtype=float)
        p = ks ** (-alpha)
        total = p.sum()
        return {t: p[ks >= t].sum() / total for t, _ in higher}

    if higher:
        log_targets = {t: np.log(f / f1) for t, f in higher}
        best = None
        m_lo = targets[-1][0] + 1
        for m in range(m_lo, max(4 * m_lo, 64)):

            def objective(alpha):
                ratios = tail_ratios(alpha, m)
                return sum((np.log(ratios[t]) - log_targets[t]) ** 2 for t, _ in higher)

            res = minimize_scalar(objective, bounds=(0.1, 12.0), method="bounded")
            if best is None or res.fun < best[0]:
                best = (res.fun, float(res.x), m)
        _, alpha, m = best
    else:
        alpha, m = 2.5, 4 * t1

    ks = np.arange(t1, m + 1)
    tail = ks.astype(float) ** (-alpha)
    tail *= f1 / tail.sum()
    if t1 == 2:
        values = (1, *ks.tolist())
        probs = (1.0 - f1, *tail.tolist())
    else:
        low = np.arange(1, t1)
        low_p = np.full(len(low), (1.0 - f1) / len(low))
        values = (*low.tolist(), *ks.tolist())
        probs = (*low_p.tolist(), *tail.tolist())
    return DiscreteDistribution(values, probs)


def deal_authorship_reference(n_papers, multiplicities, dist, rng, events=None):
    """``conference._deal_authorship`` as one scan of every author over the deck.

    ``events``, a ``Counter`` when given, counts the branches taken:
    ``repeat`` (a paper skipped inside the author's window), ``swap_past_window``
    (a paper swapped in from beyond that window) and ``strand`` (a dealing
    that ran out of deck and restarted).
    """
    events = Counter() if events is None else events
    n_authors = len(multiplicities)
    loads = _reconciled_author_loads(n_papers, int(multiplicities.sum()), dist, rng)
    deal_order = np.lexsort((np.arange(n_authors), -multiplicities))
    for _ in range(_MATCHING_RETRIES):
        deck = np.repeat(np.arange(n_papers, dtype=np.int64), loads)
        rng.shuffle(deck)
        deck = deck.tolist()
        ptr = 0
        stranded = False
        for a in deal_order:
            want = int(multiplicities[a])
            end = ptr + want
            held: set[int] = set()
            j = ptr
            while len(held) < want:
                if j >= len(deck):
                    stranded = True
                    break
                if deck[j] not in held:
                    events["swap_past_window"] += j >= end
                    deck[ptr], deck[j] = deck[j], deck[ptr]
                    held.add(deck[ptr])
                    ptr += 1
                    j = max(j + 1, ptr)
                else:
                    events["repeat"] += j < end
                    j += 1
            if stranded:
                events["strand"] += 1
                break
        if not stranded:
            owner = np.repeat(deal_order, multiplicities[deal_order])
            dealt = np.asarray(deck[:ptr], dtype=np.int64)
            dealt = dealt[np.lexsort((dealt, owner))]
            return Ragged(dealt, np.concatenate(([0], np.cumsum(multiplicities))))
    raise GenerationError(
        f"authorship dealing failed after {_MATCHING_RETRIES} retries; "
        "multiplicity targets are too tight for this paper count"
    )


def assign_reviewers_reference(per_paper, config, rng, events=None):
    """``conference._assign_reviewers`` over numpy scalars, one slot at a time.

    ``events``, a ``Counter`` when given, counts ``fallback`` (50 draws all
    hit reviewers holding the paper, so every active reviewer was scanned)
    and ``dead_end`` (no active reviewer could take the paper).
    """
    events = Counter() if events is None else events
    total_slots = int(per_paper.sum())
    cap_dist = config.reviewer_capacity_dist
    if config.n_reviewers is not None:
        capacities = cap_dist.sample(rng, config.n_reviewers)
        total_capacity = int(capacities.sum())
        if total_capacity < total_slots:
            raise GenerationError(
                f"total reviewer capacity {total_capacity} < {total_slots} review slots "
                f"(deficit {total_slots - total_capacity})"
            )
    else:
        target = config.capacity_slack * total_slots
        chunks = []
        total_capacity = 0
        while total_capacity < target:
            chunk = cap_dist.sample(rng, 512)
            chunks.append(chunk)
            total_capacity += int(chunk.sum())
        capacities = np.concatenate(chunks)
        cut = int(np.searchsorted(np.cumsum(capacities), target)) + 1
        capacities = capacities[:cut]

    n_reviewers = len(capacities)
    slots = np.repeat(np.arange(len(per_paper), dtype=np.int64), per_paper)
    for _ in range(_MATCHING_RETRIES):
        rng.shuffle(slots)
        remaining = capacities.copy()
        active = list(range(n_reviewers))
        held = [set() for _ in range(n_reviewers)]
        holder = []
        dead_end = False
        for paper in slots:
            paper = int(paper)
            placed = False
            for _ in range(50):
                j = int(rng.integers(0, len(active)))
                r = active[j]
                if paper not in held[r]:
                    placed = True
                    break
            if not placed:
                events["fallback"] += 1
                eligible = [j for j, r in enumerate(active) if paper not in held[r]]
                if not eligible:
                    events["dead_end"] += 1
                    dead_end = True
                    break
                j = eligible[int(rng.integers(0, len(eligible)))]
                r = active[j]
            held[r].add(paper)
            holder.append(r)
            remaining[r] -= 1
            if remaining[r] == 0:
                active[j] = active[-1]
                active.pop()
        if not dead_end:
            reviewers = np.asarray(holder, dtype=np.int64)
            counts = np.bincount(reviewers, minlength=n_reviewers)
            return slots[np.lexsort((slots, reviewers))], np.concatenate(([0], np.cumsum(counts)))
    raise GenerationError(
        f"review matching failed after {_MATCHING_RETRIES} retries; "
        "reviewer capacities are too tight for a duplicate-free assignment"
    )


def match_slots_reference(papers, remaining, below):
    """``conference._match_slots`` with a set of papers per reviewer and ``below(n)`` for every draw."""
    active = list(range(len(remaining)))
    held = [set() for _ in remaining]
    holder = []
    for paper in papers:
        for _ in range(50):
            j = below(len(active))
            if paper not in held[active[j]]:
                break
        else:
            eligible = [j for j, r in enumerate(active) if paper not in held[r]]
            if not eligible:
                return None
            j = eligible[below(len(eligible))]
        r = active[j]
        held[r].add(paper)
        holder.append(r)
        remaining[r] -= 1
        if not remaining[r]:
            active[j] = active[-1]
            active.pop()
    return holder


def build_owner_partition_reference(conf):
    """``estimators.build_owner_partition`` with one claim and one sort per author."""
    multiplicities = conf.authorship.sizes
    order = np.lexsort((np.arange(conf.n_authors), -multiplicities))
    theta = conf.true_scores
    claimed = np.zeros(conf.n_papers, dtype=bool)
    authors, rows = [], []
    for a in order:
        if multiplicities[a] < 2:
            break
        papers = conf.authorship[a]
        mine = papers[~claimed[papers]]
        if len(mine) < 2:
            continue
        claimed[mine] = True
        authors.append(int(a))
        rows.append(mine[np.lexsort((mine, -theta[mine]))])
    return OwnerPartition(np.array(authors, dtype=np.int64), rows)


def results_table_from_json(obj: dict) -> ResultsTable:
    """Read back what ``ResultsTable.to_json_obj`` writes; cases and methods keep their order."""
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
    return ResultsTable(
        cases=tuple(cases),
        methods=tuple(methods),
        mean_rmse=mean,
        sd_rmse=sd,
        repetitions=int(obj["repetitions"]),
        master_seed=int(obj["master_seed"]),
    )
