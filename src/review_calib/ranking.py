"""Rank aggregation from reviewers' partial rankings.

The production path is hierarchical tier peeling: repeatedly extract the
papers that never lose a pairwise comparison within the remaining set,
then rank within tiers by average score. A rank-centrality-style Markov
chain (loss-driven transitions whose stationary distribution orders the
items) is also provided; it serves as a validation oracle for the tier
procedure rather than as part of the main pipeline, because papers that
never lose have no outgoing transitions and a spectral method alone
cannot separate them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import ConvergenceError


@dataclass
class ComparisonGraph:
    """Multiset of pairwise outcomes: wins[(i, j)] = #times i beat j."""

    wins: Counter = field(default_factory=Counter)

    def add(self, winner: int, loser: int, count: int = 1) -> None:
        if winner == loser:
            raise ValueError(f"self-comparison for paper {winner}")
        self.wins[(winner, loser)] += count

    def n_comparisons(self, i: int, j: int) -> int:
        return self.wins.get((i, j), 0) + self.wins.get((j, i), 0)

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


@dataclass
class TierDecomposition:
    """Ordered partition of papers from best tier to worst."""

    tiers: list[np.ndarray]

    def validate(self, all_papers: Iterable[int]) -> None:
        """Raise ValueError unless the tiers partition ``all_papers``.

        Tiers are checked best first, so the message names the first
        problem: an empty tier or one that shares a paper with an earlier
        tier. A paper repeated inside one tier is not an overlap.
        """
        sizes = np.fromiter(map(len, self.tiers), dtype=np.int64, count=len(self.tiers))
        ids = _concat_ids(self.tiers)
        tier_of = np.repeat(np.arange(len(sizes)), sizes)
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
        expected = _sorted_unique(np.fromiter(all_papers, dtype=np.int64))
        if not np.array_equal(_sorted_unique(ids), expected):
            raise ValueError("tiers do not partition the paper set")

    def tier_index(self, n_papers: int) -> np.ndarray:
        out = np.full(n_papers, -1, dtype=np.int64)
        for k, tier in enumerate(self.tiers):
            out[tier] = k
        return out

    def to_json(self) -> list[list[int]]:
        return [tier.tolist() for tier in self.tiers]


def _concat_ids(arrays: Sequence) -> np.ndarray:
    if len(arrays) == 0:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(arrays).astype(np.int64, copy=False)


def _sorted_unique(ids: np.ndarray) -> np.ndarray:
    # np.unique's hashing pass is slow on the near-sorted id arrays seen here
    ids = np.sort(ids)
    first = np.ones(len(ids), dtype=bool)
    first[1:] = ids[1:] != ids[:-1]
    return ids[first]


def hierarchical_tiers(
    rankings: Sequence[np.ndarray], all_papers: Iterable[int]
) -> TierDecomposition:
    """Peel never-losing papers into tiers until none remain.

    Each round conceptually rebuilds the comparisons restricted to the
    remaining papers and extracts the zero-loss set; the loop below gets
    the same result by decrementing loss counters as winners leave, since
    dropping a removed paper's comparisons only affects counts it won.
    The final tier is whatever remains when no paper is loss-free.
    Papers outside ``all_papers`` are dropped from the rankings; a paper
    repeated within a ranking raises ValueError.
    """
    papers = _sorted_unique(np.fromiter(all_papers, dtype=np.int64))
    n = len(papers)
    if n == 0:
        return TierDecomposition(tiers=[])
    lengths = np.fromiter(map(len, rankings), dtype=np.int64, count=len(rankings))
    flat = _concat_ids(rankings)
    owner = np.repeat(np.arange(len(rankings)), lengths)
    pos = np.searchsorted(papers, flat)
    kept = pos < n
    kept[kept] = papers[pos[kept]] == flat[kept]
    ids, owner = pos[kept], owner[kept]

    kept_len = np.bincount(owner, minlength=len(rankings))
    kept_start = np.cumsum(kept_len) - kept_len
    winner_parts, loser_parts = [], []
    for size in np.flatnonzero(np.bincount(kept_len)).tolist():
        if size < 2:
            continue
        first = kept_start[kept_len == size][:, None]
        a, b = np.triu_indices(size, k=1)
        winner_parts.append(ids[first + a].ravel())
        loser_parts.append(ids[first + b].ravel())
    winners = _concat_ids(winner_parts)
    losers = _concat_ids(loser_parts)
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
    decomposition = TierDecomposition(tiers=tiers)
    decomposition.validate(papers)
    return decomposition


def full_ranking(tiers: TierDecomposition, avg_scores: np.ndarray) -> np.ndarray:
    """Total order: tier by tier, descending average score within a tier.

    Ties on the average break toward the smaller paper id so the order is
    deterministic.
    """
    avg_scores = np.asarray(avg_scores, dtype=float)
    pieces = []
    for tier in tiers.tiers:
        tier = np.asarray(tier, dtype=np.int64)
        pieces.append(tier[np.lexsort((tier, -avg_scores[tier]))])
    if not pieces:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(pieces)
