"""Rank aggregation from reviewers' partial rankings: hierarchical tier peeling.

Repeatedly extract the papers that never lose a pairwise comparison within
the remaining set, then rank within tiers by average score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


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
