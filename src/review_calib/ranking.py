"""Rank aggregation from reviewers' partial rankings: hierarchical tier peeling.

Repeatedly extract the papers that never lose a pairwise comparison within
the remaining set, then rank within tiers by average score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .conference import Ragged


@dataclass(frozen=True, eq=False)
class TierDecomposition:
    """Ordered partition of papers from best tier to worst.

    ``tiers`` holds one row of paper ids per tier, best first. A list of
    rows is flattened into a ``Ragged`` on construction; a tier that is not
    a 1-d run of integer ids raises ValueError (an empty tier may have any
    dtype).
    """

    tiers: Ragged

    def __post_init__(self):
        object.__setattr__(self, "tiers", Ragged.of(self.tiers))


def _paper_set(all_papers: Iterable[int]) -> np.ndarray:
    """``all_papers`` as sorted, distinct int64 ids; ValueError unless each is an integer."""
    if isinstance(all_papers, range):
        ids = np.arange(all_papers.start, all_papers.stop, all_papers.step, dtype=np.int64)
        return ids if all_papers.step > 0 else ids[::-1]
    ids = np.asarray(all_papers if isinstance(all_papers, np.ndarray) else list(all_papers))
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ValueError(f"all_papers must be integer ids, got a {ids.ndim}-d array of {ids.dtype}")
    return _sorted_unique(ids.astype(np.int64, copy=False))


def _positions(papers: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """The index of every id in the sorted, distinct ``papers``; ValueError for an unknown id.

    Each id is first looked up at ``id - papers[0]``, where a contiguous id
    range keeps it; only ids not found there are binary-searched.
    """
    n = len(papers)
    if n == 0:
        if len(ids):
            raise ValueError("ranking names a paper outside all_papers")
        return np.empty(0, dtype=np.int64)
    pos = np.clip(ids - papers[0], 0, n - 1)
    miss = np.flatnonzero(papers[pos] != ids)
    if len(miss):
        found = np.minimum(np.searchsorted(papers, ids[miss]), n - 1)
        if np.any(papers[found] != ids[miss]):
            raise ValueError("ranking names a paper outside all_papers")
        pos[miss] = found
    return pos


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
    ``rankings`` is a ``Ragged`` or a list of rows, each most preferred
    first. ``all_papers`` must be integer ids. A ranking that is not
    integer ids, names a paper outside ``all_papers`` or repeats a paper
    raises ValueError.
    """
    papers = _paper_set(all_papers)
    n = len(papers)
    rankings = Ragged.of(rankings)
    ids = _positions(papers, rankings.flat)

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


def full_ranking(tiers: TierDecomposition, avg_scores: np.ndarray) -> np.ndarray:
    """Total order: tier by tier, descending average score within a tier.

    Ties on the average break toward the smaller paper id so the order is
    deterministic.
    """
    avg_scores = np.asarray(avg_scores, dtype=float)
    pieces = [np.empty(0, dtype=np.int64)]
    for tier in tiers.tiers:
        pieces.append(tier[np.lexsort((tier, -avg_scores[tier]))])
    return np.concatenate(pieces)
