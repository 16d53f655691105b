"""Rank aggregation from reviewers' partial rankings: hierarchical tier peeling.

Repeatedly extract the papers that never lose a pairwise comparison within
the remaining set, then rank within tiers by average score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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


def hierarchical_tiers(rankings: Sequence[np.ndarray], all_papers: range) -> TierDecomposition:
    """Peel never-losing papers into tiers until none remain.

    Each round extracts the remaining papers that lose no comparison among
    the remaining papers; the final tier is whatever remains when no paper
    is loss-free. A paper leaves only when no remaining paper beats it, so
    of each ranking only its top remaining paper can leave, and a ranking's
    remaining papers are always a suffix of it. A paper therefore loses
    within the remaining set exactly when the paper just above it in some
    ranking remains: each ranking's adjacent pairs give the same tiers as
    all its pairs, and a loss counter drops by one as each winner leaves.

    ``rankings`` is a ``Ragged`` or a list of rows, each most preferred
    first. ``all_papers`` must be ``range(n)``, the conference's paper ids.
    A ranking that is not integer ids, names a paper outside
    ``all_papers`` or repeats a paper raises ValueError.
    """
    if not (isinstance(all_papers, range) and all_papers.start == 0 and all_papers.step == 1):
        raise ValueError(f"all_papers must be range(n), got {all_papers!r}")
    n = len(all_papers)
    rankings = Ragged.of(rankings)
    ids = rankings.flat
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ValueError("ranking names a paper outside all_papers")

    row = rankings.row_of()
    pair = np.flatnonzero(row[1:] == row[:-1])  # the winner's position in each adjacent pair
    winners, losers = ids[pair], ids[pair + 1]
    # a repeat next to itself is a self-pair; only a ranking of three or more papers can hold
    # one at a distance, and sorted (row, id) keys show that
    if np.any(winners == losers) or (
        rankings.sizes.max(initial=0) > 2 and np.any(np.diff(np.sort(row * n + ids)) == 0)
    ):
        raise ValueError("ranking contains a repeated paper")
    loss_count = np.bincount(losers, minlength=n)

    # a peeled paper's count is set to -1; every paper that beats it left earlier, so none lowers it
    tiers: list[np.ndarray] = []
    zero = loss_count == 0
    while (tier := np.flatnonzero(zero)).size:
        tiers.append(tier)
        loss_count[tier] = -1
        loss_count -= np.bincount(losers[np.flatnonzero(zero[winners])], minlength=n)
        np.equal(loss_count, 0, out=zero)
    if (rest := np.flatnonzero(loss_count > 0)).size:
        tiers.append(rest)
    flat = np.concatenate([np.empty(0, dtype=np.int64), *tiers])
    return TierDecomposition(Ragged(flat, np.cumsum([0, *map(len, tiers)])))


def full_ranking(tiers: TierDecomposition, avg_scores: np.ndarray) -> np.ndarray:
    """Total order: tier by tier, descending average score within a tier.

    Ties on the average break toward the smaller paper id so the order is
    deterministic. A tier id outside ``[0, len(avg_scores))`` raises
    ValueError.
    """
    avg_scores = np.asarray(avg_scores, dtype=float)
    ids = tiers.tiers.flat
    if ids.size and (ids.min() < 0 or ids.max() >= len(avg_scores)):
        raise ValueError(f"a tier names a paper outside [0, {len(avg_scores)})")
    pieces = [np.empty(0, dtype=np.int64)]
    for tier in tiers.tiers:
        pieces.append(tier[np.lexsort((tier, -avg_scores[tier]))])
    return np.concatenate(pieces)
