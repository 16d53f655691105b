"""The four paper-quality estimators compared by the benchmark.

1. average: mean of the final review scores per paper.
2. reviewer-ranking: isotonic calibration of the averages along the full
   order produced by hierarchical tier peeling, blended 50/50 with the
   raw averages.
3. author-ranking: per-owner isotonic projection onto each prolific
   author's (perfectly quality-ordered) ranking of their own papers.
4. combined: reviewer-ranking calibration followed by the author
   projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .conference import Conference
from .isotonic import _pava_non_decreasing, isotonic_project_indexed
from .ranking import full_ranking, hierarchical_tiers
from .scoring import ReviewerRanking, ScoreTable

EstimateVector = np.ndarray
"""Per-paper quality estimates, indexed by paper id."""


def avg_scores(final: ScoreTable, conf: Conference) -> EstimateVector:
    """Mean final score per paper; every paper must have at least one review.

    Raises ValueError for an empty table, a paper id outside the conference
    or a non-finite score.
    """
    papers = final.papers
    if len(papers) == 0:
        raise ValueError("score table is empty")
    if papers.min() < 0 or papers.max() >= conf.n_papers:
        raise ValueError(f"score table references a paper id outside [0, {conf.n_papers})")
    if not np.isfinite(final.values).all():
        raise ValueError("review scores must be finite")
    counts = np.bincount(papers, minlength=conf.n_papers)
    if np.any(counts == 0):
        missing = int(np.flatnonzero(counts == 0)[0])
        raise ValueError(f"paper {missing} has no review score")
    sums = np.bincount(papers, weights=final.values, minlength=conf.n_papers)
    return sums / counts


def calibrate_reviewer(
    avg: EstimateVector, rankings: Sequence[ReviewerRanking], blend: float = 0.5
) -> EstimateVector:
    """Calibrate averages along the reviewer-derived global ranking.

    Builds the tier decomposition from the rankings, orders papers tier by
    tier (averages inside a tier), projects the averages onto that order,
    and returns blend * fitted + (1 - blend) * avg.
    """
    avg = np.asarray(avg, dtype=float)
    tiers = hierarchical_tiers(rankings, range(len(avg)))
    order = full_ranking(tiers, avg)
    return isotonic_project_indexed(avg, order, blend)


@dataclass
class OwnerPartition:
    """Disjoint paper ownership by prolific authors.

    ``owners`` maps author id -> owned papers ordered by descending true
    quality; ownership sets never overlap and each has >= 2 papers.

    Construction also derives a flat layout of ``owners`` in insertion
    order, which ``calibrate_author`` reads: the concatenated paper ids,
    CSR pointers (owner k holds ``_papers[_ptr[k]:_ptr[k + 1]]``) and a
    mask that is true where an entry has the same owner as the entry
    before it. The layout is not refreshed, so ``owners`` must not be
    mutated after construction.
    """

    owners: dict[int, np.ndarray]
    _papers: np.ndarray = field(init=False, repr=False, compare=False)
    _ptr: np.ndarray = field(init=False, repr=False, compare=False)
    _same_owner: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        owned = [np.asarray(p) for p in self.owners.values()]
        lengths = np.array([len(p) for p in owned], dtype=np.int64)
        self._papers = np.concatenate([np.zeros(0, dtype=np.int64), *owned])
        self._ptr = np.concatenate(([0], np.cumsum(lengths)))
        owner_of = np.repeat(np.arange(len(owned)), lengths)
        self._same_owner = np.zeros(len(owner_of), dtype=bool)
        self._same_owner[1:] = owner_of[1:] == owner_of[:-1]

    @property
    def n_owned(self) -> int:
        return sum(len(v) for v in self.owners.values())

    def validate(self) -> None:
        seen: set[int] = set()
        for author, papers in self.owners.items():
            ids = set(int(p) for p in papers)
            if len(ids) != len(papers) or len(ids) < 2:
                raise ValueError(f"owner {author} must own >= 2 distinct papers")
            if ids & seen:
                raise ValueError(f"owner {author} overlaps a previous owner")
            seen |= ids


def build_owner_partition(conf: Conference) -> OwnerPartition:
    """Greedy disjoint ownership favouring the most prolific authors.

    Authors are processed by descending submission count (ties toward the
    smaller author id); each claims their papers that are still unowned and
    is kept only if at least two remain. Owned papers are ordered by
    descending true score (smaller id first on exact ties).
    """
    multiplicities = np.fromiter(
        (len(p) for p in conf.authorship), dtype=np.int64, count=conf.n_authors
    )
    order = np.lexsort((np.arange(conf.n_authors), -multiplicities))
    theta = conf.true_scores
    claimed = np.zeros(conf.n_papers, dtype=bool)
    owners: dict[int, np.ndarray] = {}
    for a in order:
        if multiplicities[a] < 2:
            break
        papers = conf.authorship[a]
        mine = papers[~claimed[papers]]
        if len(mine) < 2:
            continue
        claimed[mine] = True
        owners[int(a)] = mine[np.lexsort((mine, -theta[mine]))]
    return OwnerPartition(owners=owners)


def calibrate_author(
    scores: EstimateVector, owners: OwnerPartition, blend: float = 1.0
) -> EstimateVector:
    """Project each owner's papers onto their true-quality order.

    The default blend of 1 applies the full projection (the owners' order
    is exact, so no regularisation toward the input is needed); papers
    without an owner pass through unchanged.

    All owners run as one flat pass over the partition's layout. An owner
    whose scores never rise along its order is already non-increasing, so
    the projection passes it through untouched and PAVA skips it; the other
    owners are fitted as segments of a single PAVA call. The result equals
    the per-owner projection bit for bit.
    """
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    out = np.asarray(scores, dtype=float).copy()
    if not np.isfinite(out).all():
        raise ValueError("scores must be finite")
    papers, ptr = owners._papers, owners._ptr
    y = out[papers]
    # the first entry of each strict rise; it shares its owner with the next entry
    rises = np.flatnonzero(owners._same_owner[1:] & (y[1:] > y[:-1]))
    rising = np.unique(np.searchsorted(ptr, rises, side="right") - 1)
    segments = zip(ptr[rising].tolist(), ptr[rising + 1].tolist())
    # isotonic_fit's unit-weight non-increasing fit; the check above covers every owner
    fitted = -_pava_non_decreasing(-y, None, segments)
    out[papers] = blend * fitted + (1.0 - blend) * y
    return out


def calibrate_combined(
    avg: EstimateVector,
    rankings: Sequence[ReviewerRanking],
    owners: OwnerPartition,
    blend: float = 0.5,
) -> EstimateVector:
    """Reviewer calibration first, exact author projection second."""
    return calibrate_author(calibrate_reviewer(avg, rankings, blend), owners)


def rmse(est: EstimateVector, truth: np.ndarray) -> float:
    """Root mean square error between estimates and true scores.

    Raises ValueError for mismatched shapes, empty input or non-finite values.
    """
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    if est.size == 0:
        raise ValueError("rmse of empty input")
    if not (np.isfinite(est).all() and np.isfinite(truth).all()):
        raise ValueError("rmse input must be finite")
    return float(np.sqrt(np.mean((est - truth) ** 2)))

