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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .conference import Conference, Ragged
from .isotonic import _pava_non_decreasing, isotonic_project_indexed
from .ranking import full_ranking, hierarchical_tiers


def avg_scores(final: np.ndarray, conf: Conference) -> np.ndarray:
    """Mean final score per paper.

    ``final`` holds one score per review slot, aligned with
    ``conf.slot_papers``; a valid conference gives every paper at least one.
    Raises ValueError for a length other than ``conf.n_slots`` or a
    non-finite average. Each slot feeds one paper's average, so a
    non-finite score is reported as a non-finite average, as are finite
    scores whose sum overflows.
    """
    final = np.asarray(final, dtype=float)
    papers = conf.slot_papers
    if final.shape != papers.shape:
        raise ValueError(f"expected {conf.n_slots} slot scores, got shape {final.shape}")
    counts = np.bincount(papers, minlength=conf.n_papers)
    sums = np.bincount(papers, weights=final, minlength=conf.n_papers)
    avg = sums / counts
    if not np.isfinite(avg).all():
        raise ValueError("average review scores must be finite")
    return avg


def calibrate_reviewer(
    avg: np.ndarray, rankings: Sequence[np.ndarray], blend: float = 0.5
) -> np.ndarray:
    """Calibrate averages along the reviewer-derived global ranking.

    Builds the tier decomposition from the rankings, orders papers tier by
    tier (averages inside a tier), projects the averages onto that order,
    and returns blend * fitted + (1 - blend) * avg. Averages that are not
    a 1-d vector raise ValueError, and a pooled block of finite averages
    whose sum overflows raises fsum's OverflowError.
    """
    avg = np.asarray(avg, dtype=float)
    if avg.ndim != 1:
        raise ValueError(f"averages must be a 1-d vector, got shape {avg.shape}")
    tiers = hierarchical_tiers(rankings, range(len(avg)))
    order = full_ranking(tiers, avg)
    return isotonic_project_indexed(avg, order, blend)


@dataclass(frozen=True, eq=False)
class OwnerPartition:
    """Disjoint paper ownership by prolific authors.

    Each row of ``owners`` holds one author's papers, ordered by descending
    true quality (``build_owner_partition`` keeps only rows of >= 2 papers).
    ``owners`` is a ``Ragged`` (checked when built) or a list of rows of
    integer ids; ValueError otherwise, or if a paper is owned twice.
    """

    owners: Ragged

    def __post_init__(self):
        object.__setattr__(self, "owners", Ragged.of(self.owners))
        owned = np.sort(self.owners.flat)
        repeated = owned[1:][owned[1:] == owned[:-1]]
        if repeated.size:
            raise ValueError(f"paper {repeated[0]} is owned twice")

    @property
    def n_owned(self) -> int:
        return len(self.owners.flat)


def build_owner_partition(conf: Conference) -> OwnerPartition:
    """Greedy disjoint ownership favouring the most prolific authors.

    Authors are processed by descending submission count (ties toward the
    smaller author id); each claims their papers that are still unowned and
    is kept only if at least two remain. Owned papers are ordered by
    descending true score (smaller id first on exact ties).

    The claim runs over Python ints and a bytearray; one sort by (owner,
    -true score, id) then orders every owner's papers at once.
    """
    sizes = conf.authorship.sizes
    order = np.lexsort((np.arange(conf.n_authors), -sizes))
    # memoryviews give Python ints without copying the whole authorship into lists
    flat, ptr = memoryview(conf.authorship.flat), memoryview(conf.authorship.ptr)
    claimed = bytearray(conf.n_papers)
    owned: list[int] = []
    counts: list[int] = []
    for a in order[: np.count_nonzero(sizes >= 2)].tolist():
        mine = [p for p in flat[ptr[a] : ptr[a + 1]] if not claimed[p]]
        if len(mine) < 2:
            continue
        for p in mine:
            claimed[p] = True
        owned += mine
        counts.append(len(mine))
    papers = np.array(owned, dtype=np.int64)
    owner = np.repeat(np.arange(len(counts)), counts)
    papers = papers[np.lexsort((papers, -conf.true_scores[papers], owner))]
    return OwnerPartition(Ragged(papers, np.cumsum([0, *counts])))


def calibrate_author(
    scores: np.ndarray, owners: OwnerPartition, blend: float = 1.0
) -> np.ndarray:
    """Project each owner's papers onto their true-quality order.

    The default blend of 1 applies the full projection (the owners' order
    is exact, so no regularisation toward the input is needed); papers
    without an owner pass through unchanged.

    All owners run as one flat pass over ``owners.owners.flat``, cut into
    rows by ``owners.owners.ptr``: every owner is a segment of a single
    PAVA call, which does not walk an owner whose scores never rise along
    its order. The result equals the per-owner projection bit for bit.
    Scores that are not a 1-d vector, or an owned paper id outside
    ``[0, len(scores))``, raise ValueError, and a pooled block of finite
    scores whose sum overflows raises fsum's OverflowError.
    """
    if not 0.0 <= blend <= 1.0:
        raise ValueError(f"blend must lie in [0, 1], got {blend}")
    out = np.asarray(scores, dtype=float).copy()
    if out.ndim != 1:
        raise ValueError(f"scores must be a 1-d vector, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError("scores must be finite")
    papers, ptr = owners.owners.flat, owners.owners.ptr
    if papers.size and (papers.min() < 0 or papers.max() >= len(out)):
        raise ValueError(f"an owner names a paper outside [0, {len(out)})")
    y = out[papers]
    # isotonic_fit's unit-weight non-increasing fit, one segment per owner; the checks above cover all
    fitted = -_pava_non_decreasing(-y, None, np.column_stack((ptr[:-1], ptr[1:])))
    out[papers] = blend * fitted + (1.0 - blend) * y
    return out


def rmse(est: np.ndarray, truth: np.ndarray) -> float:
    """Root mean square error between estimates and true scores.

    Raises ValueError for mismatched shapes, empty input, non-finite values
    or a result too large to be finite.
    """
    est = np.asarray(est, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if est.shape != truth.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {truth.shape}")
    if est.size == 0:
        raise ValueError("rmse of empty input")
    # a non-finite input makes the result non-finite too, so one check covers both
    with np.errstate(over="ignore", invalid="ignore"):
        result = float(np.sqrt(np.mean((est - truth) ** 2)))
    if not np.isfinite(result):
        raise ValueError("rmse input and result must be finite")
    return result

