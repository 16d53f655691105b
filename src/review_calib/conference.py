"""Synthetic conference generation.

Builds a conference (papers with latent quality scores, authors with paper
sets, reviewers with assignments) whose summary statistics mirror a large
machine-learning venue: 6,538 submissions, 18,535 distinct authors, and an
author-multiplicity tail with 24.3% / 2.74% / 0.40% / 0.15% of authors at
>= 2 / 5 / 10 / 15 papers. Papers receive 3 or 4 reviewers each.

Defaults for the quantities only known as summary counts (authors per
paper, reviewer loads, quality spread) are calibration outcomes; all of
them are exposed through :class:`GenConfig` and can be overridden from a
JSON configuration file.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from .distributions import DiscreteDistribution
from .errors import (
    ConfigurationError, GenerationError, config_float, config_from_json, config_int, config_json
)
from .seeding import PURPOSE_CONFERENCE, stream

DEFAULT_MULTIPLICITY_TARGETS = ((2, 4505), (5, 508), (10, 74), (15, 26))

# Mixture of single-author papers and large collaborations whose total
# authorship count matches the author-side multiplicity total.
DEFAULT_AUTHORS_PER_PAPER = DiscreteDistribution((1, 8), (0.553, 0.447))
DEFAULT_REVIEWERS_PER_PAPER = DiscreteDistribution.uniform((3, 4))
DEFAULT_REVIEWER_CAPACITY = DiscreteDistribution.point_mass(2)

DEFAULT_MASTER_SEED = 42

_MATCHING_RETRIES = 20

# the largest |true_score_mean| and true_score_sd: squared score errors, summed in the RMSE,
# must stay far inside the float range (at 1e6 a run raises no numpy overflow warning)
_SCORE_SCALE_MAX = 1e6

# the largest capacity_slack: the reviewer pool grows with it (slack 100 gives 1.1 million
# reviewers on the default conference), and at 1e308 its capacity target overflows to inf
_CAPACITY_SLACK_MAX = 100.0

# the number fields of GenConfig and how each is typed; only n_reviewers may be None
_NUMBER_FIELDS = {
    "n_papers": config_int,
    "n_authors": config_int,
    "n_reviewers": config_int,
    "capacity_slack": config_float,
    "true_score_mean": config_float,
    "true_score_sd": config_float,
}


@dataclass(frozen=True)
class GenConfig:
    """Generator configuration; defaults reproduce the benchmark conference."""

    n_papers: int = 6538
    n_authors: int = 18535
    author_multiplicity_targets: tuple[tuple[int, int], ...] = DEFAULT_MULTIPLICITY_TARGETS
    authors_per_paper_dist: DiscreteDistribution = DEFAULT_AUTHORS_PER_PAPER
    reviewers_per_paper_dist: DiscreteDistribution = DEFAULT_REVIEWERS_PER_PAPER
    reviewer_capacity_dist: DiscreteDistribution = DEFAULT_REVIEWER_CAPACITY
    n_reviewers: int | None = None
    capacity_slack: float = 1.05
    true_score_mean: float = 5.0
    true_score_sd: float = 0.88

    def __post_init__(self):
        # counts are stored as int (an integral float is accepted), the rest as finite floats
        for name, typed in _NUMBER_FIELDS.items():
            value = getattr(self, name)
            if value is not None or name != "n_reviewers":
                object.__setattr__(self, name, typed(value, name))
        for name in ("authors_per_paper_dist", "reviewers_per_paper_dist", "reviewer_capacity_dist"):
            dist = getattr(self, name)
            if not isinstance(dist, DiscreteDistribution):
                raise ConfigurationError(f"{name} must be a DiscreteDistribution, got {dist!r}")
        name, targets = "author_multiplicity_targets", self.author_multiplicity_targets
        if not isinstance(targets, tuple) or not all(isinstance(p, tuple) and len(p) == 2 for p in targets):
            raise ConfigurationError(f"{name} must be a tuple of (threshold, count) pairs, got {targets!r}")
        object.__setattr__(self, name, tuple((config_int(t, name), config_int(c, name)) for t, c in targets))
        if self.n_papers < 1:
            raise ConfigurationError(f"n_papers must be >= 1, got {self.n_papers}")
        if self.n_authors < 1:
            raise ConfigurationError(f"n_authors must be >= 1, got {self.n_authors}")
        if self.true_score_sd <= 0:
            raise ConfigurationError(f"true_score_sd must be > 0, got {self.true_score_sd}")
        if max(abs(self.true_score_mean), self.true_score_sd) > _SCORE_SCALE_MAX:
            raise ConfigurationError(f"|true_score_mean| and true_score_sd must be <= {_SCORE_SCALE_MAX:g}")
        if not 1.0 <= self.capacity_slack <= _CAPACITY_SLACK_MAX:
            raise ConfigurationError(
                f"capacity_slack must lie in [1, {_CAPACITY_SLACK_MAX:g}], got {self.capacity_slack}"
            )
        if self.n_reviewers is not None and self.n_reviewers < 1:
            raise ConfigurationError(f"n_reviewers must be >= 1, got {self.n_reviewers}")
        validate_multiplicity_targets(self.author_multiplicity_targets, self.n_authors, self.n_papers)

    def to_json(self) -> dict:
        return config_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "GenConfig":
        if isinstance(obj, dict) and "master_seed" in obj:
            raise ConfigurationError("master_seed belongs at the top level of the config, not in gen")
        return config_from_json(cls, obj, "generator")


def validate_multiplicity_targets(
    targets: tuple[tuple[int, int], ...], n_authors: int, n_papers: int
) -> None:
    prev_t, prev_c = 1, n_authors
    for t, c in targets:
        if t < 2:
            raise ConfigurationError(f"multiplicity threshold must be >= 2, got {t}")
        if t <= prev_t:
            raise ConfigurationError("multiplicity thresholds must be strictly increasing")
        if c < 0 or c > n_authors:
            raise ConfigurationError(f"target count {c} outside [0, {n_authors}]")
        if c > prev_c:
            raise ConfigurationError(
                f"count at threshold {t} ({c}) exceeds count at a lower threshold ({prev_c})"
            )
        if c > 0 and t > n_papers:
            raise ConfigurationError(f"multiplicity threshold {t} > n_papers ({n_papers}) has count {c}")
        prev_t, prev_c = t, c
    if targets and targets[0][1] / n_authors >= 1.0 - 1e-12:
        raise ConfigurationError("tail fraction at the first threshold must be < 1")


def _sign(d) -> int:
    """The sign of d, with +1 for zero; int comparisons, as numpy refuses ``bool - bool``."""
    return int(d > 0) - int(d < 0) + int(d == 0)


def _minimize_bounded(func, lo: float, hi: float) -> tuple[float, float]:
    """``(x, func(x))`` at a local minimum of ``func`` on ``[lo, hi]``.

    Brent's bounded method (Brent, *Algorithms for Minimization without
    Derivatives*, 1973, ch. 5) as scipy's ``fminbound`` runs it, with its
    defaults: an absolute tolerance in x of 1e-5 and at most 500
    evaluations. The golden-section and parabolic steps and their updates
    come in scipy's order, so the result is scipy's bit for bit.
    """
    xatol, maxfun = 1e-5, 500
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = func(xf)
    num = 1
    ffulc = fnfc = fx
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if not abs(xf - xm) > tol2 - 0.5 * (b - a) or num >= maxfun:
            return xf, fx
        golden = True
        if abs(e) > tol1:  # try a parabola through the last three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = func(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu


@functools.lru_cache(maxsize=32)
def fit_multiplicity_distribution(
    targets: tuple[tuple[int, int], ...], n_authors: int
) -> DiscreteDistribution:
    """Distribution of papers-per-author hitting the configured tail counts.

    The mass below the first threshold is uniform on {1, ..., t1 - 1} (a
    point mass at 1 for the usual t1 = 2); the tail from t1 upward is a
    truncated discrete power law k**(-alpha) on {t1, ..., M}. The exponent
    and truncation point are fit by least squares on the log tail fractions
    at the remaining thresholds; with no higher thresholds the exponent
    defaults to 2.5 and M to 4 * t1. The targets are a built
    :class:`GenConfig`'s, so they are not checked again here.
    """
    targets = tuple((t, c) for t, c in targets if c > 0)
    if not targets:
        return DiscreteDistribution.point_mass(1)
    t1, c1 = targets[0]
    f1 = c1 / n_authors
    higher = [(t, c / n_authors) for t, c in targets[1:]]

    def tail_ratios(alpha: float, m: int) -> dict[int, float]:
        ks = np.arange(t1, m + 1, dtype=float)
        p = ks ** (-alpha)
        total = p.sum()
        return {t: p[ks >= t].sum() / total for t, _ in higher}

    if higher:
        log_targets = {t: np.log(f / f1) for t, f in higher}
        best = None
        m_lo = targets[-1][0] + 1
        for m in range(m_lo, max(4 * m_lo, 64)):

            def objective(alpha: float) -> float:
                ratios = tail_ratios(alpha, m)
                return sum((np.log(ratios[t]) - log_targets[t]) ** 2 for t, _ in higher)

            x, fun = _minimize_bounded(objective, 0.1, 12.0)
            if best is None or fun < best[0]:
                best = (fun, float(x), m)
        _, alpha, m = best
    else:
        alpha, m = 2.5, 4 * t1

    ks = np.arange(t1, m + 1)
    tail = ks.astype(float) ** (-alpha)
    tail *= f1 / tail.sum()
    low = np.arange(1, t1)
    low_p = np.full(len(low), (1.0 - f1) / len(low))
    values = (*low.tolist(), *ks.tolist())
    probs = (*low_p.tolist(), *tail.tolist())
    return DiscreteDistribution(values, probs)


def sample_author_multiplicities(config: GenConfig, rng: np.random.Generator) -> np.ndarray:
    """Papers-per-author counts for the configured author pool.

    Draws are clamped to n_papers, as an author cannot write more distinct
    papers than exist. Every threshold with a positive count is at most
    n_papers, so the clamp moves no draw across a threshold; only the fitted
    power-law tail above the last such threshold can run past n_papers.
    """
    dist = fit_multiplicity_distribution(config.author_multiplicity_targets, config.n_authors)
    draws = dist.sample(rng, config.n_authors)
    return np.minimum(draws, config.n_papers)


def _ids(row) -> np.ndarray:
    """``row`` as int64 if a 1-d run of integers below 2**63 (an empty one of any dtype); else ValueError."""
    row = np.asarray(row)
    if row.ndim != 1 or (row.size and row.dtype.kind not in "iu"):
        raise ValueError(f"rows must be integer ids, got a {row.ndim}-d row of {row.dtype}")
    ids = row.astype(np.int64, copy=False)
    if row.dtype.kind == "u" and (ids < 0).any():
        raise ValueError(f"rows must be integer ids below 2**63, got {row.max()}")
    return ids


@dataclass(frozen=True, eq=False)
class Ragged(Sequence):
    """Rows of ids stored flat, CSR style: row i is ``flat[ptr[i]:ptr[i + 1]]``.

    Checked once, when built: ``flat`` must be a 1-d run of integer ids below
    2**63 (an empty one of any dtype), ``ptr`` a 1-d integer array starting at 0 that
    never decreases and ends at ``len(flat)``; else ValueError. Both are
    stored as int64; indexing and iteration give views of ``flat``.
    """

    flat: np.ndarray
    ptr: np.ndarray

    def __post_init__(self):
        flat, ptr = _ids(self.flat), np.asarray(self.ptr)
        csr = ptr.ndim == 1 and ptr.dtype.kind in "iu" and len(ptr) > 0
        if not csr or ptr[0] != 0 or ptr[-1] != len(flat) or np.any(ptr[1:] < ptr[:-1]):
            raise ValueError(f"ptr is not a CSR pointer over {len(flat)} ids")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "ptr", ptr.astype(np.int64, copy=False))

    @classmethod
    def of(cls, rows) -> "Ragged":
        """``rows`` flattened; a Ragged, already checked when it was built, is returned as it is.

        Raises ValueError, rather than converting, unless every row is a 1-d
        run of integers; an empty row may have any dtype.
        """
        if isinstance(rows, Ragged):
            return rows
        arrays = [_ids(row) for row in rows]
        return cls(np.concatenate([np.empty(0, dtype=np.int64), *arrays]), np.cumsum([0, *map(len, arrays)]))

    def __len__(self) -> int:
        return len(self.ptr) - 1

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[operator.index(i)]  # a negative index counts from the end
        return self.flat[self.ptr[i] : self.ptr[i + 1]]

    def __iter__(self):
        bounds = self.ptr.tolist()
        return (self.flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    def row_of(self) -> np.ndarray:
        """The row index of every entry of ``flat``."""
        return np.repeat(np.arange(len(self), dtype=np.int64), self.sizes)


def _rows(rows, name: str) -> Ragged:
    try:
        return Ragged.of(rows)
    except ValueError as err:
        raise GenerationError(f"{name}: {err}") from None


@dataclass(eq=False)
class Conference:
    """A conference, generated or hand-built: quality scores, authorship, review assignment.

    ``authorship`` holds each author's paper ids as one ``Ragged`` row
    (a list of rows is converted). The assignment is stored once, as
    review slots in CSR layout: reviewer r holds papers
    ``slot_papers[reviewer_ptr[r]:reviewer_ptr[r + 1]]``, and
    ``slot_reviewers`` (derived) names the reviewer of every slot. Slots
    run reviewer by reviewer; a generated conference lists each reviewer's
    papers in increasing order, a hand-built one keeps the order it was
    given. Per-slot data, such as scores, are arrays aligned with
    ``slot_papers``. ``true_scores`` is stored as a 1-d float array.

    A conference is checked once, when it is built (unpickling does not
    re-check), and GenerationError names the first failure: true scores
    must be finite numbers, ``authorship`` and ``slot_papers`` integer ids,
    ``reviewer_ptr`` a CSR pointer over the slots (the ``Ragged`` rule);
    then :meth:`validate` checks that each author holds one or more
    distinct known papers, no reviewer holds a paper twice or an unknown
    one, and every paper has an author and a reviewer.

    Derived data (``slot_reviewers``, and the bundle plan ``scoring``
    keeps for each live conference) is not refreshed, so the arrays must
    not be mutated after construction. A conference equals only itself,
    and hashes by identity.
    """

    true_scores: np.ndarray
    authorship: Ragged
    slot_papers: np.ndarray
    reviewer_ptr: np.ndarray
    slot_reviewers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        try:
            scores = np.asarray(self.true_scores)
            typed = scores.ndim == 1 and scores.dtype.kind in "iuf"
        except ValueError:  # a ragged nesting
            typed = False
        if not typed:
            raise GenerationError("true_scores must be a 1-d array of numbers")
        self.true_scores = scores.astype(float, copy=False)
        non_finite = np.flatnonzero(~np.isfinite(self.true_scores))
        if len(non_finite):
            raise GenerationError(f"paper {non_finite[0]} has a non-finite true score")
        self.authorship = _rows(self.authorship, "authorship")
        self.slot_papers = _rows([self.slot_papers], "slot_papers").flat
        try:
            slots = Ragged(self.slot_papers, self.reviewer_ptr)
        except ValueError:  # numpy raises one, too, for a ragged nesting
            raise GenerationError("reviewer_ptr is not a CSR pointer over slot_papers") from None
        self.reviewer_ptr = slots.ptr
        self.slot_reviewers = slots.row_of()
        self.validate()

    @property
    def n_papers(self) -> int:
        return len(self.true_scores)

    @property
    def n_authors(self) -> int:
        return len(self.authorship)

    @property
    def n_reviewers(self) -> int:
        return len(self.reviewer_ptr) - 1

    @property
    def n_slots(self) -> int:
        return len(self.slot_papers)

    def validate(self) -> None:
        """Check the structural invariants; raises GenerationError on failure.

        - every author holds a non-empty list of distinct, known paper ids;
        - every paper has at least one author;
        - no reviewer holds a paper twice or an unknown paper id;
        - every paper has at least one reviewer.

        Each check runs over authors, reviewers or papers in id order. The
        error names the first one that fails, with the first of its failing
        checks in the order above.
        """
        n = self.n_papers
        papers, author_of = self.authorship.flat, self.authorship.row_of()
        unknown = (papers < 0) | (papers >= n)
        _raise_first(
            (np.flatnonzero(self.authorship.sizes == 0), lambda a: "author with an empty paper list"),
            (author_of[unknown], lambda a: "authorship references an unknown paper id"),
            (author_of[_repeats(author_of, papers)], lambda a: "author holds a duplicated paper"),
        )
        unheld = np.flatnonzero(np.bincount(papers, minlength=n) == 0)
        _raise_first((unheld, lambda p: f"paper {p} has no author"))

        reviewer_of, papers = self.slot_reviewers, self.slot_papers
        unknown = (papers < 0) | (papers >= n)
        _raise_first(
            (reviewer_of[_repeats(reviewer_of, papers)], lambda r: f"reviewer {r} holds the same paper twice"),
            (reviewer_of[unknown], lambda r: f"reviewer {r} references an unknown paper id"),
        )
        unheld = np.flatnonzero(np.bincount(papers, minlength=n) == 0)
        _raise_first((unheld, lambda p: f"paper {p} has no reviewer"))

    def _paper_reviewers(self) -> Ragged:
        """Per paper, the reviewers holding it in increasing order (the reverse assignment)."""
        # slot_reviewers never decreases, so a stable sort by paper keeps it increasing per paper
        order = np.argsort(self.slot_papers, kind="stable")
        counts = np.bincount(self.slot_papers, minlength=self.n_papers)
        return Ragged(self.slot_reviewers[order], np.concatenate(([0], np.cumsum(counts))))

    def to_json(self) -> dict:
        return {
            "true_scores": self.true_scores.tolist(),
            "authorship": [a.tolist() for a in self.authorship],
            "assignment": [a.tolist() for a in Ragged(self.slot_papers, self.reviewer_ptr)],
            "reverse_assignment": [a.tolist() for a in self._paper_reviewers()],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))


def _repeats(owner: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Indices of elements whose (owner, value) pair occurs more than once, bar one per pair.

    ``owner`` must be non-decreasing.
    """
    if not np.any((owner[1:] == owner[:-1]) & (values[1:] <= values[:-1])):
        # every owner's values strictly increase, as in a generated conference
        return np.empty(0, dtype=np.int64)
    order = np.lexsort((values, owner))
    o, v = owner[order], values[order]
    return order[1:][(o[1:] == o[:-1]) & (v[1:] == v[:-1])]


def _raise_first(*checks) -> None:
    """Raise for the lowest index named by any (failing indices, message) check.

    Checks come in precedence order; the first one naming that index
    builds the message from the index.
    """
    failing = [(indices.min(), k) for k, (indices, _) in enumerate(checks) if len(indices)]
    if failing:
        i, k = min(failing)
        raise GenerationError(checks[k][1](int(i)))


def _reconciled_author_loads(
    n_papers: int, multiplicities: np.ndarray, dist: DiscreteDistribution, rng: np.random.Generator
) -> np.ndarray:
    """Per-paper author counts summing exactly to the authors' multiplicities.

    Sampled counts are capped at the number of authors, the most a paper can
    have; each round moves a count by one, so the cap also bounds the rounds.
    """
    total_authorships = int(multiplicities.sum())
    if total_authorships < n_papers:
        raise GenerationError(
            f"only {total_authorships} authorships for {n_papers} papers "
            f"(deficit {n_papers - total_authorships}); some papers would have no author"
        )
    loads = np.minimum(dist.sample(rng, n_papers), len(multiplicities))
    diff = total_authorships - int(loads.sum())
    if diff > 0:
        bump = rng.integers(0, n_papers, size=diff)
        np.add.at(loads, bump, 1)
    while diff < 0:
        candidates = np.flatnonzero(loads > 1)
        take = min(len(candidates), -diff)
        drop = rng.choice(candidates, size=take, replace=False)
        loads[drop] -= 1
        diff += take
    return loads


def _deal_authorship(
    n_papers: int,
    multiplicities: np.ndarray,
    dist: DiscreteDistribution,
    rng: np.random.Generator,
) -> Ragged:
    """Match authors to papers: author a gets multiplicities[a] distinct papers.

    A shuffled deck holds each paper once per target author slot; authors are
    dealt in descending multiplicity order, skipping papers they already
    hold. A dealing that strands an author restarts with a fresh shuffle.

    Each author dealt moves the deck pointer on by exactly its multiplicity,
    so the k-th author dealt takes the window ``deck[bounds[k]:bounds[k + 1]]``.
    A window without a repeated paper is dealt as it lies. One sort of the
    (author, paper) keys flags the windows that hold a repeat, and only those
    are scanned, in deal order: a repeated paper is swapped with the next
    paper further on that the author lacks. A swap that reaches past the
    window changes a later window, which is then scanned in its turn. The
    result is that of scanning every author in turn, bit for bit.
    """
    n_authors = len(multiplicities)
    loads = _reconciled_author_loads(n_papers, multiplicities, dist, rng)
    deal_order = np.lexsort((np.arange(n_authors), -multiplicities))
    window_of = np.empty(n_authors, dtype=np.int64)
    window_of[deal_order] = np.arange(n_authors)
    owner_key = np.repeat(deal_order * n_papers, multiplicities[deal_order])
    bounds = np.concatenate(([0], np.cumsum(multiplicities[deal_order])))
    ptr = np.concatenate(([0], np.cumsum(multiplicities)))
    for _ in range(_MATCHING_RETRIES):
        deck = np.repeat(np.arange(n_papers, dtype=np.int64), loads)
        rng.shuffle(deck)
        # sorted (author, paper) keys: each author's papers in increasing order, authors by id
        keys = owner_key + deck
        keys.sort()
        repeats = keys[1:][keys[1:] == keys[:-1]] // n_papers
        scanned = _deal_windows(deck, bounds, np.unique(window_of[repeats]).tolist())
        if scanned is not None:
            keys %= n_papers
            for k in scanned:
                a = deal_order[k]
                keys[ptr[a] : ptr[a + 1]] = np.sort(deck[bounds[k] : bounds[k + 1]])
            return Ragged(keys, ptr)
    raise GenerationError(
        f"authorship dealing failed after {_MATCHING_RETRIES} retries; "
        "multiplicity targets are too tight for this paper count"
    )


def _deal_windows(deck: np.ndarray, bounds: np.ndarray, flagged: list[int]) -> list[int] | None:
    """Scan the flagged windows of ``deck`` in order, in place; None if an author strands.

    Returns every window scanned, in increasing order: the flagged ones and
    those a swap wrote into.
    """
    # a swap only writes past the window being scanned, so one forward pass visits them all
    pending = bytearray(len(bounds) - 1)
    for k in flagged:
        pending[k] = 1
    scanned = []
    k = pending.find(1)
    while k >= 0:
        scanned.append(k)
        ptr, end = int(bounds[k]), int(bounds[k + 1])
        held: set[int] = set()
        j = ptr
        while ptr < end:
            if j >= len(deck):
                return None
            paper = int(deck[j])
            if paper in held:
                j += 1
                continue
            deck[ptr], deck[j] = paper, deck[ptr]
            held.add(paper)
            ptr += 1
            if j >= end:
                pending[int(np.searchsorted(bounds, j, side="right")) - 1] = 1
            j = max(j + 1, ptr)
        k = pending.find(1, k + 1)
    return scanned


class _BoundedDraws:
    """``rng.integers(0, n)``, one draw at a time, replayed from blocks of 32-bit words.

    For ``1 <= n < 2**32`` numpy draws ``integers(0, n)`` by Lemire's method
    (Lemire 2019, "Fast random integer generation in an interval") over
    the generator's ``next_uint32`` words: ``n == 1`` draws nothing; else
    ``m = word * n`` is redrawn while its low 32 bits fall below
    ``(2**32 - n) % n``, a test reached only when they fall below ``n``,
    and the draw is ``m >> 32``. A twin of ``rng`` draws those words in
    chunks, as ``integers(0, 2**32, dtype=np.uint32)`` returns them: the
    next is ``words[pos]``, and an undrawn 0 ends the chunk. A caller may
    take a safe word (``m & 0xFFFFFFFF >= n > 1``) itself and leave any other
    to ``below``. ``sync`` then advances ``rng`` past the words used, to
    where the one-at-a-time calls leave it.
    """

    _CHUNK = 2048

    def __init__(self, rng: np.random.Generator, max_bound: int):
        if max_bound >= 2**32:
            raise ValueError(f"bounds must stay below 2**32, got {max_bound}")
        self._rng = rng
        self._twin = np.random.Generator(copy.deepcopy(rng.bit_generator))
        self.words, self.pos = [0], 0
        self._drawn = 0

    def _word(self) -> int:
        if self.pos == len(self.words) - 1:
            self.words = [*self._twin.integers(0, 2**32, dtype=np.uint32, size=self._CHUNK).tolist(), 0]
            self.pos = 0
            self._drawn += self._CHUNK
        self.pos += 1
        return self.words[self.pos - 1]

    def below(self, n: int) -> int:
        """What ``rng.integers(0, n)`` would return next."""
        if n == 1:
            return 0
        m = self._word() * n
        if m & 0xFFFFFFFF < n:
            threshold = (2**32 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32

    def sync(self) -> None:
        """Advance ``rng`` past the words used."""
        used = self._drawn - (len(self.words) - 1 - self.pos)
        self._rng.integers(0, 2**32, dtype=np.uint32, size=used)


def _can_take(held_entry, paper: int) -> bool:
    return held_entry != paper and not (held_entry.__class__ is set and paper in held_entry)


def _match_slots(papers: list[int], remaining: list[int], draws: _BoundedDraws) -> list[int] | None:
    """One greedy matching attempt: the reviewer of every slot, or None at a dead end.

    ``remaining`` holds each reviewer's capacity and is used up in place.
    ``held[r]`` is None, one paper id or a set: r's papers, recorded only
    while r keeps capacity and so stays in ``active``, the reviewers a draw
    or scan can reach; at capacity 2 no set is built. A slot whose first
    word is safe and names a reviewer free to take the paper is placed
    inline; any other slot redoes its draws through ``draws.below``.
    """
    active = list(range(len(remaining)))
    held: list = [None] * len(remaining)
    holder = [0] * len(papers)
    words, k = draws.words, draws.pos
    for s, paper in enumerate(papers):
        n = len(active)
        m = words[k] * n
        j = m >> 32
        r = active[j]
        h = held[r]
        if m & 0xFFFFFFFF >= n > 1 and h != paper and not (h.__class__ is set and paper in h):
            k += 1
        else:
            draws.pos = k
            for _ in range(50):
                j = draws.below(len(active))
                if _can_take(held[active[j]], paper):
                    break
            else:
                eligible = [j for j, r in enumerate(active) if _can_take(held[r], paper)]
                if not eligible:
                    return None
                j = eligible[draws.below(len(eligible))]
            r = active[j]
            h = held[r]
            words, k = draws.words, draws.pos
        holder[s] = r
        remaining[r] -= 1
        if not remaining[r]:
            active[j] = active[-1]
            active.pop()
        elif h.__class__ is set:
            h.add(paper)
        else:
            held[r] = paper if h is None else {h, paper}
    draws.pos = k
    return holder


def _assign_reviewers(
    per_paper: np.ndarray,
    config: GenConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Randomized feasible matching of review slots to reviewers.

    Review slots (paper i repeated per_paper[i] times) are shuffled and
    assigned greedily to reviewers with remaining capacity, rejecting
    duplicate (reviewer, paper) pairs; a dead end restarts the matching.
    Each slot draws an active reviewer up to 50 times, one bounded integer
    at a time, each bound the number of reviewers still active; after 50
    misses it draws among all eligible active reviewers. Returns
    ``(slot_papers, reviewer_ptr)``, each reviewer's papers in increasing
    order.

    The bounded integers are ``rng.integers(0, n)``'s, replayed by
    ``_BoundedDraws`` from words drawn in blocks, mostly inline in
    ``_match_slots``; each attempt ends by advancing ``rng`` past the words
    it used, so draws, restarts and the final generator state are those of
    one ``integers`` call per draw, as in ``tests/oracles.py::assign_reviewers_reference``.
    """
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
        chunks: list[np.ndarray] = []
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
        draws = _BoundedDraws(rng, n_reviewers)
        holder = _match_slots(slots.tolist(), capacities.tolist(), draws)
        draws.sync()
        if holder is not None:
            reviewers = np.asarray(holder, dtype=np.int64)
            counts = np.bincount(reviewers, minlength=n_reviewers)
            # one sort of (reviewer, paper) keys puts each reviewer's papers in order
            n_papers = len(per_paper)
            slot_papers = np.sort(reviewers * n_papers + slots) % n_papers
            return slot_papers, np.concatenate(([0], np.cumsum(counts)))
    raise GenerationError(
        f"review matching failed after {_MATCHING_RETRIES} retries; "
        "reviewer capacities are too tight for a duplicate-free assignment"
    )


def gen_conference(config: GenConfig, rng: np.random.Generator | None = None) -> Conference:
    """Generate a full conference from the configuration.

    Identical (config, seed stream) inputs yield a byte-identical
    conference. When ``rng`` is omitted, the conference stream of
    ``DEFAULT_MASTER_SEED`` is used; ``run_experiment`` passes the stream of
    the experiment's master seed.
    """
    if rng is None:
        rng = stream(DEFAULT_MASTER_SEED, PURPOSE_CONFERENCE)
    multiplicities = sample_author_multiplicities(config, rng)
    true_scores = rng.normal(config.true_score_mean, config.true_score_sd, size=config.n_papers)
    authorship = _deal_authorship(config.n_papers, multiplicities, config.authors_per_paper_dist, rng)
    per_paper = config.reviewers_per_paper_dist.sample(rng, config.n_papers)
    slot_papers, reviewer_ptr = _assign_reviewers(per_paper, config, rng)
    return Conference(true_scores, authorship, slot_papers, reviewer_ptr)


def scaled_config(config: GenConfig, n_papers: int) -> GenConfig:
    """Config resized to n_papers with the author pool scaled proportionally."""
    ratio = n_papers / config.n_papers
    n_authors = max(1, round(config.n_authors * ratio))
    targets = tuple(
        (t, min(n_authors, round(c * ratio))) for t, c in config.author_multiplicity_targets
    )
    return replace(
        config,
        n_papers=n_papers,
        n_authors=n_authors,
        author_multiplicity_targets=targets,
    )
