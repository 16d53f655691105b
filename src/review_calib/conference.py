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

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize_scalar

from .distributions import DiscreteDistribution
from .errors import ConfigurationError, GenerationError, config_float, config_int
from .seeding import PURPOSE_CONFERENCE, stream

DEFAULT_MULTIPLICITY_TARGETS = ((2, 4505), (5, 508), (10, 74), (15, 26))

# Mixture of single-author papers and large collaborations whose total
# authorship count matches the author-side multiplicity total.
DEFAULT_AUTHORS_PER_PAPER = DiscreteDistribution((1, 8), (0.553, 0.447))
DEFAULT_REVIEWERS_PER_PAPER = DiscreteDistribution.uniform((3, 4))
DEFAULT_REVIEWER_CAPACITY = DiscreteDistribution.point_mass(2)

DEFAULT_MASTER_SEED = 42

_MATCHING_RETRIES = 20


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
        # a count may be a Python or numpy integer or an integral float; it is stored as int
        for name in ("n_papers", "n_authors", "n_reviewers"):
            value = getattr(self, name)
            if value is not None or name != "n_reviewers":
                object.__setattr__(self, name, config_int(value, name))
        if self.n_papers < 1:
            raise ConfigurationError(f"n_papers must be >= 1, got {self.n_papers}")
        if self.n_authors < 1:
            raise ConfigurationError(f"n_authors must be >= 1, got {self.n_authors}")
        if self.true_score_sd <= 0:
            raise ConfigurationError(f"true_score_sd must be > 0, got {self.true_score_sd}")
        if not 1.0 <= self.capacity_slack < float("inf"):
            raise ConfigurationError(f"capacity_slack must be finite and >= 1, got {self.capacity_slack}")
        if self.n_reviewers is not None and self.n_reviewers < 1:
            raise ConfigurationError(f"n_reviewers must be >= 1, got {self.n_reviewers}")
        validate_multiplicity_targets(self.author_multiplicity_targets, self.n_authors)

    def to_json(self) -> dict:
        return {
            "n_papers": self.n_papers,
            "n_authors": self.n_authors,
            "author_multiplicity_targets": [list(t) for t in self.author_multiplicity_targets],
            "authors_per_paper_dist": self.authors_per_paper_dist.to_json(),
            "reviewers_per_paper_dist": self.reviewers_per_paper_dist.to_json(),
            "reviewer_capacity_dist": self.reviewer_capacity_dist.to_json(),
            "n_reviewers": self.n_reviewers,
            "capacity_slack": self.capacity_slack,
            "true_score_mean": self.true_score_mean,
            "true_score_sd": self.true_score_sd,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GenConfig":
        if not isinstance(obj, dict):
            raise ConfigurationError(f"gen must be a JSON object, got {obj!r}")
        known = {
            "n_papers": config_int,
            "n_authors": config_int,
            "n_reviewers": lambda v, name: None if v is None else config_int(v, name),
            "capacity_slack": config_float,
            "true_score_mean": config_float,
            "true_score_sd": config_float,
        }
        kwargs = {}
        for key, value in obj.items():
            if key in known:
                kwargs[key] = known[key](value, key)
            elif key == "author_multiplicity_targets":
                if not isinstance(value, list) or not all(isinstance(t, list) and len(t) == 2 for t in value):
                    raise ConfigurationError(f"{key} must list [threshold, count] pairs, got {value!r}")
                kwargs[key] = tuple((config_int(t, key), config_int(c, key)) for t, c in value)
            elif key in ("authors_per_paper_dist", "reviewers_per_paper_dist", "reviewer_capacity_dist"):
                kwargs[key] = DiscreteDistribution.from_json(value)
            elif key == "master_seed":
                raise ConfigurationError("master_seed belongs at the top level of the config, not in gen")
            else:
                raise ConfigurationError(f"unknown generator option {key!r}")
        return cls(**kwargs)


def validate_multiplicity_targets(targets: tuple[tuple[int, int], ...], n_authors: int) -> None:
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
        prev_t, prev_c = t, c


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
    defaults to 2.5 and M to 4 * t1.
    """
    validate_multiplicity_targets(targets, n_authors)
    targets = tuple((t, c) for t, c in targets if c > 0)
    if not targets:
        return DiscreteDistribution.point_mass(1)
    t1, c1 = targets[0]
    f1 = c1 / n_authors
    if f1 >= 1.0 - 1e-12:
        raise ConfigurationError("tail fraction at the first threshold must be < 1")
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


def sample_author_multiplicities(config: GenConfig, rng: np.random.Generator) -> np.ndarray:
    """Papers-per-author counts for the configured author pool.

    Draws are clamped to n_papers (an author cannot write more distinct
    papers than exist), which only matters for very small conferences.
    """
    dist = fit_multiplicity_distribution(config.author_multiplicity_targets, config.n_authors)
    draws = dist.sample(rng, config.n_authors)
    return np.minimum(draws, config.n_papers)


def gen_true_scores(n: int, mean: float, sd: float, rng: np.random.Generator) -> np.ndarray:
    """Latent paper quality scores; Gaussian, sd = 0 degenerates to constant."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if sd < 0:
        raise ValueError(f"sd must be >= 0, got {sd}")
    return rng.normal(mean, sd, size=n)


@dataclass
class Conference:
    """A generated conference: quality scores, authorship, review assignment.

    The assignment is stored once, as review slots in CSR layout: reviewer
    r holds papers ``slot_papers[reviewer_ptr[r]:reviewer_ptr[r + 1]]``,
    and ``slot_reviewers`` (derived) names the reviewer of every slot.
    Slots run reviewer by reviewer; a generated conference lists each
    reviewer's papers in increasing order, a hand-built one keeps the order
    it was given.
    """

    true_scores: np.ndarray
    authorship: list[np.ndarray]
    slot_papers: np.ndarray
    reviewer_ptr: np.ndarray
    slot_reviewers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.slot_papers = np.asarray(self.slot_papers, dtype=np.int64)
        ptr = self.reviewer_ptr = np.asarray(self.reviewer_ptr, dtype=np.int64)
        csr = ptr.ndim == 1 and len(ptr) > 0 and ptr[0] == 0 and ptr[-1] == self.n_slots
        if not csr or np.any(ptr[1:] < ptr[:-1]):
            raise GenerationError("reviewer_ptr is not a CSR pointer over slot_papers")
        self.slot_reviewers = np.repeat(np.arange(self.n_reviewers, dtype=np.int64), np.diff(ptr))

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
        papers, author_of, author_sizes = _flatten(self.authorship)
        unknown = (papers < 0) | (papers >= n)
        _raise_first(
            (author_sizes == 0, lambda a: "author with an empty paper list"),
            (
                _mask(author_of[unknown], self.n_authors),
                lambda a: "authorship references an unknown paper id",
            ),
            (
                _mask(author_of[_repeats(author_of, papers)], self.n_authors),
                lambda a: "author holds a duplicated paper",
            ),
        )
        _raise_first((np.bincount(papers, minlength=n) == 0, lambda p: f"paper {p} has no author"))

        slot_reviewers, slot_papers = self.slot_reviewers, self.slot_papers
        unknown = (slot_papers < 0) | (slot_papers >= n)
        _raise_first(
            (
                _mask(slot_reviewers[_repeats(slot_reviewers, slot_papers)], self.n_reviewers),
                lambda r: f"reviewer {r} holds the same paper twice",
            ),
            (
                _mask(slot_reviewers[unknown], self.n_reviewers),
                lambda r: f"reviewer {r} references an unknown paper id",
            ),
        )
        _raise_first((np.bincount(slot_papers, minlength=n) == 0, lambda p: f"paper {p} has no reviewer"))

    def _paper_reviewers(self) -> list[np.ndarray]:
        """Per paper, the reviewers holding it in increasing order (the reverse assignment)."""
        # slot_reviewers never decreases, so a stable sort by paper keeps it increasing per paper
        order = np.argsort(self.slot_papers, kind="stable")
        counts = np.bincount(self.slot_papers, minlength=self.n_papers)
        return _split(self.slot_reviewers[order], np.concatenate(([0], np.cumsum(counts))))

    def to_json(self) -> dict:
        return {
            "true_scores": self.true_scores.tolist(),
            "authorship": [a.tolist() for a in self.authorship],
            "assignment": [a.tolist() for a in _split(self.slot_papers, self.reviewer_ptr)],
            "reverse_assignment": [a.tolist() for a in self._paper_reviewers()],
        }

    def to_json_str(self) -> str:
        return json.dumps(self.to_json(), separators=(",", ":"))

    @classmethod
    def from_json(cls, obj: dict) -> "Conference":
        """Read what ``to_json`` writes; raises GenerationError for an invalid conference.

        After ``validate``, paper p's stored reverse list must name the
        reviewers holding p, each once, in any order.
        """
        slot_papers, _, sizes = _flatten([np.asarray(a, dtype=np.int64) for a in obj["assignment"]])
        conf = cls(
            true_scores=np.asarray(obj["true_scores"], dtype=float),
            authorship=[np.asarray(a, dtype=np.int64) for a in obj["authorship"]],
            slot_papers=slot_papers,
            reviewer_ptr=np.concatenate(([0], np.cumsum(sizes))),
        )
        conf.validate()
        listed = obj["reverse_assignment"]
        if len(listed) != conf.n_papers:
            raise GenerationError("reverse_assignment length != n_papers")
        for p, (given, held) in enumerate(zip(listed, conf._paper_reviewers())):
            if sorted(given) != held.tolist():
                raise GenerationError(f"reverse_assignment inconsistent for paper {p}")
        return conf


def _flatten(lists: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lists concatenated, the list index of each element, and the list sizes."""
    sizes = np.fromiter((len(a) for a in lists), dtype=np.int64, count=len(lists))
    flat = np.concatenate(lists).astype(np.int64, copy=False) if lists else np.empty(0, dtype=np.int64)
    return flat, np.repeat(np.arange(len(lists), dtype=np.int64), sizes), sizes


def _split(flat: np.ndarray, ptr: np.ndarray) -> list[np.ndarray]:
    """Views of ``flat`` between consecutive CSR pointers."""
    bounds = ptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


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


def _mask(indices: np.ndarray, n: int) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask


def _raise_first(*checks) -> None:
    """Raise for the lowest index failing any (mask, message) check.

    Checks come in precedence order; the first one failing at that index
    builds the message from the index.
    """
    failing = np.logical_or.reduce([mask for mask, _ in checks])
    if failing.any():
        i = int(np.argmax(failing))
        message = next(message for mask, message in checks if mask[i])
        raise GenerationError(message(i))


def _reconciled_author_loads(
    n_papers: int, total_authorships: int, dist: DiscreteDistribution, rng: np.random.Generator
) -> np.ndarray:
    """Per-paper author counts summing exactly to the authorship total."""
    if total_authorships < n_papers:
        raise GenerationError(
            f"only {total_authorships} authorships for {n_papers} papers "
            f"(deficit {n_papers - total_authorships}); some papers would have no author"
        )
    loads = dist.sample(rng, n_papers)
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
) -> list[np.ndarray]:
    """Match authors to papers: author a gets multiplicities[a] distinct papers.

    A shuffled deck holds each paper once per target author slot; authors are
    dealt in descending multiplicity order, skipping papers they already
    hold. A dealing that strands an author restarts with a fresh shuffle.
    """
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
            held: set[int] = set()
            j = ptr
            while len(held) < want:
                if j >= len(deck):
                    stranded = True
                    break
                if deck[j] not in held:
                    deck[ptr], deck[j] = deck[j], deck[ptr]
                    held.add(deck[ptr])
                    ptr += 1
                    j = max(j + 1, ptr)
                else:
                    j += 1
            if stranded:
                break
        if not stranded:
            # deck[:ptr] holds each author's papers in one run, authors in deal order
            owner = np.repeat(deal_order, multiplicities[deal_order])
            dealt = np.asarray(deck[:ptr], dtype=np.int64)
            dealt = dealt[np.lexsort((dealt, owner))]
            return _split(dealt, np.concatenate(([0], np.cumsum(multiplicities))))
    raise GenerationError(
        f"authorship dealing failed after {_MATCHING_RETRIES} retries; "
        "multiplicity targets are too tight for this paper count"
    )


def _assign_reviewers(
    per_paper: np.ndarray,
    config: GenConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Randomized feasible matching of review slots to reviewers.

    Review slots (paper i repeated per_paper[i] times) are shuffled and
    assigned greedily to reviewers with remaining capacity, rejecting
    duplicate (reviewer, paper) pairs; a dead end restarts the matching.
    Returns ``(slot_papers, reviewer_ptr)``, each reviewer's papers in
    increasing order.
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
        remaining = capacities.copy()
        active = list(range(n_reviewers))
        held: list[set[int]] = [set() for _ in range(n_reviewers)]
        holder: list[int] = []
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
                eligible = [j for j, r in enumerate(active) if paper not in held[r]]
                if not eligible:
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


def _check_multiplicity_calibration(config: GenConfig, multiplicities: np.ndarray) -> None:
    # 5-sigma binomial check; only meaningful for large author pools
    if config.n_authors < 1000 or not config.author_multiplicity_targets:
        return
    t1, c1 = config.author_multiplicity_targets[0]
    target = c1 / config.n_authors
    if not 0.0 < target < 1.0:
        return
    empirical = float(np.mean(multiplicities >= t1))
    tol = 5.0 * np.sqrt(target * (1.0 - target) / config.n_authors)
    if abs(empirical - target) > tol:
        raise GenerationError(
            f"author multiplicity mis-calibrated: fraction >= {t1} is {empirical:.4f}, "
            f"target {target:.4f} +/- {tol:.4f}"
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
    _check_multiplicity_calibration(config, multiplicities)
    true_scores = gen_true_scores(config.n_papers, config.true_score_mean, config.true_score_sd, rng)
    authorship = _deal_authorship(config.n_papers, multiplicities, config.authors_per_paper_dist, rng)
    per_paper = config.reviewers_per_paper_dist.sample(rng, config.n_papers)
    slot_papers, reviewer_ptr = _assign_reviewers(per_paper, config, rng)
    conference = Conference(true_scores, authorship, slot_papers, reviewer_ptr)
    conference.validate()
    return conference


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
