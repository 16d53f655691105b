"""Reviewer score simulation.

Scores come out of a three-step process per reviewer: (1) independent
Gaussian raw scores around true quality plus a reviewer-specific bias,
(2) a Plackett-Luce ranking of the reviewer's bundle driven by the true
qualities, and (3) a least-squares isotonic adjustment of the raw scores
so the final scores respect the sampled ranking.

Steps 2 and 3 run batched. What does not depend on the draws (the
batches, their slots and the Plackett-Luce weights) is computed once per
conference, on first use, and kept here while the conference lives; its
pickles and copies build their own. A cell only draws and gathers.
Bundles of two papers, the default, form one batch and take a closed form
of the sampler's single choice and of the projection's single merge test.
Larger bundles are sorted by size, longest first, and cut into a few size
bands, none longer than twice its shortest bundle. Each band is one
sampler call and one projection call on column-major arrays, paper q of
reviewer r at flat index ``q * reviewers + r``, padded past each bundle's
end with entries that are never picked and never pooled; pooled blocks
take exact sums certified equal to ``math.fsum`` (see ``isotonic``). The
batches consume the same uniforms in the same order, and perform the same
floating-point operations, as a sequential-choice sampler followed by the
scalar isotonic projection run reviewer by reviewer, so their output is
bit-identical to that loop.

A reviewer's bias shifts every score they give by the same amount, so it
never changes their internal ranking; the per-reviewer noise variance is a
Gamma draw (``noise_sd`` is its square root).
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .conference import Conference, Ragged
from .errors import ConfigurationError
from .isotonic import _project_pairs, project_rows_non_increasing


@dataclass(frozen=True)
class NoiseCase:
    """One noise scenario: bias half-width and Gamma law of the noise variance.

    Biases are Uniform(-bias_halfwidth, bias_halfwidth); the per-reviewer
    noise variance is Gamma(gamma_shape, scale=gamma_scale), with
    gamma_scale = 0 meaning exactly zero noise.
    """

    name: str
    bias_halfwidth: float
    gamma_shape: float
    gamma_scale: float


NOISE_CASES: dict[str, NoiseCase] = {
    case.name: case
    for case in (
        NoiseCase("Base", 2.0, 1.0, 1.0),
        NoiseCase("NoBias", 0.0, 1.0, 1.0),
        NoiseCase("NoVariance", 2.0, 1.0, 0.0),
        NoiseCase("BigBias", 3.0, 1.0, 1.0),
        NoiseCase("BigVariance", 2.0, 1.0, 1.5),
    )
}


def get_noise_case(name: str) -> NoiseCase:
    """Look up a case by name; tolerant of case and - / _ separators."""
    key = name.replace("-", "").replace("_", "").lower()
    for case in NOISE_CASES.values():
        if case.name.lower() == key:
            return case
    raise ConfigurationError(
        f"unknown noise case {name!r}; expected one of {sorted(NOISE_CASES)}"
    )


def _draw_reviewer_params(
    case: NoiseCase, n_reviewers: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-reviewer (bias, noise_sd) arrays: all biases first, then all variances."""
    h = case.bias_halfwidth
    biases = rng.uniform(-h, h, size=n_reviewers) if h > 0 else np.zeros(n_reviewers)
    if case.gamma_scale > 0:
        variances = rng.gamma(case.gamma_shape, case.gamma_scale, size=n_reviewers)
    else:
        variances = np.zeros(n_reviewers)
    return biases, np.sqrt(variances)


def _raw_values(
    conf: Conference, bias: np.ndarray, noise_sd: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    loc = conf.true_scores[conf.slot_papers] + bias[conf.slot_reviewers]
    # rng.normal(loc, sd) is loc + sd * standard_normal, draw by draw, in the same draw order
    return loc + noise_sd[conf.slot_reviewers] * rng.standard_normal(len(loc))


def _sample_pl_rows(
    weights: np.ndarray, total: np.ndarray, uniforms: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    """The scalar sequential-choice sampler run on every row of one band at once.

    A band is column-major: row r's paper q is ``weights[q, r]``, and the
    weights are 0.0 past each row's end. ``counts[i]`` is the number of rows
    longer than i; rows come longest first, so those are the first
    ``counts[i]``. The scalar sampler (``sample_pl_ranking`` in
    ``tests/oracles.py``) picks by a cumulative scan of the remaining
    weights against one ``rng.random() * total`` per position;
    ``uniforms[k, r]`` is the k-th uniform it would draw for row r, and
    ``total`` is the sampler's left-to-right sum of the row's weights (see
    ``_bundle_plan``); the running total is that sum less each pick. Step k
    runs on the rows longer than k + 1, over the weights with every ranked
    paper's weight set to 0.0: adding 0.0 leaves each compared partial sum
    unchanged, and a pad is never remaining, so it is never picked. Returns
    the ``(S, m)`` permutations; past a row's end they repeat its last pick.
    """
    s, m = weights.shape
    remaining = np.arange(m) < counts[:, None]
    counts = counts.tolist() + [0]
    left = weights.copy()
    total = total.copy()
    rows = np.arange(m)
    acc = np.empty((s, m))
    seen = np.empty((s, m), dtype=bool)
    perm = np.empty((s, m), dtype=np.int64)
    for k in range(s - 1):
        c = counts[k + 1]
        u = uniforms[k, :c] * total[:c]
        acc[0, :c] = left[0, :c]
        for q in range(1, s):
            np.add(acc[q - 1, :c], left[q, :c], out=acc[q, :c])
        hit = (u <= acc[:, :c]) & remaining[:, :c]
        # the first hit of each row is the number of leading papers without one
        seen[0, :c] = hit[0]
        for q in range(1, s):
            np.logical_or(seen[q - 1, :c], hit[q], out=seen[q, :c])
        pick = s - seen[:, :c].sum(axis=0)
        unpicked = np.flatnonzero(pick == s)
        if len(unpicked):
            # no cumulative weight reached u: take the last paper still unranked
            pick[unpicked] = s - 1 - np.argmax(remaining[::-1, unpicked], axis=0)
        perm[k, :c] = pick
        flat = pick * m + rows[:c]
        remaining.ravel()[flat] = False
        left.ravel()[flat] = 0.0
        total[:c] -= weights.ravel()[flat]
    # each row's one unranked paper, at its last position and on every pad after it
    last = np.argmax(remaining, axis=0)
    for k in range(s):
        perm[k, counts[k + 1] :] = last[counts[k + 1] :]
    return perm


def _sample_pl_pairs(weights: np.ndarray, total: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``_sample_pl_rows`` on two-paper rows, in closed form, with one array row per reviewer.

    The scan's one step picks the first paper iff ``u * total <= w0``;
    otherwise, whether the second weight reaches ``u`` or not, it picks
    the second. The test is written as the scan's, so a NaN also picks the
    second paper.
    """
    second_first = ~(uniforms[:, 0] * total <= weights[:, 0])
    return np.column_stack((second_first, ~second_first)).astype(np.int64)


_PLANS: weakref.WeakKeyDictionary[Conference, tuple] = weakref.WeakKeyDictionary()
"""Each live conference's bundle plan; an entry goes when its conference is collected."""


def _exp_weights(theta: np.ndarray, axis: int) -> np.ndarray:
    """The Plackett-Luce weights exp(theta - max along ``axis``), by ``math.exp``."""
    shifted = theta - theta.max(axis=axis, keepdims=True)
    # math.exp, not np.exp, which may differ in the last bit
    weights = np.fromiter(map(math.exp, memoryview(shifted.ravel())), dtype=float)
    return weights.reshape(shifted.shape)


def _bundle_plan(conf: Conference) -> tuple[int, tuple | None, tuple[tuple, ...]]:
    """The draw-independent part of one score simulation, built on first use and kept in ``_PLANS``.

    Returns ``(n_draws, pairs, bands)``. ``n_draws`` is the number of
    uniforms a ranking pass draws: s - 1 per bundle of s papers, reviewer
    after reviewer. ``pairs`` is ``(slots, draws, weights, total)`` for the
    bundles of two papers, one row per reviewer (None if there are none):
    their two review slots in conference order, the position of their one
    uniform in the pass's draws, their papers' weights exp(theta - row max)
    by ``math.exp``, and the left-to-right sum of those weights.

    ``bands`` holds the bundles of three or more papers, sorted by size,
    longest first, ties by reviewer id, and cut greedily from the longest:
    a band takes each next-shorter size while its longest bundle is at most
    twice that size, so its padding never exceeds its real entries. A band
    is ``(slots, draws, weights, total, counts)``, column-major like its
    kernels: ``slots[i, r]`` and ``weights[i, r]`` are reviewer r's i-th
    slot and weight (``(S, m)``, S the band's longest bundle),
    ``draws[k, r]`` the position of their k-th uniform (``S - 1`` rows),
    ``total[r]`` the sum of their weights, and ``counts[i]`` the number of
    reviewers with more than i papers. Past a reviewer's last paper,
    ``slots`` and ``draws`` repeat their last entry and ``weights`` are
    0.0. Every array is read-only.
    """
    if (plan := _PLANS.get(conf)) is not None:
        return plan
    ptr = conf.reviewer_ptr
    sizes = np.diff(ptr)
    draw_ptr = np.concatenate(([0], np.cumsum(np.maximum(sizes - 1, 0))))
    theta_of = conf.true_scores[conf.slot_papers]
    arrays, pairs, bands = [], None, []
    if len(two := np.flatnonzero(sizes == 2)):
        slots = ptr[two][:, None] + np.arange(2)
        weights = _exp_weights(theta_of[slots], axis=1)
        pairs = (slots, draw_ptr[two][:, None], weights, weights[:, 0] + weights[:, 1])
        arrays += pairs
    longest_first = np.flatnonzero(sizes >= 3)
    longest_first = longest_first[np.argsort(-sizes[longest_first], kind="stable")]
    falling = sizes[longest_first]
    lo = 0
    while lo < len(longest_first):
        longest = int(falling[lo])
        # the band ends before the first bundle shorter than half its longest
        hi = np.searchsorted(-falling, -((longest + 1) // 2), side="right")
        band, size = longest_first[lo:hi], falling[lo:hi]
        depth = np.arange(longest)[:, None]
        slots = ptr[band] + np.minimum(depth, size - 1)
        weights = _exp_weights(theta_of[slots], axis=0)
        weights[depth >= size] = 0.0
        total = weights[0].copy()
        for q in range(1, longest):
            total += weights[q]
        draws = draw_ptr[band] + np.minimum(depth[:-1], size - 2)
        bands.append((slots, draws, weights, total, (size > depth).sum(axis=1)))
        arrays += bands[-1]
        lo = hi
    for array in arrays:
        array.flags.writeable = False
    # two threads may build at once; setdefault keeps the first plan stored
    return _PLANS.setdefault(conf, (int(draw_ptr[-1]), pairs, tuple(bands)))


def generate_final_scores(
    conf: Conference, case: NoiseCase, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, Ragged]:
    """Full three-step simulation for every reviewer.

    Returns (final, raw, rankings). ``final`` and ``raw`` hold one score
    per review slot, aligned with ``conf.slot_papers``. ``rankings`` has
    one row per reviewer, on ``conf.reviewer_ptr``: rankings[r] holds
    reviewer r's bundle as paper ids, most preferred first (empty for
    reviewers without assignments). The three sub-streams (parameters, raw
    scores, rankings) are spawned from ``rng``; rankings are sampled in
    reviewer-id order, so the output is independent of any outer
    parallelism.
    """
    params_rng, scores_rng, ranking_rng = rng.spawn(3)
    bias, noise_sd = _draw_reviewer_params(case, conf.n_reviewers, params_rng)
    n_draws, pairs, bands = _bundle_plan(conf)
    raw = _raw_values(conf, bias, noise_sd, scores_rng)
    uniforms = ranking_rng.random(n_draws)
    # a bundle of one paper is its own ranking and keeps its raw score
    ranked = conf.slot_papers.copy()
    final = raw.copy()
    if pairs is not None:
        slots, draws, weights, total = pairs
        ranked_slots = slots[:, :1] + _sample_pl_pairs(weights, total, uniforms[draws])
        ranked[slots] = conf.slot_papers[ranked_slots]
        final[ranked_slots] = _project_pairs(raw[ranked_slots])
    # a pad repeats its row's last slot, ranked slot and fit, so it writes what that entry writes
    for slots, draws, weights, total, counts in bands:
        ranked_slots = slots[0] + _sample_pl_rows(weights, total, uniforms[draws], counts)
        ranked[slots] = conf.slot_papers[ranked_slots]
        final[ranked_slots] = project_rows_non_increasing(raw[ranked_slots], counts)
    return final, raw, Ragged(ranked, conf.reviewer_ptr)
