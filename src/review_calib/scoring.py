"""Reviewer score simulation.

Scores come out of a three-step process per reviewer: (1) independent
Gaussian raw scores around true quality plus a reviewer-specific bias,
(2) a Plackett-Luce ranking of the reviewer's bundle driven by the true
qualities, and (3) a least-squares isotonic adjustment of the raw scores
so the final scores respect the sampled ranking.

Steps 2 and 3 run batched: reviewers are grouped by bundle size and each
group is ranked and adjusted with whole-array operations. What does not
depend on the draws (the size groups, their slots and the Plackett-Luce
weights) is computed once per conference, on first use, and kept here
while the conference lives; its pickles and copies build their own. A cell
only draws and gathers. Bundles of two papers, the default, take a closed
form of the sampler's single choice and of the projection's single merge
test; larger bundles go through row kernels that work column-major, paper
q of reviewer r at flat index ``q * reviewers + r``, with exact block sums
certified equal to ``math.fsum`` (see ``isotonic``). The batch consumes
the same uniforms in the same order, and performs the same floating-point
operations, as a sequential-choice sampler followed by the scalar isotonic
projection run reviewer by reviewer, so its output is bit-identical to that
loop.

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


def _sample_pl_rows(weights: np.ndarray, total: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The scalar sequential-choice sampler run on every row of ``weights`` at once.

    The scalar sampler (``sample_pl_ranking`` in ``tests/oracles.py``) picks
    by a cumulative scan of the remaining weights against one
    ``rng.random() * total`` per position; ``uniforms[:, k]`` is the k-th
    uniform it would draw for the row. ``weights`` and ``total`` are the
    sampler's (see ``_bundle_plan``); the running total is the
    same left-to-right sum less each pick. The scan runs column-major, paper
    q of row r at flat index ``q * m + r``, over the weights with every
    ranked paper's weight set to 0.0: adding 0.0 leaves each compared
    partial sum unchanged, so the returned permutations are the scalar
    sampler's.
    """
    m, s = weights.shape
    weight = weights.T.copy()
    left = weight.copy()
    remaining = np.ones((s, m), dtype=bool)
    rows = np.arange(m)
    acc = np.empty((s, m))
    seen = np.empty((s, m), dtype=bool)
    perm = np.empty((s, m), dtype=np.int64)
    for k in range(s - 1):
        u = uniforms[:, k] * total
        acc[0] = left[0]
        for q in range(1, s):
            np.add(acc[q - 1], left[q], out=acc[q])
        hit = (u <= acc) & remaining
        # the first hit of each row is the number of leading columns without one
        seen[0] = hit[0]
        for q in range(1, s):
            np.logical_or(seen[q - 1], hit[q], out=seen[q])
        pick = s - seen.sum(axis=0)
        unpicked = np.flatnonzero(pick == s)
        if len(unpicked):
            # no cumulative weight reached u: take the last paper still unranked
            pick[unpicked] = s - 1 - np.argmax(remaining[::-1, unpicked], axis=0)
        perm[k] = pick
        flat = pick * m + rows
        remaining.ravel()[flat] = False
        left.ravel()[flat] = 0.0
        total = total - weight.ravel()[flat]
    perm[s - 1] = np.argmax(remaining, axis=0)
    return perm.T


def _sample_pl_pairs(weights: np.ndarray, total: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """``_sample_pl_rows`` on two-column rows, in closed form.

    The scan's one step picks the first paper iff ``u * total <= w0``;
    otherwise, whether the second weight reaches ``u`` or not, it picks
    the second. The test is written as the scan's, so a NaN also picks the
    second paper.
    """
    second_first = ~(uniforms[:, 0] * total <= weights[:, 0])
    return np.column_stack((second_first, ~second_first)).astype(np.int64)


_PLANS: weakref.WeakKeyDictionary[Conference, tuple[int, list[tuple]]] = weakref.WeakKeyDictionary()
"""Each live conference's bundle plan; an entry goes when its conference is collected."""


def _bundle_plan(conf: Conference) -> tuple[int, list[tuple]]:
    """The draw-independent part of one score simulation, built on first use and kept in ``_PLANS``.

    Returns the number of uniforms a ranking pass draws (s - 1 per bundle
    of s papers, reviewer after reviewer) and, per bundle size s >= 2,
    smallest first, ``(slots, draws, weights, total, sample, project)``.
    Row i is one reviewer: ``slots[i]`` are their s review slots in
    conference order, ``draws[i]`` the positions of their s - 1 uniforms
    in the pass's draws, ``weights[i]`` their papers' Plackett-Luce
    weights exp(theta - row max), by ``math.exp``, and ``total[i]`` the
    left-to-right sum of those weights. The four arrays are read-only.
    ``sample`` and ``project`` are the size's kernels: the closed forms
    for s = 2, the row kernels otherwise.
    """
    if (plan := _PLANS.get(conf)) is not None:
        return plan
    ptr = conf.reviewer_ptr
    sizes = np.diff(ptr)
    draw_ptr = np.concatenate(([0], np.cumsum(np.maximum(sizes - 1, 0))))
    groups = []
    for s in np.unique(sizes[sizes >= 2]).tolist():
        group = np.flatnonzero(sizes == s)
        slots = ptr[group][:, None] + np.arange(s)
        theta = conf.true_scores[conf.slot_papers[slots]]
        shifted = theta - theta.max(axis=1, keepdims=True)
        # math.exp, not np.exp, which may differ in the last bit
        weights = np.fromiter(map(math.exp, memoryview(shifted.ravel())), dtype=float)
        weights = weights.reshape(shifted.shape)
        total = weights[:, 0].copy()
        for q in range(1, s):
            total += weights[:, q]
        arrays = (slots, draw_ptr[group][:, None] + np.arange(s - 1), weights, total)
        for array in arrays:
            array.flags.writeable = False
        if s == 2:
            groups.append((*arrays, _sample_pl_pairs, _project_pairs))
        else:
            groups.append((*arrays, _sample_pl_rows, project_rows_non_increasing))
    # two threads may build at once; setdefault keeps the first plan stored
    return _PLANS.setdefault(conf, (int(draw_ptr[-1]), groups))


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
    n_draws, groups = _bundle_plan(conf)
    raw = _raw_values(conf, bias, noise_sd, scores_rng)
    uniforms = ranking_rng.random(n_draws)
    # a bundle of one paper is its own ranking and keeps its raw score
    ranked = conf.slot_papers.copy()
    final = raw.copy()
    for slots, draws, weights, total, sample, project in groups:
        ranked_slots = np.take_along_axis(slots, sample(weights, total, uniforms[draws]), axis=1)
        ranked[slots] = conf.slot_papers[ranked_slots]
        final[ranked_slots] = project(raw[ranked_slots])
    return final, raw, Ragged(ranked, conf.reviewer_ptr)
