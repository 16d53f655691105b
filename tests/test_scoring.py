from __future__ import annotations

import copy
import functools
import gc
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    ReviewerParams,
    conference_from_lists,
    gen_reviewer_params,
    generate_final_scores_reference,
    on_rows,
    plan_arrays,
    pl_prob_direct,
    pl_ranking_prob,
    raw_scores,
    sample_pl_ranking,
)
from review_calib import (
    ConfigurationError,
    DiscreteDistribution,
    GenConfig,
    GenerationError,
    NOISE_CASES,
    avg_scores,
    generate_final_scores,
    gen_conference,
    get_noise_case,
    scaled_config,
)
from review_calib import scoring
from review_calib.isotonic import NON_INCREASING, _project_pairs, isotonic_fit, project_rows_non_increasing
from review_calib.scoring import (
    _PLANS,
    NoiseCase,
    _bundle_plan,
    _draw_reviewer_params,
    _raw_values,
    _sample_pl_pairs,
    _sample_pl_rows,
)
from review_calib.seeding import PURPOSE_CONFERENCE, PURPOSE_SCORES, stream


def _rng(seed=0):
    return np.random.default_rng(seed)


def _single_paper_conference(n_reviewers: int, theta: float = 5.0):
    return conference_from_lists([theta], [[0]], [[0]] * n_reviewers)


# --- noise cases and reviewer parameters


def test_registry_holds_the_five_cases():
    assert list(NOISE_CASES) == ["Base", "NoBias", "NoVariance", "BigBias", "BigVariance"]
    assert NOISE_CASES["Base"] == NoiseCase("Base", 2.0, 1.0, 1.0)
    assert NOISE_CASES["BigBias"].bias_halfwidth == 3.0
    assert NOISE_CASES["BigVariance"].gamma_scale == 1.5


def test_get_noise_case_flexible_names():
    assert get_noise_case("no-bias") is NOISE_CASES["NoBias"]
    assert get_noise_case("BIG_VARIANCE") is NOISE_CASES["BigVariance"]
    with pytest.raises(ConfigurationError, match="unknown noise case"):
        get_noise_case("medium")


def test_no_bias_case_biases_exactly_zero():
    params = gen_reviewer_params(NOISE_CASES["NoBias"], 100, _rng())
    assert all(p.bias == 0.0 for p in params)
    assert all(p.noise_sd > 0 for p in params)


def test_no_variance_case_noise_exactly_zero():
    params = gen_reviewer_params(NOISE_CASES["NoVariance"], 100, _rng())
    assert all(p.noise_sd == 0.0 for p in params)
    assert any(p.bias != 0.0 for p in params)


def test_base_case_parameter_moments():
    params = gen_reviewer_params(NOISE_CASES["Base"], 10**5, _rng(4))
    biases = np.array([p.bias for p in params])
    variances = np.array([p.noise_sd for p in params]) ** 2
    assert np.all(np.abs(biases) <= 2.0)
    # the Gamma(1, 1) draw is the noise variance, so its mean is 1
    assert float(variances.mean()) == pytest.approx(1.0, abs=0.02)


def test_big_variance_case_has_larger_mean_variance():
    params = gen_reviewer_params(NOISE_CASES["BigVariance"], 10**5, _rng(4))
    variances = np.array([p.noise_sd for p in params]) ** 2
    assert float(variances.mean()) == pytest.approx(1.5, abs=0.03)


def test_reviewer_params_reject_negative_sd():
    with pytest.raises(ValueError):
        ReviewerParams(bias=0.0, noise_sd=-0.1)


# --- raw scores


def test_raw_scores_zero_noise_is_exact_shift(tiny_conf):
    params = [ReviewerParams(bias=0.75, noise_sd=0.0) for _ in range(tiny_conf.n_reviewers)]
    table = raw_scores(tiny_conf, params, _rng())
    expected = tiny_conf.true_scores[tiny_conf.slot_papers] + 0.75
    assert np.array_equal(table, expected)


def test_raw_scores_identity_case(tiny_conf):
    params = [ReviewerParams(0.0, 0.0) for _ in range(tiny_conf.n_reviewers)]
    table = raw_scores(tiny_conf, params, _rng())
    assert np.array_equal(table, tiny_conf.true_scores[tiny_conf.slot_papers])


def test_raw_scores_moments():
    conf = _single_paper_conference(10**5, theta=5.0)
    params = [ReviewerParams(1.0, 2.0) for _ in range(conf.n_reviewers)]
    values = raw_scores(conf, params, _rng(21))
    assert float(values.mean()) == pytest.approx(6.0, abs=0.02)
    assert float(values.std()) == pytest.approx(2.0, abs=0.02)


@pytest.mark.parametrize("k, case", list(enumerate(NOISE_CASES.values())), ids=list(NOISE_CASES))
def test_raw_values_equal_numpy_normal_draws_and_state(k, case):
    # loc + sd * standard_normal is what rng.normal computes per draw, NoVariance's zero sd included
    conf = gen_conference(GenConfig(), stream(42, PURPOSE_CONFERENCE))
    rng = stream(42, PURPOSE_SCORES, k, 0)
    bias, sd = _draw_reviewer_params(case, conf.n_reviewers, rng)
    mirror = copy.deepcopy(rng)
    got = _raw_values(conf, bias, sd, rng)
    want = mirror.normal(conf.true_scores[conf.slot_papers] + bias[conf.slot_reviewers], sd[conf.slot_reviewers])
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == mirror.bit_generator.state


def test_raw_scores_param_length_checked(tiny_conf):
    with pytest.raises(ValueError, match="params"):
        raw_scores(tiny_conf, [ReviewerParams(0, 1)], _rng())


# --- Plackett-Luce probabilities and sampling


def test_two_equal_items_are_symmetric():
    theta = np.array([1.3, 1.3])
    assert pl_ranking_prob(theta, np.array([0, 1])) == pytest.approx(0.5, abs=1e-15)
    assert pl_ranking_prob(theta, np.array([1, 0])) == pytest.approx(0.5, abs=1e-15)


def test_hand_computed_three_item_probability():
    theta = np.array([math.log(2.0), 0.0, 0.0])
    assert pl_ranking_prob(theta, np.array([0, 1, 2])) == 0.25


def test_probabilities_sum_to_one_and_match_direct_product():
    rng = _rng(31)
    for _ in range(20):
        theta = rng.normal(0, 1.5, 3)
        total = 0.0
        for perm in itertools.permutations(range(3)):
            p = pl_ranking_prob(theta, np.array(perm))
            assert p == pytest.approx(pl_prob_direct(theta, perm), rel=1e-12)
            total += p
        assert total == pytest.approx(1.0, abs=1e-12)


def test_translation_invariance():
    rng = _rng(37)
    theta = rng.normal(0, 1, 4)
    perm = np.array([2, 0, 3, 1])
    base = pl_ranking_prob(theta, perm)
    for c in (-50.0, 3.75, 200.0):
        assert pl_ranking_prob(theta + c, perm) == pytest.approx(base, rel=1e-12)


def test_non_permutation_rejected():
    with pytest.raises(ValueError, match="permutation"):
        pl_ranking_prob(np.array([1.0, 2.0]), np.array([0, 0]))
    with pytest.raises(ValueError):
        pl_ranking_prob(np.empty(0), np.empty(0, dtype=int))


def test_single_item_ranking_is_identity():
    assert pl_ranking_prob(np.array([3.0]), np.array([0])) == 1.0
    assert np.array_equal(sample_pl_ranking(np.array([3.0]), _rng()), [0])


def test_sampler_strongly_separated_items():
    rng = _rng(41)
    theta = np.array([10.0, -10.0])
    hits = sum(
        np.array_equal(sample_pl_ranking(theta, rng), [0, 1]) for _ in range(10_000)
    )
    assert hits / 10_000 > 0.999


@pytest.mark.parametrize(
    "theta,seed",
    [
        (np.array([math.log(2.0), 0.0, 0.0]), 43),
        (np.array([0.8, -0.4, 1.1, 0.2]), 45),
    ],
)
def test_sampler_frequencies_match_probabilities(theta, seed):
    rng = _rng(seed)
    n = 100_000
    counts: dict[tuple, int] = {}
    for _ in range(n):
        perm = tuple(sample_pl_ranking(theta, rng).tolist())
        counts[perm] = counts.get(perm, 0) + 1
    for perm in itertools.permutations(range(len(theta))):
        p = pl_ranking_prob(theta, np.array(perm))
        tol = 3 * math.sqrt(p * (1 - p) / n)
        assert counts.get(perm, 0) / n == pytest.approx(p, abs=tol)


# --- projection of raw scores onto a ranking: the step-3 adjustment projects
# each reviewer's raw scores, taken in ranked order, onto non-increasing vectors


def test_projection_identity_when_consistent():
    raw = np.array([[5.0, 3.0, 1.0]])
    assert np.array_equal(on_rows(project_rows_non_increasing, raw), raw)


def test_projection_pools_violating_pair():
    out = on_rows(project_rows_non_increasing, np.array([[1.0, 3.0]]))
    assert np.allclose(out, [[2.0, 2.0]], atol=1e-12)


def test_projection_preserves_sum():
    rng = _rng(47)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        raw = rng.normal(5, 2, n)
        perm = rng.permutation(n)
        out = np.empty(n)
        out[perm] = on_rows(project_rows_non_increasing, raw[perm][None, :])[0]
        assert out.sum() == pytest.approx(raw.sum(), rel=1e-12)
        assert np.all(np.diff(out[perm]) <= 1e-12)


# --- closed forms for bundles of two papers, against the general kernels


def _pair_weights(w0, w1):
    weights = np.array([[w0, w1]], dtype=float)
    return weights, weights[:, 0] + weights[:, 1]


_ALMOST_ONE = np.nextafter(1.0, 0.0)
_PAIR_DRAWS = {
    # equal qualities: both weights are exp(0) = 1.0
    "equal-weights": (1.0, 1.0, 0.5),
    "equal-weights-high-u": (1.0, 1.0, _ALMOST_ONE),
    # 0.8 * 1.25 rounds to 1.0: u * total equals w0, which still picks the first paper
    "u-total-equals-w0": (1.0, 0.25, 0.8),
    "u-almost-one": (1.0, math.exp(-3.0), _ALMOST_ONE),
    "u-almost-one-light-first": (math.exp(-3.0), 1.0, _ALMOST_ONE),
    "u-zero": (math.exp(-0.5), 1.0, 0.0),
    "tiny-second": (1.0, 5e-324, _ALMOST_ONE),
    "nan-weights": (math.nan, math.nan, 0.5),
}


@pytest.mark.parametrize("draw", sorted(_PAIR_DRAWS))
def test_pair_sampler_matches_general_sampler_on_edge_draws(draw):
    w0, w1, u = _PAIR_DRAWS[draw]
    weights, total = _pair_weights(w0, w1)
    if draw == "u-total-equals-w0":
        assert u * total[0] == w0
    uniforms = np.array([[u]])
    closed = _sample_pl_pairs(weights, total, uniforms)
    assert closed.dtype == np.int64
    assert closed.tobytes() == on_rows(_sample_pl_rows, weights, total, uniforms).tobytes()


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(
        st.tuples(st.floats(-8.0, 0.0), st.floats(-8.0, 0.0), st.floats(0.0, _ALMOST_ONE)),
        min_size=1,
        max_size=20,
    )
)
def test_pair_sampler_matches_general_sampler_property(rows):
    shifted = np.array([[a, b] for a, b, _ in rows])
    weights = np.exp(shifted - shifted.max(axis=1, keepdims=True))
    total = weights[:, 0] + weights[:, 1]
    uniforms = np.array([[u] for _, _, u in rows])
    closed = _sample_pl_pairs(weights, total, uniforms)
    assert closed.tobytes() == on_rows(_sample_pl_rows, weights, total, uniforms).tobytes()


class _ScriptedDraws:
    """Stands in for a Generator whose ``random()`` returns the given uniforms in turn."""

    def __init__(self, uniforms):
        self._draws = iter(uniforms)

    def random(self):
        return next(self._draws)


_ROW_DRAWS = {
    # u = 0 after a pick: the scan must skip the ranked papers whose partial sum is 0.0 too
    "zero-after-first-pick": ([0.0, 0.0, 0.0], [0.0, 0.0]),
    "zero-after-middle-pick": ([0.0, 0.0, 0.0, 0.0], [0.5, 0.0, 0.0]),
    "almost-one": ([0.0, -1.0, -2.0, -3.0], [_ALMOST_ONE] * 3),
    "tied-weights": ([2.0] * 5, [0.2, 0.4, 0.6, 0.8]),
    "tiny-weights": ([0.0, -745.0, -800.0], [_ALMOST_ONE, 0.5]),
}


@pytest.mark.parametrize("draw", sorted(_ROW_DRAWS))
def test_row_sampler_matches_scalar_sampler_on_edge_draws(draw):
    theta, uniforms = _ROW_DRAWS[draw]
    theta = np.array(theta)
    weights = np.array([[math.exp(v - theta.max()) for v in theta]])
    total = np.array([sum(weights[0].tolist())])  # the left-to-right sum, as the plan has it
    want = sample_pl_ranking(theta, _ScriptedDraws(uniforms))
    assert on_rows(_sample_pl_rows, weights, total, np.array([uniforms]))[0].tolist() == want.tolist()


@pytest.mark.parametrize("m", [1, 5])
def test_row_sampler_leaves_its_inputs_alone(m):
    # the band inputs are read-only, as the plan's are: a sampler that wrote into one would raise
    rng = _rng(97)
    weights = np.exp(-rng.random((m, 4)))
    total = weights.sum(axis=1)
    uniforms = rng.random((m, 3))
    before = [a.copy() for a in (weights, total, uniforms)]
    total.flags.writeable = False
    perm = on_rows(_sample_pl_rows, weights, total, uniforms)
    assert all(a.tobytes() == b.tobytes() for a, b in zip((weights, total, uniforms), before))
    assert np.array_equal(np.sort(perm, axis=1), np.tile(np.arange(4), (m, 1)))


_PAIR_SCORES = [
    [1.0, 1.0],  # equal raw scores: not pooled
    [3.0, 3.0],
    [1.0, 3.0],  # pooled to 2.0
    [3.0, 1.0],
    [0.1, 0.2],  # a pooled sum that rounds
    [0.0, -0.0],
    [-0.0, 0.0],
    [-2.5, 7.25],
    [5e-324, 1e-323],
    [math.nan, 1.0],
    [-math.inf, math.inf],
]


_projection_on_rows = functools.partial(on_rows, project_rows_non_increasing)


def test_pair_projection_matches_general_projection_on_edge_rows():
    y = np.array(_PAIR_SCORES)
    with np.errstate(over="ignore", invalid="ignore"):
        assert _project_pairs(y).tobytes() == _projection_on_rows(y).tobytes()
    assert _project_pairs(y[:0]).shape == (0, 2)


@pytest.mark.parametrize(
    "project",
    [_project_pairs, _projection_on_rows],
    ids=["_project_pairs", "project_rows_non_increasing"],
)
def test_pair_projection_raises_where_a_finite_pooled_sum_overflows(project):
    # the scalar kernel's fsum raises for this pair; a row holding an infinity is not checked
    y = np.array([[1.0, 3.0], [1e308, 1.7e308]])
    with np.errstate(over="ignore"), pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        project(y)
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isinf(project(np.array([[1.7e308, math.inf]]))).all()


# any float, or one whose sum with another overflows
_PAIR_FLOATS = st.floats() | st.sampled_from([1e308, 1.7e308, -1e308, -1.7e308])


def _projection_outcome(project, y):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return project(y).tobytes()
    except OverflowError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.tuples(_PAIR_FLOATS, _PAIR_FLOATS), min_size=1, max_size=20))
def test_pair_projection_matches_general_projection_property(rows):
    y = np.array(rows, dtype=float)
    assert _projection_outcome(_project_pairs, y) == _projection_outcome(_projection_on_rows, y)


# --- bands of rows of different lengths: the entries past a row's end never count


def _ragged_band(rows, pad):
    """Rows, longest first, as one column-major band padded with ``pad``, and its column counts."""
    s = len(rows[0])
    band = np.array([list(row) + [pad] * (s - len(row)) for row in rows], dtype=float).T.copy()
    band.flags.writeable = False
    return band, np.array([sum(len(row) > i for row in rows) for i in range(s)])


_PADS = [0.0, 1.7e308, math.inf, math.nan]


@pytest.mark.parametrize("pad", _PADS)
def test_band_projection_fits_each_row_alone(pad):
    # integer-valued rows make ties and long pooled blocks; lengths 4-8 make one band
    rng = _rng(101)
    lengths = sorted(rng.integers(4, 9, 40).tolist(), reverse=True)
    rows = [rng.integers(0, 4, k).astype(float) if r % 2 else rng.normal(5, 2, k) for r, k in enumerate(lengths)]
    got = project_rows_non_increasing(*_ragged_band(rows, pad))
    for r, row in enumerate(rows):
        want = isotonic_fit(row, direction=NON_INCREASING)
        assert got[: len(row), r].tobytes() == want.tobytes()
        assert (got[len(row) :, r] == want[-1]).all()


def test_band_sampler_ranks_each_row_alone():
    rng = _rng(103)
    lengths = sorted(rng.integers(3, 7, 40).tolist(), reverse=True)
    thetas = [rng.normal(0, 1, k) if r % 2 else rng.integers(0, 2, k).astype(float) for r, k in enumerate(lengths)]
    draws = [rng.random(k - 1) for k in lengths]
    weights, counts = _ragged_band([[math.exp(v - theta.max()) for v in theta] for theta in thetas], 0.0)
    uniforms, _ = _ragged_band(draws, 0.5)
    total = np.array([sum(weights[:, r].tolist()) for r in range(len(lengths))])
    perm = _sample_pl_rows(weights, total, uniforms, counts)
    for r, theta in enumerate(thetas):
        want = sample_pl_ranking(theta, _ScriptedDraws(draws[r].tolist()))
        assert perm[: len(theta), r].tolist() == want.tolist()
        assert (perm[len(theta) :, r] == want[-1]).all()


@pytest.mark.parametrize("pad", _PADS)
def test_band_projection_overflow_counts_only_real_entries(pad):
    # a shorter finite row whose pooled sum overflows raises, as a pooled pair (its halved
    # running sum) or a pooled block of three (fsum), whatever its pads hold
    fits = [4.0, 1.0, 3.0, 2.0]
    for overflows in ([1e308, 1.7e308], [1e308, 1.5e308, 1.7e308]):
        band, counts = _ragged_band([fits, overflows], pad)
        with np.errstate(over="ignore"), pytest.raises(OverflowError, match="intermediate overflow in fsum"):
            project_rows_non_increasing(band, counts)
    # pads beside huge entries are never pooled with them
    rows = [fits, [1.7e308, 1.7e308, 1e308], [1.7e308, -1.7e308]]
    got = project_rows_non_increasing(*_ragged_band(rows, pad))
    for r, row in enumerate(rows):
        assert got[: len(row), r].tobytes() == isotonic_fit(row, direction=NON_INCREASING).tobytes()


# --- full generation


def test_single_review_final_equals_raw():
    conf = _single_paper_conference(3)
    final, raw, rankings = generate_final_scores(conf, NOISE_CASES["Base"], _rng(53))
    assert np.array_equal(final, raw)
    assert all(np.array_equal(r, [0]) for r in rankings)


def test_zero_noise_consistent_rankings_recover_theta(tiny_conf):
    silent = NoiseCase("Silent", 0.0, 1.0, 0.0)
    final, raw, rankings = generate_final_scores(tiny_conf, silent, _rng(59))
    theta = tiny_conf.true_scores
    assert np.array_equal(raw, theta[tiny_conf.slot_papers])
    checked = 0
    for r, ranking in enumerate(rankings):
        if len(ranking) < 2:
            continue
        if np.all(np.diff(theta[ranking]) <= 0):  # sampled order agrees with quality
            lo, hi = tiny_conf.reviewer_ptr[r], tiny_conf.reviewer_ptr[r + 1]
            assert np.array_equal(final[lo:hi], theta[tiny_conf.slot_papers[lo:hi]])
            checked += 1
    assert checked > 0


def test_final_scores_obey_rankings_and_preserve_totals(tiny_conf):
    final, raw, rankings = generate_final_scores(tiny_conf, NOISE_CASES["Base"], _rng(61))
    for r in range(tiny_conf.n_reviewers):
        lo, hi = tiny_conf.reviewer_ptr[r], tiny_conf.reviewer_ptr[r + 1]
        if hi == lo:
            continue
        papers = tiny_conf.slot_papers[lo:hi]
        position = {int(p): k for k, p in enumerate(rankings[r])}
        order = np.argsort([position[int(p)] for p in papers])
        ranked_values = final[lo:hi][order]
        assert np.all(np.diff(ranked_values) <= 1e-12)
        assert final[lo:hi].sum() == pytest.approx(
            raw[lo:hi].sum(), rel=1e-9
        )


def test_generation_deterministic(tiny_conf):
    a = generate_final_scores(tiny_conf, NOISE_CASES["Base"], _rng(67))
    b = generate_final_scores(tiny_conf, NOISE_CASES["Base"], _rng(67))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert all(np.array_equal(x, y) for x, y in zip(a[2], b[2]))


def _mixed_bundle_conference(theta, seed=3):
    """Six reviewers per bundle size 0..8, bundles drawn from all papers."""
    rng = _rng(seed)
    n = len(theta)
    assignment = [np.sort(rng.choice(n, size=size, replace=False)) for size in range(9) for _ in range(6)]
    return conference_from_lists(theta, [np.arange(n)], assignment)


def _assert_matches_reference(conf, case, seed):
    fast = generate_final_scores(conf, case, _rng(seed))
    slow = generate_final_scores_reference(conf, case, _rng(seed))
    assert fast[0].tobytes() == slow[0].tobytes()
    assert fast[1].tobytes() == slow[1].tobytes()
    assert len(fast[2]) == len(slow[2]) == conf.n_reviewers
    for got, want in zip(fast[2], slow[2]):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    return fast


_THETAS = {
    "spread": np.linspace(3.0, 7.0, 12),
    # three quality levels: equal Plackett-Luce weights inside a bundle
    "tied": np.repeat([4.0, 5.0, 6.5], 4),
}


@pytest.mark.parametrize("theta", sorted(_THETAS))
@pytest.mark.parametrize("case", list(NOISE_CASES))
def test_batched_simulation_matches_reference_bitwise(case, theta):
    conf = _mixed_bundle_conference(_THETAS[theta])
    for seed in range(5):
        _assert_matches_reference(conf, NOISE_CASES[case], seed)


@st.composite
def _hand_built_conferences(draw):
    """Up to 24 papers with spread or tied qualities, and up to 10 bundles of 0-20 of them."""
    n = draw(st.integers(1, 24))
    quality = st.one_of(st.floats(0.0, 10.0), st.sampled_from([4.0, 5.0]))
    theta = draw(st.lists(quality, min_size=n, max_size=n))
    bundle = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 20))
    assignment = draw(st.lists(bundle, max_size=10))
    # a valid conference gives every paper a reviewer; a one-paper bundle draws no ranking uniform
    reviewed = {p for papers in assignment for p in papers}
    assignment += [[p] for p in range(n) if p not in reviewed]
    return conference_from_lists(theta, [list(range(n))], assignment)


@settings(max_examples=150, deadline=None, database=None)
@given(_hand_built_conferences(), st.sampled_from(list(NOISE_CASES)), st.integers(0, 2**32 - 1))
def test_batched_simulation_matches_reference_property(conf, case, seed):
    _assert_matches_reference(conf, NOISE_CASES[case], seed)


def test_reference_check_covers_long_pooled_blocks():
    # zero noise keeps raw scores in quality order, so any sampled ranking
    # that reverses a run of three or more papers pools them into one block
    conf = _mixed_bundle_conference(_THETAS["tied"])
    final, raw, _ = _assert_matches_reference(conf, NOISE_CASES["NoVariance"], 11)
    ptr = conf.reviewer_ptr
    longest = 0
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        f, r = final[lo:hi], raw[lo:hi]
        for pooled_value in set(f[f != r].tolist()):
            longest = max(longest, int(np.sum(f == pooled_value)))
    assert longest >= 3


_CAPACITIES = {
    2: DiscreteDistribution.point_mass(2),
    6: DiscreteDistribution.point_mass(6),
    # every bundle size from 1 to 8, so each row-kernel group size from 3 to 8 runs
    "1-8": DiscreteDistribution(tuple(range(1, 9)), (0.125,) * 8),
}


@pytest.mark.parametrize("capacity", list(_CAPACITIES))
def test_batched_simulation_matches_reference_on_generated_conference(capacity):
    gen = scaled_config(GenConfig(reviewer_capacity_dist=_CAPACITIES[capacity]), 150)
    conf = gen_conference(gen)
    if capacity == "1-8":
        assert {3, 4, 5, 6, 7, 8} <= set(np.diff(conf.reviewer_ptr).tolist())
    for case in NOISE_CASES.values():
        _assert_matches_reference(conf, case, 73)


def test_bundle_plan_is_per_conference_and_built_on_first_use():
    # same bundles, different qualities: a plan shared between the two would show
    spread = _mixed_bundle_conference(_THETAS["spread"])
    tied = _mixed_bundle_conference(_THETAS["tied"])
    assert np.array_equal(spread.slot_papers, tied.slot_papers)
    assert spread not in _PLANS
    for case in NOISE_CASES.values():
        for conf in (spread, tied, spread):
            _assert_matches_reference(conf, case, 89)
    assert _bundle_plan(spread) is _bundle_plan(spread)
    assert _bundle_plan(spread) is not _bundle_plan(tied)


def test_bundle_plan_arrays_are_read_only():
    # a kernel that wrote into the cached plan would corrupt every later cell of the conference
    conf = gen_conference(scaled_config(GenConfig(reviewer_capacity_dist=_CAPACITIES["1-8"]), 150))
    plan = _bundle_plan(conf)
    _n_draws, pairs, bands = plan
    # sizes 4-8 share a band, size 3 has its own, and pairs keep their group
    assert pairs[0].shape[1] == 2 and [len(band[0]) for band in bands] == [8, 3]
    assert len(plan_arrays(plan)) == 4 + 5 * len(bands)
    for array in plan_arrays(plan):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    for case in NOISE_CASES.values():
        _assert_matches_reference(conf, case, 97)


def test_a_live_conference_keeps_one_plan():
    conf = _mixed_bundle_conference(_THETAS["spread"])
    plan = _bundle_plan(conf)
    for case in NOISE_CASES.values():
        generate_final_scores(conf, case, np.random.default_rng(3))
    assert _bundle_plan(conf) is plan and _PLANS[conf] is plan


def test_a_collected_conference_leaves_the_plan_cache():
    conf = _mixed_bundle_conference(_THETAS["spread"])
    generate_final_scores(conf, NOISE_CASES["Base"], np.random.default_rng(3))
    # arrays, unlike the plan's tuples, take weak references: each is freed once its entry goes
    conf_ref = weakref.ref(conf)
    array_refs = [weakref.ref(a) for a in plan_arrays(_PLANS[conf])]
    assert array_refs
    del conf
    gc.collect()
    assert conf_ref() is None
    assert all(ref() is None for ref in array_refs)


@pytest.mark.parametrize(
    "clone", [lambda c: pickle.loads(pickle.dumps(c)), copy.deepcopy], ids=["unpickled", "deep-copied"]
)
def test_a_copied_conference_builds_its_own_read_only_plan(clone):
    conf = _mixed_bundle_conference(_THETAS["spread"])
    final = generate_final_scores(conf, NOISE_CASES["Base"], np.random.default_rng(3))[0]
    twin = clone(conf)
    assert twin not in _PLANS
    again = generate_final_scores(twin, NOISE_CASES["Base"], np.random.default_rng(3))[0]
    assert again.tobytes() == final.tobytes()
    plan = _bundle_plan(twin)
    assert _PLANS[twin] is plan and plan is not _bundle_plan(conf)
    mine, theirs = plan_arrays(plan), plan_arrays(_bundle_plan(conf))
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert not a.flags.writeable and not np.shares_memory(a, b)


def _long_bundle_conference():
    """Two bundles each of 3, 4, 7, 8, 17 and 40 of 48 papers: bands of 40, of 17, of 4-8 and of 3."""
    rng = _rng(5)
    theta = np.concatenate([np.linspace(3.0, 7.0, 24), np.repeat([4.0, 5.0, 6.5], 8)])
    assignment = [np.sort(rng.choice(48, size=size, replace=False)) for size in (3, 4, 7, 8, 17, 40) * 2]
    reviewed = set(np.concatenate(assignment).tolist())
    assignment += [[p] for p in range(48) if p not in reviewed]
    return conference_from_lists(theta, [np.arange(48)], assignment)


def _band_sizes(plan):
    """The bundle sizes in each band of a plan."""
    sizes = []
    for _slots, _draws, _weights, _total, counts in plan[2]:
        lengths = (np.arange(counts[0]) < counts[:, None]).sum(axis=0)
        sizes.append(sorted(set(lengths.tolist())))
    return sizes


@pytest.mark.parametrize("case", list(NOISE_CASES))
def test_several_bands_match_reference_bitwise(case):
    conf = _long_bundle_conference()
    assert _bundle_plan(conf)[1] is None and _band_sizes(_bundle_plan(conf)) == [[40], [17], [4, 7, 8], [3]]
    for seed in range(3):
        _assert_matches_reference(conf, NOISE_CASES[case], seed)


@pytest.mark.parametrize("capacity,bands", [(6, [[3, 4, 5, 6]]), (8, [[4, 5, 6, 7, 8], [3]])])
def test_a_cell_makes_one_sampler_and_one_projection_call_per_band(capacity, bands, monkeypatch):
    conf = gen_conference(GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(capacity)))
    assert _band_sizes(_bundle_plan(conf)) == bands
    calls = []
    for name in ("_sample_pl_rows", "project_rows_non_increasing"):
        kernel = getattr(scoring, name)
        monkeypatch.setattr(scoring, name, lambda *args, _k=kernel, _n=name: calls.append(_n) or _k(*args))
    generate_final_scores(conf, NOISE_CASES["Base"], _rng(7))
    assert calls == ["_sample_pl_rows", "project_rows_non_increasing"] * len(bands)


def _assert_padding_within_real_entries(plan):
    for slots, draws, weights, total, counts in plan[2]:
        real = int(counts.sum())
        assert weights.size - real <= real
        # longest first, and no row shorter than half the band
        assert (np.diff(counts) <= 0).all() and 2 * np.count_nonzero(counts == counts[0]) >= len(counts)
        assert slots.shape == weights.shape == (len(counts), counts[0]) and total.shape == (counts[0],)
        assert draws.shape == (len(counts) - 1, counts[0])


@settings(max_examples=100, deadline=None, database=None)
@given(_hand_built_conferences())
def test_band_padding_never_exceeds_real_entries(conf):
    _assert_padding_within_real_entries(_bundle_plan(conf))


def test_band_padding_never_exceeds_real_entries_on_fixed_conferences():
    confs = [_long_bundle_conference(), _mixed_bundle_conference(_THETAS["spread"])]
    confs += [gen_conference(scaled_config(GenConfig(reviewer_capacity_dist=d), 150)) for d in _CAPACITIES.values()]
    for conf in confs:
        _assert_padding_within_real_entries(_bundle_plan(conf))


@pytest.mark.parametrize(
    "bundles", [[[0, 1], [-1, 2]], [[0, 1], [2, 3]]], ids=["negative", "past-the-end"]
)
def test_slot_paper_outside_the_conference_is_refused(bundles):
    # a negative id would index true scores from the end; one past the end would raise
    # IndexError: the conference is refused when it is built, before any score is drawn
    with pytest.raises(GenerationError, match="^reviewer 1 references an unknown paper id$"):
        conference_from_lists([0.0, 1.0, 2.0], [np.arange(3)], bundles)


def test_reviewers_without_papers_get_empty_rankings():
    conf = _mixed_bundle_conference(_THETAS["spread"])
    _, _, rankings = generate_final_scores(conf, NOISE_CASES["Base"], _rng(79))
    sizes = np.diff(conf.reviewer_ptr)
    assert [len(r) for r in rankings] == sizes.tolist()
    assert all(r.dtype == np.int64 for r in rankings)


# --- slot-aligned scores


def test_score_table_length_checked(tiny_conf):
    final, _, _ = generate_final_scores(tiny_conf, NOISE_CASES["Base"], _rng(83))
    assert final.shape == (tiny_conf.n_slots,)
    for wrong in (np.zeros(tiny_conf.n_slots + 1), final[:-1], final[None, :]):
        with pytest.raises(ValueError, match="slot scores"):
            avg_scores(wrong, tiny_conf)
