from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import isotonic_qp_oracle, on_rows, pava_reference
from review_calib import (
    NOISE_CASES,
    DiscreteDistribution,
    GenConfig,
    avg_scores,
    build_owner_partition,
    calibrate_reviewer,
    gen_conference,
    generate_final_scores,
)
from review_calib.isotonic import (
    NON_DECREASING,
    NON_INCREASING,
    _fsum_columns,
    _pava_non_decreasing,
    isotonic_fit,
    isotonic_project_indexed,
    project_rows_non_increasing,
)
from review_calib.ranking import full_ranking, hierarchical_tiers
from review_calib.seeding import PURPOSE_CONFERENCE, PURPOSE_SCORES, stream


def test_feasible_input_unchanged():
    fit = isotonic_fit(np.array([3.0, 2.0, 1.0]), direction=NON_INCREASING)
    assert np.array_equal(fit, [3.0, 2.0, 1.0])


def test_increasing_run_pools_to_mean():
    fit = isotonic_fit(np.array([1.0, 2.0, 3.0]), direction=NON_INCREASING)
    assert np.allclose(fit, [2.0, 2.0, 2.0], atol=1e-12)


def test_partial_violation_pools_all_three():
    fit = isotonic_fit(np.array([1.0, 3.0, 2.0]), direction=NON_INCREASING)
    assert np.allclose(fit, [2.0, 2.0, 2.0], atol=1e-12)


def test_empty_input_gives_empty_output():
    fit = isotonic_fit(np.empty(0))
    assert fit.size == 0


def test_non_positive_weight_rejected():
    with pytest.raises(ValueError, match="weights"):
        isotonic_fit(np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="weights shape"):
        isotonic_fit(np.array([1.0, 2.0]), np.array([1.0, 1.0, 1.0]))
    with pytest.raises(ValueError, match="values must be 1-d"):
        isotonic_fit(np.ones((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_values_and_weights_rejected(bad):
    with pytest.raises(ValueError, match="values must be finite"):
        isotonic_fit(np.array([1.0, bad, 3.0, 0.0]))
    with pytest.raises(ValueError, match="weights must be finite"):
        isotonic_fit(np.array([1.0, 2.0]), np.array([1.0, bad]))


def test_bad_direction_rejected():
    with pytest.raises(ValueError, match="direction"):
        isotonic_fit(np.array([1.0]), direction="sideways")


def test_matches_qp_oracle_on_random_instances():
    rng = np.random.default_rng(7)
    for k in range(300):
        n = int(rng.integers(1, 9))
        y = rng.normal(0, 3, n)
        w = rng.uniform(0.2, 4.0, n) if k % 2 else None
        direction = NON_INCREASING if k % 3 else NON_DECREASING
        fit = isotonic_fit(y, w, direction)
        oracle = isotonic_qp_oracle(y, w, direction)
        assert np.max(np.abs(fit - oracle)) < 1e-6


@st.composite
def _weighted_instances(draw):
    n = draw(st.integers(1, 10))
    # values from a small grid, so ties and equal-mean blocks are common
    values = draw(st.lists(st.integers(-4, 4).map(lambda v: v / 2), min_size=n, max_size=n))
    weights = draw(st.lists(st.floats(0.05, 20.0), min_size=n, max_size=n))
    direction = draw(st.sampled_from((NON_INCREASING, NON_DECREASING)))
    return np.asarray(values), np.asarray(weights), direction


@settings(max_examples=300, deadline=None, database=None)
@given(_weighted_instances())
def test_matches_qp_oracle_property(instance):
    values, weights, direction = instance
    for w in (weights, None):
        fit = isotonic_fit(values, w, direction)
        assert np.max(np.abs(fit - isotonic_qp_oracle(values, w, direction))) < 1e-9


def test_unit_weights_match_no_weights_bitwise():
    rng = np.random.default_rng(31)
    for k in range(300):
        n = int(rng.integers(1, 60))
        y = rng.integers(0, 5, n).astype(float) if k % 2 else rng.normal(5, 2, n)
        for direction in (NON_INCREASING, NON_DECREASING):
            ones = isotonic_fit(y, np.ones(n), direction)
            assert ones.tobytes() == isotonic_fit(y, None, direction).tobytes()


def test_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(50):
        y = rng.normal(0, 2, int(rng.integers(1, 40)))
        once = isotonic_fit(y)
        twice = isotonic_fit(once)
        assert np.max(np.abs(once - twice)) < 1e-12


def test_weighted_total_preserved():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        y = rng.normal(5, 2, n)
        w = rng.uniform(0.1, 3.0, n)
        fit = isotonic_fit(y, w)
        before = float(np.dot(w, y))
        after = float(np.dot(w, fit))
        assert abs(after - before) <= 1e-9 * max(1.0, abs(before))


def test_large_input_total_preserved_tightly():
    rng = np.random.default_rng(17)
    y = rng.normal(5, 1, 6538)
    fit = isotonic_fit(y)
    assert abs(fit.sum() - y.sum()) <= 1e-9 * abs(y.sum())


def test_translation_equivariance():
    rng = np.random.default_rng(19)
    y = rng.normal(0, 1, 25)
    base = isotonic_fit(y)
    for c in (-10.0, 0.5, 123.25):
        shifted = isotonic_fit(y + c)
        assert np.max(np.abs(shifted - (base + c))) < 1e-9


def test_output_monotone():
    rng = np.random.default_rng(23)
    for _ in range(50):
        y = rng.normal(0, 2, int(rng.integers(2, 60)))
        fit = isotonic_fit(y, direction=NON_INCREASING)
        assert np.all(np.diff(fit) <= 1e-12)
        fit = isotonic_fit(y, direction=NON_DECREASING)
        assert np.all(np.diff(fit) >= -1e-12)


def test_project_indexed_blend_zero_is_identity():
    scores = np.array([4.0, 1.0, 3.0])
    out = isotonic_project_indexed(scores, np.array([1, 0, 2]), blend=0.0)
    assert np.array_equal(out, scores)


def test_project_indexed_consistent_order_unchanged():
    scores = np.array([1.0, 5.0, 3.0])
    order = np.array([1, 2, 0])  # descending in scores already
    for blend in (0.0, 0.5, 1.0):
        out = isotonic_project_indexed(scores, order, blend)
        assert np.allclose(out, scores, atol=1e-12)


def test_project_indexed_half_blend_example():
    # fitted values are (2, 2); half blend with the input gives (1.5, 2.5)
    out = isotonic_project_indexed(np.array([1.0, 3.0]), np.array([0, 1]), blend=0.5)
    assert np.allclose(out, [1.5, 2.5], atol=1e-12)


def test_project_indexed_rejects_bad_blend_and_order():
    scores = np.array([1.0, 2.0])
    with pytest.raises(ValueError, match="blend"):
        isotonic_project_indexed(scores, np.array([0, 1]), blend=1.5)
    with pytest.raises(ValueError, match="permutation"):
        isotonic_project_indexed(scores, np.array([0, 0]), blend=0.5)


@pytest.mark.parametrize(
    "order",
    [
        pytest.param(np.array([0, 2, 2]), id="repeated-index"),
        pytest.param(np.array([0, 1, 3]), id="index-past-the-end"),
        pytest.param(np.array([0, -1, 2]), id="negative-index"),
        pytest.param(np.array([0, 2]), id="missing-index"),
        pytest.param(np.array([2, 0, 1, 1]), id="wrong-length"),
        pytest.param(np.array([[0, 1, 2]]), id="two-dimensional"),
        pytest.param(np.array([0.0, 1.0, 2.0]), id="float-dtype"),
        pytest.param(np.array([True, False, True]), id="bool-dtype"),
        pytest.param(np.array(["0", "1", "2"]), id="string-dtype"),
        pytest.param(np.array([0, 1, 2**64 - 1], dtype=np.uint64), id="uint64-past-int64"),
    ],
)
def test_project_indexed_rejects_non_permutation(order):
    scores = np.array([1.0, 3.0, 2.0])
    with pytest.raises(ValueError, match="^order is not a permutation of the score indices$"):
        isotonic_project_indexed(scores, order, blend=0.5)


@pytest.mark.parametrize("scores", [np.float64(2.0), [[1.0, 3.0, 2.0]]], ids=["0-d", "2-d"])
def test_project_indexed_refuses_scores_that_are_not_a_vector(scores):
    message = f"scores must be a 1-d vector, got shape {np.shape(scores)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        isotonic_project_indexed(scores, np.array([0]), blend=0.5)


def test_project_indexed_raises_fsum_overflow_on_finite_scores():
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        isotonic_project_indexed(np.array([1e308, 1.7e308]), np.array([0, 1]), 0.5)


def test_project_indexed_accepts_any_integer_permutation():
    scores = np.array([1.0, 3.0, 2.0])
    want = isotonic_project_indexed(scores, np.array([2, 0, 1]), blend=0.5)
    for order in ([2, 0, 1], np.array([2, 0, 1], dtype=np.int32), np.array([2, 0, 1], dtype=np.uint8)):
        assert isotonic_project_indexed(scores, order, 0.5).tobytes() == want.tobytes()
    assert isotonic_project_indexed(np.array([]), np.array([], dtype=np.int64), 0.5).size == 0


def test_segments_are_fitted_independently_bitwise():
    # one kernel call over many [lo, hi) slices equals one call per slice;
    # entries outside every slice keep their input
    rng = np.random.default_rng(37)
    for k in range(200):
        n = int(rng.integers(0, 80))
        y = rng.integers(0, 5, n).astype(float) if k % 2 else rng.normal(5, 2, n)
        w = rng.uniform(0.1, 5.0, n) if k % 3 else None
        cuts = np.unique(rng.integers(0, n + 1, int(rng.integers(0, 12))))
        segments = [(lo, hi) for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()) if rng.random() < 0.7]
        got = _pava_non_decreasing(y, w, segments)
        want = y.copy()
        for lo, hi in segments:
            want[lo:hi] = _pava_non_decreasing(y[lo:hi], None if w is None else w[lo:hi], [(0, hi - lo)])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("direction", [NON_INCREASING, NON_DECREASING])
def test_weighted_value_that_overflows_raises(direction):
    # 2.0 * 1e308 overflows before any block pools; a weight below one keeps it finite
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        isotonic_fit([1.0, 1e308], [1.0, 2.0], direction)
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        isotonic_fit([-1.7e308, 0.0, 1.0], [1.5, 1.0, 1.0], direction)
    assert np.isfinite(isotonic_fit([1.0, 1e308], [1.0, 0.5], direction)).all()


# --- the scalar kernel against the loop it replaced


def _outcome(f):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return f()
    except (OverflowError, ValueError) as exc:
        return type(exc), str(exc)


# scores, small integers (ties), signed zeros, subnormals, and values whose
# sum or weighted value overflows
_KERNEL_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1e308, 1.7e308, -1e308, -1.7e308]),
    st.integers(-(2**20), 2**20).map(lambda k: k * 2.0**-1074),
)


@st.composite
def _kernel_inputs(draw):
    """Values, unit or positive weights, and sorted segments with gaps, empty and length-1 ones."""
    n = draw(st.integers(0, 40))
    y = draw(st.lists(_KERNEL_VALUES, min_size=n, max_size=n))
    if n and draw(st.booleans()):
        # an ascending run stacks one block per entry; a lower value after it cascades through all
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n))
        y[lo:hi] = sorted(y[lo:hi])
    weights = st.one_of(st.integers(1, 4).map(float), st.floats(0.0, 1e308, exclude_min=True))
    w = draw(st.one_of(st.none(), st.lists(weights, min_size=n, max_size=n)))
    if draw(st.booleans()):
        segments = [(0, n)]
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=12)))
        segments = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if draw(st.booleans())]
    return np.array(y, dtype=float), None if w is None else np.array(w, dtype=float), segments


@settings(max_examples=600, deadline=None, database=None)
@given(_kernel_inputs())
def test_kernel_matches_reference_loop_property(instance):
    # the same bytes, or the same error
    y, w, segments = instance
    got = _outcome(lambda: _pava_non_decreasing(y, w, segments).tobytes())
    assert got == _outcome(lambda: pava_reference(y, w, segments).tobytes())


@st.composite
def _descent_bounded_inputs(draw):
    """A random head, then a long non-decreasing tail; unit or positive weights; one or several segments.

    The tail may hold copies of the head's last entry (a tie at the last
    descent where they sort first) and shares the head's small integers, so
    the head's pooled top block often absorbs part of it.
    """
    head = draw(st.lists(_KERNEL_VALUES, max_size=10))
    tail = draw(st.lists(_KERNEL_VALUES, max_size=60))
    if head and draw(st.booleans()):
        tail += [head[-1]] * draw(st.integers(1, 4))
    y = head + sorted(tail)
    n = len(y)
    weights = st.one_of(st.integers(1, 4).map(float), st.floats(0.0, 1e308, exclude_min=True))
    w = draw(st.one_of(st.none(), st.lists(weights, min_size=n, max_size=n)))
    if draw(st.booleans()):
        segments = [(0, n)]
    else:
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
        segments = [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if draw(st.booleans())]
    return np.array(y, dtype=float), None if w is None else np.array(w, dtype=float), segments


@settings(max_examples=600, deadline=None, database=None)
@given(_descent_bounded_inputs())
# a tie at the last descent (2 > 1, then 1, 1), whose pooled block absorbs part of the tail
@example((np.array([0.0, 2.0, 1.0, 1.0, 1.0, 3.0, 4.0, 5.0]), None, [(0, 8)]))
@example((np.array([3.0, 1.0, 2.0, 2.0, 5.0, 6.0, 7.0]), np.array([1.0, 2.0, 1.0, 3.0, 1.0, 1.0, 1.0]), [(0, 4), (4, 7)]))
# a tie in y that the weighted test, rounded, calls a descent: (a * w1) * w2 > (a * w2) * w1
@example((np.array([0.0, 32 / 7, 32 / 7]), np.array([1.0, 4 / 3, 7 / 3]), [(0, 3)]))
# a finite pooled sum that overflows, below a tail the walk stops short of
@example((np.array([1.7e308, 1.6e308, 1.65e308, 1.7e308, 1.7e308]), None, [(0, 5)]))
@example((np.array([1.7e308, 1.6e308, 1.65e308, 1.7e308]), np.array([1.0, 1.0, 2.0, 1.0]), [(0, 2), (2, 4)]))
def test_kernel_matches_reference_loop_past_the_last_descent_property(instance):
    # the walk stops at its first push past the last descent; the same bytes, or the same error
    y, w, segments = instance
    got = _outcome(lambda: _pava_non_decreasing(y, w, segments).tobytes())
    assert got == _outcome(lambda: pava_reference(y, w, segments).tobytes())


@st.composite
def _segmentwise_descent_bounded_inputs(draw):
    """Segments, each a random head and then a sorted tail, with gaps between; unit or positive weights.

    A segment may be empty, one entry long or without any descent (an
    empty head); a gap is a random run outside every segment, so a descent
    between two segments, or in a gap, must not extend a segment's walk.
    """
    y, segments = [], []
    for _ in range(draw(st.integers(0, 6))):
        y += draw(st.lists(_KERNEL_VALUES, max_size=4))  # the gap before the segment
        head = draw(st.lists(_KERNEL_VALUES, max_size=6))
        tail = draw(st.lists(_KERNEL_VALUES, max_size=12))
        if head and draw(st.booleans()):
            tail += [head[-1]] * draw(st.integers(1, 3))
        segments.append((len(y), len(y) + len(head) + len(tail)))
        y += head + sorted(tail)
    y += draw(st.lists(_KERNEL_VALUES, max_size=4))
    n = len(y)
    weights = st.one_of(st.integers(1, 4).map(float), st.floats(0.0, 1e308, exclude_min=True))
    w = draw(st.one_of(st.none(), st.lists(weights, min_size=n, max_size=n)))
    return np.array(y, dtype=float), None if w is None else np.array(w, dtype=float), segments


@settings(max_examples=600, deadline=None, database=None)
@given(_segmentwise_descent_bounded_inputs())
# a descent in the gap after a sorted segment, and one between two sorted segments
@example((np.array([1.0, 2.0, 3.0, 0.0, 5.0, 4.0, 6.0]), None, [(0, 3), (4, 5), (5, 7)]))
# an empty, a one-entry and a descent-free segment around one with a pooled head
@example((
    np.array([2.0, 0.0, 3.0, 1.0, 1.0, 2.0, 9.0]),
    np.array([1.0, 2.0, 1.0, 1.0, 3.0, 1.0, 1.0]),
    [(0, 0), (0, 1), (1, 3), (3, 6), (6, 7)],
))
def test_kernel_matches_reference_loop_past_each_segments_last_descent_property(instance):
    # each segment's walk stops at its first push past its own last descent;
    # the same bytes, or the same error
    y, w, segments = instance
    got = _outcome(lambda: _pava_non_decreasing(y, w, segments).tobytes())
    assert got == _outcome(lambda: pava_reference(y, w, segments).tobytes())


def test_kernel_raises_the_lower_pooled_block_error_first():
    # two pooled blocks: the lower one's fsum overflows, the upper one's is inf + -inf;
    # the kernel emits its blocks bottom up, as the reference loop does
    y, w = np.array([1.7e308, 1.6e308, 1e308, -1e308]), np.array([1.0, 1.0, 10.0, 10.0])
    want = (OverflowError, "intermediate overflow in fsum")
    assert _outcome(lambda: pava_reference(y, w, [(0, 4)])) == want
    assert _outcome(lambda: _pava_non_decreasing(y, w, [(0, 4)])) == want


@pytest.mark.parametrize("capacity", [2, 6])
def test_kernel_matches_reference_loop_on_cell_inputs(capacity):
    # the first repetition of every case on the seed-42 conference, as a benchmark cell fits it:
    # the reviewer fit's ordered averages and both author fits' owner rows
    gen = GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(capacity))
    conf = gen_conference(gen, stream(42, PURPOSE_CONFERENCE))
    owners = build_owner_partition(conf).owners
    owner_rows = list(zip(owners.ptr[:-1].tolist(), owners.ptr[1:].tolist()))
    for k, case in enumerate(NOISE_CASES.values()):
        final, _, rankings = generate_final_scores(conf, case, stream(42, PURPOSE_SCORES, k, 0))
        avg = avg_scores(final, conf)
        order = full_ranking(hierarchical_tiers(rankings, range(conf.n_papers)), avg)
        inputs = [(-avg[order], [(0, conf.n_papers)])]
        inputs += [(-s[owners.flat], owner_rows) for s in (avg, calibrate_reviewer(avg, rankings, 0.5))]
        for y, segments in inputs:
            got = _pava_non_decreasing(y, None, segments)
            assert not np.array_equal(got, y)  # some blocks pool
            assert got.tobytes() == pava_reference(y, None, segments).tobytes()


def test_row_kernel_matches_scalar_fit_bitwise():
    # integer-valued rows produce ties and long pooled blocks
    rng = np.random.default_rng(29)
    for s in range(9):
        rows = np.vstack([rng.integers(0, 4, (40, s)), rng.normal(5, 2, (40, s))])
        got = on_rows(project_rows_non_increasing, rows)
        for row, fitted in zip(rows, got):
            want = isotonic_fit(row, direction=NON_INCREASING)
            assert fitted.tobytes() == want.tobytes()


# finite values of any magnitude, and values whose sum with another overflows
# (where fsum raises); small integers make ties and long pooled blocks common
_ANY_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e308, 1.7e308, -1e308, -1.7e308]),
    st.integers(-3, 3).map(float),
)


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.integers(0, 8).flatmap(
        lambda s: st.lists(st.lists(_ANY_FINITE, min_size=s, max_size=s), min_size=1, max_size=12)
    )
)
def test_row_kernel_matches_scalar_fit_property(rows):
    # every row's fit, or the error of the first row whose fit raises
    y = np.array(rows, dtype=float).reshape(len(rows), -1)
    want = [_outcome(lambda: isotonic_fit(row, direction=NON_INCREASING).tobytes()) for row in y]
    errors = [w for w in want if isinstance(w, tuple)]
    got = _outcome(lambda: [fitted.tobytes() for fitted in on_rows(project_rows_non_increasing, y)])
    assert got == (errors[0] if errors else want)


# --- the certified block sums of the row kernel


def _padded(blocks):
    """The blocks as the zero-padded columns ``_fsum_columns`` reads, and their lengths."""
    lengths = np.array([len(b) for b in blocks])
    x = np.zeros((lengths.max(), len(blocks)))
    for j, b in enumerate(blocks):
        x[: len(b), j] = b
    return x, lengths




@st.composite
def _summands(draw):
    """3-8 finite summands: scores, any exponent, cancelling pairs, near-halfway ties or subnormals."""
    length = draw(st.integers(3, 8))
    kind = draw(st.sampled_from(["scores", "wide", "cancel", "tie", "subnormal"]))
    if kind == "scores":
        return draw(st.lists(st.floats(-5.0, 15.0), min_size=length, max_size=length))
    if kind == "wide":
        return draw(st.lists(st.floats(-1e300, 1e300), min_size=length, max_size=length))
    if kind == "subnormal":
        tiny = st.integers(-(2**60), 2**60).map(lambda k: k * 2.0**-1074)
        return draw(st.lists(tiny, min_size=length, max_size=length))
    if kind == "cancel":
        half = draw(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=length // 2))
        n_rest = length - 2 * len(half)
        rest = draw(st.lists(st.floats(-1e-3, 1e-3), min_size=n_rest, max_size=n_rest))
        return draw(st.permutations(half + [-v for v in half] + rest))
    # an odd multiple of half an ulp of `big`, split in two, and a nudge that may break the tie
    exponent = draw(st.integers(-1000, 900))
    big = draw(st.integers(2**52, 2**53 - 1)) * 2.0**exponent
    half_ulp = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** (exponent - 1)
    nudge = draw(st.sampled_from([0.0, 2.0 ** (exponent - 60), -(2.0 ** (exponent - 60))]))
    if length == 3:
        return draw(st.permutations([big, half_ulp, nudge]))
    return draw(st.permutations([big, half_ulp / 2, half_ulp / 2, nudge] + [0.0] * (length - 4)))


@settings(max_examples=400, deadline=None, database=None)
@given(st.lists(_summands(), min_size=1, max_size=6))
def test_block_sums_equal_fsum_bitwise_property(blocks):
    x, lengths = _padded(blocks)
    want = np.array([math.fsum(b) for b in blocks])
    assert _fsum_columns(x, lengths).tobytes() == want.tobytes()


_HUGE = 1.5e308


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(
        st.lists(
            st.one_of(
                st.sampled_from([math.inf, -math.inf, math.nan, _HUGE, -_HUGE, 0.0, -0.0]),
                st.floats(-10.0, 10.0),
            ),
            min_size=3,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    )
)
def test_block_sums_return_or_raise_what_fsum_does_property(blocks):
    # fsum's error for the first failing block, shortest first, or every sum
    x, lengths = _padded(blocks)
    order = sorted(range(len(blocks)), key=lambda j: len(blocks[j]))
    outcomes = [_outcome(lambda: math.fsum(blocks[j])) for j in order]
    errors = [o for o in outcomes if isinstance(o, tuple)]
    got = _outcome(lambda: _fsum_columns(x, lengths))
    if errors:
        assert got == errors[0]
    else:
        want = np.array([math.fsum(b) for b in blocks])
        assert got.tobytes() == want.tobytes()


def test_block_sums_of_scores_need_no_fsum(monkeypatch):
    # ordinary scores, ties to even included, are certified without fsum
    rng = np.random.default_rng(41)
    blocks = [rng.normal(5.0, 2.0, int(rng.integers(3, 9))) for _ in range(2000)]
    x, lengths = _padded(blocks)
    want = np.array([math.fsum(b) for b in blocks])

    def refuse(values):
        raise AssertionError("fsum called for a certifiable block")

    monkeypatch.setattr(math, "fsum", refuse)
    assert _fsum_columns(x, lengths).tobytes() == want.tobytes()


_MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "block",
    [
        # the running sums stay finite and exact, but fsum's partials overflow
        [-(2.0**970), np.nextafter(_MAX, 0.0), -_MAX],
        [np.nextafter(2.0**1023, 0.0), 2.0**968, -(2.0**969), 2.0**1023],
        # exact running sums whose last rounding overflows
        [-(2.0**970), _MAX, 2.0**969, 3 * 2.0**969, 2.0**968],
    ],
    ids=["finite-sum", "finite-sum-four", "infinite-sum"],
)
def test_block_sums_raise_where_fsum_overflows(block):
    with pytest.raises(OverflowError, match="intermediate overflow"):
        math.fsum(block)
    x, lengths = _padded([[1.0, 2.0, 3.0], block])
    with pytest.raises(OverflowError, match="intermediate overflow"):
        _fsum_columns(x, lengths)
