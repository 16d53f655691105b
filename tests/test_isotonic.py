from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import isotonic_qp_oracle
from review_calib.isotonic import (
    NON_DECREASING,
    NON_INCREASING,
    isotonic_fit,
    isotonic_project_indexed,
    project_rows_non_increasing,
)


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


def test_row_kernel_matches_scalar_fit_bitwise():
    # integer-valued rows produce ties and long pooled blocks
    rng = np.random.default_rng(29)
    for s in range(9):
        rows = np.vstack([rng.integers(0, 4, (40, s)), rng.normal(5, 2, (40, s))])
        got = project_rows_non_increasing(rows)
        for row, fitted in zip(rows, got):
            want = isotonic_fit(row, direction=NON_INCREASING)
            assert fitted.tobytes() == want.tobytes()
