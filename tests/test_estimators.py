from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    build_owner_partition_reference,
    calibrate_author_reference,
    calibrate_combined,
    conference_from_lists,
    validate_owner_partition,
)
from review_calib import (
    NOISE_CASES,
    DiscreteDistribution,
    GenConfig,
    OwnerPartition,
    avg_scores,
    build_owner_partition,
    calibrate_author,
    calibrate_reviewer,
    gen_conference,
    generate_final_scores,
    rmse,
)
from review_calib.conference import Ragged


# --- averaging


def test_avg_is_arithmetic_mean():
    conf = conference_from_lists([5.0], [[0]], [[0], [0]])
    assert avg_scores(np.array([4.0, 6.0]), conf).tolist() == [5.0]


def test_single_review_average_is_identity():
    conf = conference_from_lists([5.0], [[0]], [[0]])
    assert avg_scores(np.array([7.2]), conf).tolist() == [7.2]


def test_unreviewed_paper_rejected():
    conf = conference_from_lists([5.0, 5.0], [[0, 1]], [[0], [0]])
    with pytest.raises(ValueError, match="no review"):
        avg_scores(np.array([4.0, 6.0]), conf)


def test_avg_rejects_paper_ids_outside_conference():
    # an unvalidated conference whose slots name papers 2 and -1 of a 2-paper conference
    for assignment in ([[0], [1], [2]], [[-1], [0], [1]]):
        conf = conference_from_lists([5.0, 5.0], [[0, 1]], assignment)
        with pytest.raises(ValueError, match="outside"):
            avg_scores(np.array([4.0, 6.0, 1.0]), conf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_avg_rejects_non_finite_scores(bad):
    conf = conference_from_lists([5.0, 5.0], [[0, 1]], [[0], [1]])
    with pytest.raises(ValueError, match="finite"):
        avg_scores(np.array([4.0, bad]), conf)


def test_avg_rejects_empty_table():
    conf = conference_from_lists([5.0], [[0]], [])
    with pytest.raises(ValueError, match="empty"):
        avg_scores(np.empty(0), conf)


# --- reviewer-ranking calibration


def test_consistent_ranking_leaves_avg_unchanged():
    avg = np.array([6.0, 4.0, 2.0])
    rankings = [np.array([0, 1]), np.array([1, 2])]
    for blend in (0.0, 0.5, 1.0):
        out = calibrate_reviewer(avg, rankings, blend)
        assert np.allclose(out, avg, atol=1e-12)


def test_two_paper_halfblend_example():
    # ranking says paper 0 beats paper 1 while the averages disagree;
    # the fit pools to (5, 5) and the half blend lands at (4.5, 5.5)
    out = calibrate_reviewer(np.array([4.0, 6.0]), [np.array([0, 1])], blend=0.5)
    assert np.allclose(out, [4.5, 5.5], atol=1e-12)


def test_blend_zero_returns_avg_exactly():
    rng = np.random.default_rng(3)
    avg = rng.normal(5, 1, 12)
    rankings = [rng.choice(12, size=3, replace=False) for _ in range(8)]
    assert np.array_equal(calibrate_reviewer(avg, rankings, 0.0), avg)


def test_blend_is_affine_path():
    rng = np.random.default_rng(5)
    avg = rng.normal(5, 1, 15)
    rankings = [rng.choice(15, size=4, replace=False) for _ in range(10)]
    fitted = calibrate_reviewer(avg, rankings, 1.0)
    for blend in (0.25, 0.5, 0.75):
        out = calibrate_reviewer(avg, rankings, blend)
        assert np.allclose(out, blend * fitted + (1 - blend) * avg, atol=1e-12)


# --- owner partition


def test_single_author_owns_both_papers():
    conf = conference_from_lists([1.0, 2.0], [[0, 1]], [[0, 1]])
    owners = build_owner_partition(conf)
    assert owners.authors.tolist() == [0]
    # ordered by descending true score
    assert owners.owners[0].tolist() == [1, 0]
    validate_owner_partition(owners)


def test_greedy_overlap_resolution_drops_starved_author():
    # author 0 has three papers including the shared one; author 1 keeps
    # only one unclaimed paper and is dropped
    conf = conference_from_lists(
        [4.0, 3.0, 2.0, 1.0],
        [[0, 1, 2], [2, 3]],
        [[0, 1, 2, 3]],
    )
    owners = build_owner_partition(conf)
    assert owners.authors.tolist() == [0]
    assert owners.owners[0].tolist() == [0, 1, 2]


def test_all_single_paper_authors_yield_empty_partition():
    conf = conference_from_lists([1.0, 2.0], [[0], [1]], [[0, 1]])
    owners = build_owner_partition(conf)
    assert owners.authors.tolist() == [] and len(owners.owners) == 0


def test_tie_break_prefers_smaller_author_id():
    conf = conference_from_lists(
        [3.0, 2.0, 1.0],
        [[0, 1], [0, 2]],
        [[0, 1, 2]],
    )
    owners = build_owner_partition(conf)
    assert owners.authors.tolist() == [0]  # author 1 left with only paper 2


@pytest.mark.parametrize(
    "rows",
    [[[0.0, 1.0]], [np.array([0.5, 1.5])], [np.array([0, 1]), np.array([2.0, 3.0])], [[[0, 1]]]],
    ids=["float-list", "fractional-array", "float-row", "2-d-row"],
)
def test_hand_built_owner_rows_must_be_integer_ids(rows):
    with pytest.raises(ValueError, match="integer ids"):
        OwnerPartition(np.arange(len(rows)), rows)


def test_owner_partition_needs_one_author_per_row():
    with pytest.raises(ValueError, match="2 authors for 1 owner rows"):
        OwnerPartition(np.array([0, 1]), [np.array([0, 1])])
    with pytest.raises(ValueError, match="0 authors for 1 owner rows"):
        OwnerPartition(np.empty(0, dtype=np.int64), Ragged.of([[0, 1]]))


@pytest.mark.parametrize("rows", [[[0, 1], [1, 2]], [[0, 0]]], ids=["across-rows", "within-a-row"])
def test_owner_partition_refuses_a_paper_owned_twice(rows):
    # accepted, [[0, 1], [1, 2]] projected [1., 2., 3.] to [1.5, 2.5, 2.5]: paper 0 below paper 1
    with pytest.raises(ValueError, match="owned twice"):
        OwnerPartition(np.arange(len(rows)), rows)


def test_owner_partition_keeps_its_ragged_and_pickles():
    conf = conference_from_lists([1.0, 2.0, 3.0], [[0, 1], [2]], [[0, 1, 2]])
    built = build_owner_partition(conf)
    assert isinstance(built.owners, Ragged)
    assert OwnerPartition(built.authors, built.owners).owners is built.owners
    # a hand-built list of rows becomes the same layout
    by_hand = OwnerPartition(np.array([0]), [[1, 0]])
    assert by_hand.owners.flat.tobytes() == built.owners.flat.tobytes()
    assert by_hand.owners.ptr.tobytes() == built.owners.ptr.tobytes()
    clone = pickle.loads(pickle.dumps(built))
    _assert_same_owners(clone, built)


def _assert_same_owners(got, want):
    # same owners in the same order, each with the same int64 bytes
    assert got.authors.tolist() == want.authors.tolist()
    assert len(got.owners) == len(want.owners)
    for mine, papers in zip(got.owners, want.owners):
        assert mine.dtype == papers.dtype == np.int64
        assert mine.tobytes() == papers.tobytes()


@st.composite
def _authored_conferences(draw):
    n = draw(st.integers(1, 30))
    # a small grid, so equal true scores (and the id tie-break) are common
    theta = draw(st.lists(st.integers(-3, 3).map(lambda v: v / 2), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=8, unique=True), max_size=20))
    return conference_from_lists(theta, rows, [list(range(n))])


@settings(max_examples=300, deadline=None, database=None)
@given(_authored_conferences())
def test_owner_partition_matches_reference_property(conf):
    _assert_same_owners(build_owner_partition(conf), build_owner_partition_reference(conf))


@pytest.mark.parametrize("capacity", [2, 6])
def test_owner_partition_matches_reference_on_generated_conference(capacity):
    conf = gen_conference(GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(capacity)))
    want = build_owner_partition_reference(conf)
    # the greedy claim drops some prolific authors
    assert 0 < len(want.owners) < int(np.sum(conf.authorship.sizes >= 2))
    _assert_same_owners(build_owner_partition(conf), want)


# --- author-ranking calibration


def test_consistent_owner_scores_unchanged():
    conf = conference_from_lists([5.0, 4.0], [[0, 1]], [[0, 1]])
    owners = build_owner_partition(conf)
    scores = np.array([6.0, 2.0])
    assert np.allclose(calibrate_author(scores, owners), scores, atol=1e-12)


def test_violating_pair_pools():
    conf = conference_from_lists([5.0, 4.0], [[0, 1]], [[0, 1]])
    owners = build_owner_partition(conf)
    out = calibrate_author(np.array([4.0, 6.0]), owners)
    assert np.allclose(out, [5.0, 5.0], atol=1e-12)


@pytest.mark.parametrize("bad", [-1, 3])
def test_author_projection_rejects_owned_ids_outside_the_scores(bad):
    # a -1 once wrapped round to paper 2 and pooled it: the result read [2., 2., 2.]
    with pytest.raises(ValueError, match="outside"):
        calibrate_author([1.0, 2.0, 3.0], OwnerPartition(np.array([0]), [[0, bad]]))


def test_unowned_papers_untouched_and_sums_preserved():
    rng = np.random.default_rng(7)
    theta = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
    conf = conference_from_lists(theta, [[0, 1, 2], [3], [4]], [[0, 1, 2, 3, 4]])
    owners = build_owner_partition(conf)
    scores = rng.normal(4, 2, 5)
    out = calibrate_author(scores, owners)
    assert out[3] == scores[3] and out[4] == scores[4]
    owned = owners.owners[0]
    assert out[owned].sum() == pytest.approx(scores[owned].sum(), rel=1e-12)
    assert np.all(np.diff(out[owned]) <= 1e-12)  # non-increasing along true order


def test_author_blend_is_exposed():
    conf = conference_from_lists([5.0, 4.0], [[0, 1]], [[0, 1]])
    owners = build_owner_partition(conf)
    scores = np.array([4.0, 6.0])
    half = calibrate_author(scores, owners, blend=0.5)
    assert np.allclose(half, [4.5, 5.5], atol=1e-12)
    with pytest.raises(ValueError, match="blend"):
        calibrate_author(scores, owners, blend=-0.1)


def _assert_bitwise_equal(got, want):
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def _author_instances(draw):
    n = draw(st.integers(0, 40))
    if draw(st.booleans()):
        # a small grid, so ties and equal-mean blocks are common
        values = st.integers(-4, 4).map(lambda v: v / 2)
    else:
        values = st.floats(-10, 10, allow_nan=False)
    scores = np.asarray(draw(st.lists(values, min_size=n, max_size=n)), dtype=float)
    papers = np.asarray(draw(st.permutations(range(n))), dtype=np.int64)
    authors, rows = [], []
    lo = 0
    while n - lo >= 2:
        size = draw(st.integers(2, min(8, n - lo)))
        group = papers[lo : lo + size]
        lo += size
        shape = draw(st.sampled_from(("unowned", "random", "ordered", "reversed")))
        if shape == "unowned":
            continue
        if shape == "ordered":
            scores[group] = np.sort(scores[group])[::-1]
        elif shape == "reversed":
            scores[group] = np.sort(scores[group])
        authors.append(draw(st.integers(0, 10**6).filter(lambda a: a not in authors)))
        rows.append(group)
    blend = draw(st.one_of(st.sampled_from((0.0, 0.5, 1.0)), st.floats(0.0, 1.0)))
    return scores, OwnerPartition(np.array(authors, dtype=np.int64), rows), blend


@settings(max_examples=400, deadline=None, database=None)
@given(_author_instances())
def test_author_projection_matches_per_owner_reference_property(instance):
    scores, owners, blend = instance
    validate_owner_partition(owners)
    _assert_bitwise_equal(
        calibrate_author(scores, owners, blend), calibrate_author_reference(scores, owners, blend)
    )


@pytest.mark.parametrize("capacity", [2, 6])
def test_author_projection_matches_per_owner_reference_on_generated_conference(capacity):
    conf = gen_conference(GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(capacity)))
    owners = build_owner_partition(conf)
    rng = np.random.default_rng(83)
    for case in NOISE_CASES.values():
        final, _, rankings = generate_final_scores(conf, case, rng)
        avg = avg_scores(final, conf)
        for scores in (avg, calibrate_reviewer(avg, rankings, 0.5)):
            # both kinds of owner occur: already in order (skipped) and rising somewhere
            rising = sum(bool(np.any(np.diff(scores[p]) > 0)) for p in owners.owners)
            assert 0 < rising < len(owners.owners)
            for blend in (1.0, 0.5):
                _assert_bitwise_equal(
                    calibrate_author(scores, owners, blend),
                    calibrate_author_reference(scores, owners, blend),
                )


def test_empty_partition_returns_a_copy():
    owners = OwnerPartition(np.empty(0, dtype=np.int64), [])
    assert owners.n_owned == 0
    for scores in (np.array([3.0, -0.0, 1.5]), [3.0, -0.0, 1.5]):
        out = calibrate_author(scores, owners)
        _assert_bitwise_equal(out, np.array([3.0, -0.0, 1.5]))
        assert not np.shares_memory(out, scores)


# --- combined calibration


def test_empty_partition_reduces_to_reviewer_calibration():
    rng = np.random.default_rng(9)
    avg = rng.normal(5, 1, 10)
    rankings = [rng.choice(10, size=3, replace=False) for _ in range(6)]
    owners = OwnerPartition(np.empty(0, dtype=np.int64), [])
    combined = calibrate_combined(avg, rankings, owners, blend=0.5)
    assert np.array_equal(combined, calibrate_reviewer(avg, rankings, 0.5))


def test_fully_consistent_inputs_reduce_to_avg():
    avg = np.array([6.0, 5.0, 4.0])
    rankings = [np.array([0, 1]), np.array([1, 2])]
    conf = conference_from_lists([6.0, 5.0, 4.0], [[0, 1, 2]], [[0, 1, 2]])
    owners = build_owner_partition(conf)
    out = calibrate_combined(avg, rankings, owners)
    assert np.allclose(out, avg, atol=1e-12)


def test_translation_equivariance_of_all_methods(tiny_conf):
    final, _, rankings = generate_final_scores(tiny_conf, NOISE_CASES["Base"], np.random.default_rng(11))
    owners = build_owner_partition(tiny_conf)
    avg = avg_scores(final, tiny_conf)
    shift = 3.25
    avg_s = avg_scores(final + shift, tiny_conf)
    assert np.allclose(avg_s, avg + shift, atol=1e-9)
    for compute in (
        lambda a: calibrate_reviewer(a, rankings, 0.5),
        lambda a: calibrate_author(a, owners),
        lambda a: calibrate_combined(a, rankings, owners, 0.5),
    ):
        assert np.allclose(compute(avg_s), compute(avg) + shift, atol=1e-9)


# --- rmse


def test_calibrations_reject_non_finite_scores():
    avg = np.array([3.0, np.nan, 1.0])
    rankings = [np.array([0, 1]), np.array([1, 2])]
    owners = OwnerPartition(np.array([0]), [np.array([0, 2])])
    with pytest.raises(ValueError, match="finite"):
        calibrate_reviewer(avg, rankings)
    with pytest.raises(ValueError, match="finite"):
        calibrate_author(avg, owners)
    with pytest.raises(ValueError, match="finite"):
        calibrate_combined(avg, rankings, owners)


def test_rmse_exact_values():
    truth = np.array([1.0, 2.0, 3.0, 4.0])
    assert rmse(truth, truth) == 0.0
    assert rmse(truth + 1.0, truth) == pytest.approx(1.0, rel=1e-15)
    half_off = truth.copy()
    half_off[:2] += 2.0
    assert rmse(half_off, truth) == pytest.approx(np.sqrt(2.0), rel=1e-15)


def test_rmse_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        rmse(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rmse_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        rmse(np.array([1.0, bad]), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        rmse(np.zeros(2), np.array([bad, 1.0]))


def test_rmse_rejects_an_overflowing_result():
    # finite inputs whose squared error overflows
    with pytest.raises(ValueError, match="finite"):
        rmse([1e200, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        rmse(np.array([1e308]), np.array([-1e308]))


def test_rmse_rejects_empty_input():
    with pytest.raises(ValueError, match="empty"):
        rmse(np.zeros(0), np.zeros(0))

