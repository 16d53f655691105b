from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau

from oracles import (
    ComparisonGraph,
    ConvergenceError,
    TransitionMatrix,
    build_transition_matrix,
    extract_pairwise,
    find_never_losers,
    hierarchical_tiers_all_pairs,
    naive_hierarchical_tiers,
    stationary_distribution,
    tiers_to_json,
    two_state_stationary,
    validate_tiers,
)
from review_calib import (
    NOISE_CASES,
    DiscreteDistribution,
    GenConfig,
    full_ranking,
    gen_conference,
    generate_final_scores,
    hierarchical_tiers,
)
from review_calib.conference import Ragged
from review_calib.ranking import TierDecomposition
from review_calib.seeding import PURPOSE_CONFERENCE, PURPOSE_SCORES, stream

A, B, C = 0, 1, 2


def _rankings(*seqs):
    return [np.asarray(s, dtype=np.int64) for s in seqs]


def _random_rankings(rng, n_papers, n_reviewers, max_len=4):
    rankings = []
    for _ in range(n_reviewers):
        size = int(rng.integers(1, max_len + 1))
        size = min(size, n_papers)
        bundle = rng.choice(n_papers, size=size, replace=False)
        rankings.append(bundle)
    return rankings


# --- pairwise extraction


def test_full_ranking_expands_to_all_pairs():
    g = extract_pairwise(_rankings([A, B, C]), {A, B, C})
    assert g.wins == {(A, B): 1, (A, C): 1, (B, C): 1}


def test_restriction_drops_pairs_with_inactive_papers():
    g = extract_pairwise(_rankings([A, B, C]), {A, C})
    assert g.wins == {(A, C): 1}


def test_single_paper_ranking_contributes_nothing():
    g = extract_pairwise(_rankings([A]), {A})
    assert len(g.wins) == 0


def test_repeated_paper_rejected():
    with pytest.raises(ValueError, match="repeated"):
        extract_pairwise(_rankings([A, A]), {A})


def test_pair_count_matches_formula():
    rng = np.random.default_rng(3)
    rankings = _random_rankings(rng, 12, 30)
    g = extract_pairwise(rankings, range(12))
    expected = sum(len(r) * (len(r) - 1) // 2 for r in rankings)
    assert sum(g.wins.values()) == expected


# --- transition matrix


def test_two_paper_loss_fractions():
    g = ComparisonGraph()
    g.add(B, A, 3)  # j=B beat i=A three times
    g.add(A, B, 1)
    tm = build_transition_matrix(g, {A, B})
    assert tm.matrix[0, 1] == pytest.approx(0.75)  # A moves to B
    assert tm.matrix[1, 0] == pytest.approx(0.25)
    assert np.allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)


def test_isolated_paper_is_absorbing():
    g = ComparisonGraph()
    g.add(A, B, 2)
    tm = build_transition_matrix(g, {A, B, C})
    k = list(tm.papers).index(C)
    assert tm.matrix[k, k] == 1.0


def test_rows_always_stochastic():
    rng = np.random.default_rng(5)
    rankings = _random_rankings(rng, 10, 40)
    g = extract_pairwise(rankings, range(10))
    tm = build_transition_matrix(g, range(10))
    assert np.allclose(tm.matrix.sum(axis=1), 1.0, atol=1e-12)


# --- stationary distribution


def test_two_state_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(25):
        a, b = rng.uniform(0.05, 0.95, size=2)
        tm = TransitionMatrix(
            papers=np.array([0, 1]),
            matrix=np.array([[1 - a, a], [b, 1 - b]]),
        )
        pi = stationary_distribution(tm, tol=1e-12)
        assert np.max(np.abs(pi - two_state_stationary(a, b))) < 1e-10


def test_single_state():
    tm = TransitionMatrix(papers=np.array([4]), matrix=np.array([[1.0]]))
    assert np.array_equal(stationary_distribution(tm), [1.0])


def test_non_convergence_raises_with_residual():
    a, b = 1e-9, 2e-9  # asymmetric and extremely slow-mixing
    tm = TransitionMatrix(
        papers=np.array([0, 1]),
        matrix=np.array([[1 - a, a], [b, 1 - b]]),
    )
    with pytest.raises(ConvergenceError) as err:
        stationary_distribution(tm, tol=1e-14, max_iter=5)
    assert err.value.residual > 0


def test_spectral_recovers_quality_order():
    # dense pairwise outcomes with sequential-choice win odds; the
    # stationary mass should sort items close to their latent quality
    rng = np.random.default_rng(11)
    n, per_pair = 20, 2000
    theta = np.linspace(0, 3, n)
    g = ComparisonGraph()
    for i in range(n):
        for j in range(i + 1, n):
            p_i = 1.0 / (1.0 + np.exp(theta[j] - theta[i]))
            wins_i = int(rng.binomial(per_pair, p_i))
            if wins_i:
                g.add(i, j, wins_i)
            if per_pair - wins_i:
                g.add(j, i, per_pair - wins_i)
    tm = build_transition_matrix(g, range(n))
    pi = stationary_distribution(tm)
    tau = kendalltau(theta, pi).statistic
    assert tau >= 0.9


# --- never-losers and tiers


def test_never_loser_chain():
    g = extract_pairwise(_rankings([A, B], [B, C]), {A, B, C})
    assert find_never_losers(g, {A, B, C}) == {A}


def test_cycle_has_no_never_loser():
    g = extract_pairwise(_rankings([A, B], [B, C], [C, A]), {A, B, C})
    assert find_never_losers(g, {A, B, C}) == set()


def test_uncompared_paper_is_never_loser():
    g = extract_pairwise(_rankings([A, B]), {A, B, C})
    assert find_never_losers(g, {A, B, C}) == {A, C}


def test_tiers_of_a_chain_are_singletons():
    tiers = hierarchical_tiers(_rankings([A, B], [B, C]), range(3))
    assert [t.tolist() for t in tiers.tiers] == [[A], [B], [C]]


def test_cycle_collapses_to_single_tier():
    tiers = hierarchical_tiers(_rankings([A, B], [B, C], [C, A]), range(3))
    assert [t.tolist() for t in tiers.tiers] == [[A, B, C]]


def test_no_comparisons_single_tier():
    tiers = hierarchical_tiers([], range(3))
    assert [t.tolist() for t in tiers.tiers] == [[A, B, C]]


def test_complete_observed_order_gives_singleton_tiers():
    n = 7
    order = [3, 0, 6, 2, 5, 1, 4]
    rankings = _rankings(*[[order[i], order[j]] for i in range(n) for j in range(i + 1, n)])
    tiers = hierarchical_tiers(rankings, range(n))
    assert [t.tolist() for t in tiers.tiers] == [[p] for p in order]


def test_peel_matches_rebuild_oracle():
    rng = np.random.default_rng(13)
    for trial in range(40):
        n = int(rng.integers(2, 15))
        rankings = _random_rankings(rng, n, int(rng.integers(1, 25)))
        fast = hierarchical_tiers(rankings, range(n))
        validate_tiers(fast, range(n))
        slow = naive_hierarchical_tiers(rankings, range(n))
        assert [t.tolist() for t in fast.tiers] == slow


@st.composite
def _peel_inputs(draw):
    # ids from range(n), or ids that run past both ends of it, so that some
    # rankings name unknown papers
    n = draw(st.integers(0, 12))
    paper_ids = st.integers(-3, 15)
    if n and draw(st.booleans()):
        paper_ids = st.integers(0, n - 1)
    # sometimes only rankings of at most two papers, the shape of a capacity-2 conference
    max_size = draw(st.sampled_from([2, 8]))
    rankings = draw(st.lists(st.lists(paper_ids, unique=True, max_size=max_size), max_size=12))
    repeat = draw(st.integers(0, 5))
    # a paper repeated at a distant position, which no adjacent pair shows
    rows = [r for r in rankings if len(r) >= 2]
    if rows and repeat == 0:
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 2))
        row.insert(draw(st.integers(i + 2, len(row))), row[i])
    # a paper repeated next to itself: [2] becomes [2, 2], [0, 3] becomes [0, 3, 3]
    rows = [r for r in rankings if r]
    if rows and repeat == 1:
        row = draw(st.sampled_from(rows))
        i = draw(st.integers(0, len(row) - 1))
        row.insert(i + 1, row[i])
    as_arrays = draw(st.booleans())
    if as_arrays:
        rankings = [np.asarray(r, dtype=np.int64) for r in rankings]
    return rankings, range(n)


@settings(max_examples=400, deadline=None, database=None)
@given(_peel_inputs())
# repeats next to themselves, rankings of at most two papers with and without an
# empty one, and no rankings at all
@example(([[2, 2]], range(3)))
@example(([[1, 0], [0, 3, 3]], range(4)))
@example(([[1, 0], [2], [0, 2]], range(3)))
@example(([[0, 1], [], [2, 1], [3, 0]], range(5)))
@example(([], range(4)))
def test_peel_matches_rebuild_oracle_property(inputs):
    rankings, all_papers = inputs
    if not {int(p) for r in rankings for p in r} <= set(all_papers):
        with pytest.raises(ValueError, match="outside"):
            hierarchical_tiers(rankings, all_papers)
        return
    if any(len(set(map(int, r))) < len(r) for r in rankings):
        with pytest.raises(ValueError, match="repeated"):
            hierarchical_tiers(rankings, all_papers)
        with pytest.raises(ValueError, match="repeated"):
            hierarchical_tiers_all_pairs(rankings, len(all_papers))
        return
    fast = hierarchical_tiers(rankings, all_papers)
    validate_tiers(fast, all_papers)
    assert tiers_to_json(fast) == naive_hierarchical_tiers(rankings, all_papers)
    assert all(t.dtype == np.int64 for t in fast.tiers)
    reference = hierarchical_tiers_all_pairs(rankings, len(all_papers)).tiers
    assert fast.tiers.flat.tobytes() == reference.flat.tobytes()
    assert fast.tiers.ptr.tobytes() == reference.ptr.tobytes()


@pytest.mark.parametrize("capacity", [2, 4, 6])
def test_peel_matches_all_pairs_reference_on_conferences(capacity):
    # every case's first repetition on the seed-42 conference, as a benchmark cell peels it
    gen = GenConfig(reviewer_capacity_dist=DiscreteDistribution.point_mass(capacity))
    conf = gen_conference(gen, stream(42, PURPOSE_CONFERENCE))
    for k, case in enumerate(NOISE_CASES.values()):
        _, _, rankings = generate_final_scores(conf, case, stream(42, PURPOSE_SCORES, k, 0))
        got = hierarchical_tiers(rankings, range(conf.n_papers)).tiers
        want = hierarchical_tiers_all_pairs(rankings, conf.n_papers).tiers
        assert len(got) > 2
        assert got.flat.tobytes() == want.flat.tobytes()
        assert got.ptr.tobytes() == want.ptr.tobytes()


def test_tiers_reject_repeated_paper():
    with pytest.raises(ValueError, match="repeated"):
        hierarchical_tiers(_rankings([0, 1], [1, 1]), range(3))
    with pytest.raises(ValueError, match="repeated"):
        hierarchical_tiers(_rankings([2, 0, 1, 0]), range(3))
    # a paper outside the comparison set is an error, not dropped as extract_pairwise drops it
    with pytest.raises(ValueError, match="outside"):
        hierarchical_tiers(_rankings([0, 7, 1, 7]), range(3))


@pytest.mark.parametrize(
    "rankings",
    [[[0.0, 1.0]], [np.array([0.5, 1.5])], [[0, 1], np.array([2.0])], [["0", "1"]], [[[0, 1]]]],
    ids=["float-list", "fractional-array", "float-row", "string-row", "2-d-row"],
)
def test_tiers_reject_non_integer_rankings(rankings):
    with pytest.raises(ValueError, match="integer ids"):
        hierarchical_tiers(rankings, range(3))


@pytest.mark.parametrize(
    "all_papers",
    [[0.5, 1.7], np.array([0.0, 1.0]), [0, 1.0], [True, False], ["0", "1"], [[0, 1]]],
    ids=["fractional-list", "float-array", "mixed-list", "bool-list", "string-list", "2-d"],
)
def test_tiers_reject_non_integer_paper_set(all_papers):
    with pytest.raises(ValueError, match=r"all_papers must be range\(n\)"):
        hierarchical_tiers(_rankings([0, 1]), all_papers)
    with pytest.raises(ValueError, match="all_papers must be integer ids"):
        validate_tiers(TierDecomposition([np.array([0, 1])]), all_papers)


@pytest.mark.parametrize(
    "all_papers",
    [{0, 1, 2}, [0, 1, 2], np.arange(3), range(1, 4), range(0, 6, 2), [0.0, 1.0, 2.0]],
    ids=["set", "list", "array", "range-from-1", "range-step-2", "float-list"],
)
def test_tiers_require_paper_range(all_papers):
    # ids are the conference's own paper ids, range(n); no other id set is read
    with pytest.raises(ValueError, match=r"all_papers must be range\(n\)"):
        hierarchical_tiers(_rankings([0, 2]), all_papers)


@st.composite
def _bundle_rankings(draw):
    """Rankings of distinct papers of range(n), every id known."""
    n = draw(st.integers(1, 14))
    bundle = st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 6))
    return draw(st.lists(bundle, max_size=30)), n


@settings(max_examples=200, deadline=None, database=None)
@given(_bundle_rankings())
def test_never_loser_invariant_property(inputs):
    # every paper of a non-final tier loses no comparison among the papers still remaining
    rankings, n = inputs
    tiers = hierarchical_tiers(rankings, range(n))
    validate_tiers(tiers, range(n))
    remaining = set(range(n))
    for tier in list(tiers.tiers)[:-1]:
        members = {int(p) for p in tier}
        for ranking in rankings:
            kept = [int(p) for p in ranking if int(p) in remaining]
            losers = {p for k, p in enumerate(kept) if k > 0}
            assert not members & losers
        remaining -= members
    assert remaining == {int(p) for p in tiers.tiers[-1]}


def test_tiers_partition_and_cross_tier_dominance():
    rng = np.random.default_rng(17)
    rankings = _random_rankings(rng, 25, 60)
    tiers = hierarchical_tiers(rankings, range(25))
    validate_tiers(tiers, range(25))
    remaining = set(range(25))
    for tier in list(tiers.tiers)[:-1]:
        g = extract_pairwise(rankings, remaining)
        losses = g.loss_counts(remaining)
        assert all(losses[int(p)] == 0 for p in tier)
        remaining -= set(int(p) for p in tier)


def test_tier_decomposition_validation_errors():
    with pytest.raises(ValueError, match="partition"):
        validate_tiers(TierDecomposition([np.array([0])]), {0, 1})
    with pytest.raises(ValueError, match="overlap"):
        validate_tiers(TierDecomposition([np.array([0]), np.array([0, 1])]), {0, 1})


def test_tier_validation_reports_the_first_problem():
    empty = np.empty(0, dtype=np.int64)
    with pytest.raises(ValueError, match="empty tier"):
        validate_tiers(TierDecomposition([np.array([0]), empty, np.array([0, 1])]), {0, 1})
    with pytest.raises(ValueError, match="overlap"):
        validate_tiers(TierDecomposition([np.array([0]), np.array([0, 1]), empty]), {0, 1})
    with pytest.raises(ValueError, match="partition"):
        validate_tiers(TierDecomposition([np.array([0, 2])]), {0, 1})
    # a paper listed twice inside one tier is not an overlap
    validate_tiers(TierDecomposition([np.array([1, 1]), np.array([0])]), {0, 1})
    validate_tiers(TierDecomposition([]), [])


@pytest.mark.parametrize(
    "tiers",
    [[[1.7, 0.5]], [np.array([1.0, 2.0])], [np.array([0]), np.array([0.5])], [[[0, 1]]]],
    ids=["fractional-list", "float-array", "float-tier", "2-d-tier"],
)
def test_tiers_must_be_integer_ids(tiers):
    # a float id was once truncated by full_ranking: [[1.7, 0.5]] ranked as [1, 0]
    with pytest.raises(ValueError, match="integer ids"):
        TierDecomposition(tiers)


@pytest.mark.parametrize("dtype", [np.int64, np.float64, np.bool_, object])
def test_empty_tier_of_any_dtype_is_accepted(dtype):
    tiers = TierDecomposition([np.array([1]), np.empty(0, dtype=dtype), [0]])
    assert [t.tolist() for t in tiers.tiers] == [[1], [], [0]]
    assert tiers.tiers.flat.dtype == np.int64
    assert full_ranking(tiers, np.array([1.0, 2.0])).tolist() == [1, 0]


def test_tiers_are_always_ragged():
    built = hierarchical_tiers(_rankings([A, B]), range(3))
    assert isinstance(built.tiers, Ragged)
    assert TierDecomposition(built.tiers).tiers is built.tiers
    assert isinstance(TierDecomposition([[A], [B, C]]).tiers, Ragged)
    empty = full_ranking(TierDecomposition([]), np.array([1.0]))
    assert empty.dtype == np.int64 and empty.size == 0


# --- full ranking


def test_singleton_tiers_ignore_averages():
    tiers = TierDecomposition([np.array([B]), np.array([A]), np.array([C])])
    order = full_ranking(tiers, np.array([9.0, 1.0, 5.0]))
    assert order.tolist() == [B, A, C]


def test_within_tier_sort_by_average():
    tiers = TierDecomposition([np.array([A, B, C])])
    order = full_ranking(tiers, np.array([2.0, 5.0, 4.0]))
    assert order.tolist() == [B, C, A]


def test_average_ties_break_by_paper_id():
    tiers = TierDecomposition([np.array([C, A, B])])
    order = full_ranking(tiers, np.array([1.0, 1.0, 1.0]))
    assert order.tolist() == [A, B, C]


@pytest.mark.parametrize("bad", [-1, 3])
def test_full_ranking_rejects_tier_ids_outside_the_scores(bad):
    # a -1 was once ranked as a paper: [[-1], [0]] gave the order [-1, 0]
    with pytest.raises(ValueError, match="outside"):
        full_ranking(TierDecomposition([[bad], [0]]), np.array([1.0, 2.0, 3.0]))
