from __future__ import annotations

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conference_from_lists, reverse_assignment_reference, validate_conference_reference
from review_calib import (
    Conference,
    ConfigurationError,
    DiscreteDistribution,
    GenConfig,
    GenerationError,
    gen_conference,
    scaled_config,
)
from review_calib.conference import (
    DEFAULT_MASTER_SEED,
    fit_multiplicity_distribution,
    gen_true_scores,
    sample_author_multiplicities,
)
from review_calib.seeding import PURPOSE_CONFERENCE, stream


def _rng(seed=0):
    return np.random.default_rng(seed)


# --- author multiplicities


def test_fitted_distribution_hits_tail_targets():
    dist = fit_multiplicity_distribution(GenConfig().author_multiplicity_targets, 18535)
    values = np.asarray(dist.values)
    probs = np.asarray(dist.probs)
    tails = {t: probs[values >= t].sum() for t in (2, 5, 10, 15)}
    # the first threshold is matched exactly by the mixture weight
    assert tails[2] == pytest.approx(4505 / 18535, abs=1e-12)
    # higher thresholds come from the one-parameter tail fit
    assert tails[5] == pytest.approx(508 / 18535, rel=0.25)
    assert tails[10] == pytest.approx(74 / 18535, rel=0.35)
    assert tails[15] == pytest.approx(26 / 18535, rel=0.35)


def test_default_sample_tail_fraction_in_reported_range():
    draws = sample_author_multiplicities(GenConfig(), _rng(3))
    assert len(draws) == 18535
    frac = float(np.mean(draws >= 2))
    assert 0.22 <= frac <= 0.27


def test_all_single_paper_authors():
    config = GenConfig(n_papers=50, n_authors=120, author_multiplicity_targets=())
    draws = sample_author_multiplicities(config, _rng(1))
    assert np.all(draws == 1)


def test_half_multi_author_target_frequency():
    config = GenConfig(n_papers=10, n_authors=4, author_multiplicity_targets=((2, 2),))
    rng = _rng(9)
    draws = np.concatenate([sample_author_multiplicities(config, rng) for _ in range(10_000)])
    frac = float(np.mean(draws >= 2))
    # 40k Bernoulli(0.5) draws; 3 sigma is ~0.0075
    assert frac == pytest.approx(0.5, abs=0.01)


def test_infeasible_targets_rejected():
    with pytest.raises(ConfigurationError, match="exceeds"):
        GenConfig(author_multiplicity_targets=((2, 100), (5, 200)), n_authors=1000)
    with pytest.raises(ConfigurationError, match="increasing"):
        GenConfig(author_multiplicity_targets=((5, 100), (2, 200)), n_authors=1000)
    with pytest.raises(ConfigurationError, match="threshold"):
        GenConfig(author_multiplicity_targets=((1, 100),), n_authors=1000)


def test_multiplicity_calibration_over_seeds():
    config = GenConfig()
    target = config.author_multiplicity_targets[0][1] / config.n_authors
    fracs = []
    for seed in range(20):
        draws = sample_author_multiplicities(config, _rng(seed))
        fracs.append(float(np.mean(draws >= 2)))
    assert abs(float(np.mean(fracs)) - target) < 0.02


# --- true scores


def test_true_scores_shape_and_moments():
    scores = gen_true_scores(6538, 5.0, 0.88, _rng(2))
    assert scores.shape == (6538,)
    assert abs(scores.mean() - 5.0) < 3 * 0.88 / np.sqrt(6538)


def test_true_scores_degenerate_and_empty():
    assert np.array_equal(gen_true_scores(4, 2.5, 0.0, _rng(0)), np.full(4, 2.5))
    assert gen_true_scores(0, 5.0, 1.0, _rng(0)).size == 0


def test_true_scores_large_sample_mean():
    scores = gen_true_scores(10**6, 5.0, 1.0, _rng(8))
    assert abs(scores.mean() - 5.0) < 0.01


def test_true_scores_negative_sd_rejected():
    with pytest.raises(ValueError, match="sd"):
        gen_true_scores(5, 0.0, -1.0, _rng(0))


# --- conference generation


def test_conference_invariants(tiny_conf, tiny_config):
    tiny_conf.validate()
    per_paper = np.bincount(tiny_conf.slot_papers, minlength=tiny_conf.n_papers)
    support = tiny_config.reviewers_per_paper_dist.values
    assert per_paper.min() == min(support)
    assert per_paper.max() == max(support)
    # reviewer loads never exceed the capacity support
    loads = np.diff(tiny_conf.reviewer_ptr)
    assert loads.max() <= tiny_config.reviewer_capacity_dist.max_value
    # a generated conference lists each reviewer's papers in increasing order
    keys = tiny_conf.slot_reviewers * tiny_conf.n_papers + tiny_conf.slot_papers
    assert np.all(np.diff(keys) > 0)


def test_single_paper_conference():
    config = GenConfig(
        n_papers=1,
        n_authors=1,
        author_multiplicity_targets=(),
        reviewers_per_paper_dist=DiscreteDistribution.point_mass(1),
    )
    conf = gen_conference(config)
    conf.validate()
    assert conf.n_papers == 1
    assert conf.n_slots == 1


def test_determinism_byte_identical(tiny_config):
    a = gen_conference(tiny_config, stream(DEFAULT_MASTER_SEED, PURPOSE_CONFERENCE))
    b = gen_conference(tiny_config, stream(DEFAULT_MASTER_SEED, PURPOSE_CONFERENCE))
    assert a.to_json_str() == b.to_json_str()
    # without an rng, generation uses the default master seed's conference stream
    assert gen_conference(tiny_config).to_json_str() == a.to_json_str()


def test_json_round_trip(tiny_conf):
    clone = Conference.from_json(tiny_conf.to_json())
    assert np.array_equal(clone.true_scores, tiny_conf.true_scores)
    assert np.array_equal(clone.slot_papers, tiny_conf.slot_papers)
    assert np.array_equal(clone.reviewer_ptr, tiny_conf.reviewer_ptr)
    assert np.array_equal(clone.slot_reviewers, tiny_conf.slot_reviewers)
    assert all(np.array_equal(x, y) for x, y in zip(clone.authorship, tiny_conf.authorship))
    clone.validate()


def test_hand_built_slot_order_is_kept():
    # a hand-built reviewer list keeps its order in the slots and in the JSON
    conf = conference_from_lists(np.zeros(3), [[0, 1, 2]], [[2, 0], [1, 0, 2]])
    assert conf.slot_papers.tolist() == [2, 0, 1, 0, 2]
    assert conf.slot_reviewers.tolist() == [0, 0, 1, 1, 1]
    lists = conf.to_json()
    assert lists["assignment"] == [[2, 0], [1, 0, 2]]
    assert lists["reverse_assignment"] == [[0, 1], [1], [0, 1]]
    assert Conference.from_json(lists).to_json_str() == conf.to_json_str()


@pytest.mark.parametrize(
    "ptr", [[1, 2], [0, 3], [0, 2, 1, 2], [], [[0, 2]]], ids=["start", "end", "decreasing", "empty", "2-d"]
)
def test_malformed_reviewer_ptr_rejected(ptr):
    with pytest.raises(GenerationError, match="CSR pointer"):
        Conference(np.zeros(2), [np.arange(2)], slot_papers=np.array([0, 1]), reviewer_ptr=np.array(ptr))


def test_capacity_deficit_raises():
    config = scaled_config(GenConfig(), 40)
    starving = GenConfig(
        n_papers=40,
        n_authors=config.n_authors,
        author_multiplicity_targets=config.author_multiplicity_targets,
        authors_per_paper_dist=config.authors_per_paper_dist,
        n_reviewers=3,
    )
    with pytest.raises(GenerationError, match="deficit"):
        gen_conference(starving)


def test_authorship_deficit_raises():
    config = GenConfig(n_papers=30, n_authors=5, author_multiplicity_targets=())
    with pytest.raises(GenerationError, match="deficit"):
        gen_conference(config)


def test_scaled_config_shrinks_all_counts():
    small = scaled_config(GenConfig(), 200)
    assert small.n_papers == 200
    assert small.n_authors == round(18535 * 200 / 6538)
    assert small.author_multiplicity_targets[0][0] == 2
    assert small.author_multiplicity_targets[0][1] <= small.n_authors


def test_genconfig_json_round_trip():
    config = GenConfig()
    clone = GenConfig.from_json(config.to_json())
    assert clone == config
    with pytest.raises(ConfigurationError, match="unknown"):
        GenConfig.from_json({"n_paperz": 10})


def test_genconfig_validation():
    with pytest.raises(ConfigurationError):
        GenConfig(n_papers=0)
    with pytest.raises(ConfigurationError):
        GenConfig(true_score_sd=0.0)
    for slack in (0.9, float("inf"), float("nan")):
        with pytest.raises(ConfigurationError, match="capacity_slack"):
            GenConfig(capacity_slack=slack)


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("n_papers", 80.7, id="n-papers-fractional"),
        pytest.param("n_papers", "80", id="n-papers-string"),
        pytest.param("n_papers", True, id="n-papers-bool"),
        pytest.param("n_papers", None, id="n-papers-none"),
        pytest.param("n_authors", np.float64(33.5), id="n-authors-numpy-fractional"),
        pytest.param("n_reviewers", "60", id="n-reviewers-string"),
        pytest.param("n_reviewers", False, id="n-reviewers-bool"),
    ],
)
def test_python_built_genconfig_rejects_untyped_count(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        replace(scaled_config(GenConfig(), 80), **{field: value})


@pytest.mark.parametrize(
    "value", [np.int64(80), np.int32(80), np.uint16(80), 80.0], ids=["int64", "int32", "uint16", "float"]
)
def test_python_built_genconfig_accepts_integral_count(value):
    base = scaled_config(GenConfig(), 80)
    config = replace(base, n_papers=value)
    assert type(config.n_papers) is int and config == base
    assert json.dumps(config.to_json()) == json.dumps(base.to_json())
    assert gen_conference(config).to_json_str() == gen_conference(base).to_json_str()


# --- golden conferences

# sha256 of gen_conference(config, stream(42, PURPOSE_CONFERENCE)).to_json_str(),
# recorded before the set-up was vectorised
GOLDEN_CONFERENCE_SHA256 = {
    "default": "d7603d5c0e3776fdba71fca3f5ec442a5262efafed44f4db434671c9ebbcee9e",
    "capacity-6": "bc0e0fae1e0a63c0ef6eade02fcd71d9459a7d5600bf7b3417d289a2f1416219",
}
GOLDEN_CONFIGS = {
    "default": GenConfig(),
    "capacity-6": replace(GenConfig(), reviewer_capacity_dist=DiscreteDistribution.point_mass(6)),
}


@pytest.fixture(scope="module", params=sorted(GOLDEN_CONFIGS))
def golden_conference(request):
    conf = gen_conference(GOLDEN_CONFIGS[request.param], stream(42, PURPOSE_CONFERENCE))
    return request.param, conf


def test_golden_conference_hash(golden_conference):
    name, conf = golden_conference
    digest = hashlib.sha256(conf.to_json_str().encode()).hexdigest()
    assert digest == GOLDEN_CONFERENCE_SHA256[name]


def test_golden_conference_json_round_trip(golden_conference):
    _, conf = golden_conference
    assert Conference.from_json(conf.to_json()).to_json_str() == conf.to_json_str()


def test_reverse_assignment_matches_double_loop(golden_conference, tiny_conf):
    for conf in (golden_conference[1], tiny_conf):
        lists = conf.to_json()
        expected = reverse_assignment_reference(lists["assignment"], conf.n_papers)
        assert lists["reverse_assignment"] == [want.tolist() for want in expected]


# --- Conference.from_json and validate, one case per message

# three papers; authors {0, 1} and {2}; reviewers {0, 1}, {1, 2}, {0, 2}
_AUTHORSHIP = [[0, 1], [2]]
_ASSIGNMENT = [[0, 1], [1, 2], [0, 2]]
_REVERSE = [[0, 2], [0, 1], [1, 2]]


def _small_conf(authorship=_AUTHORSHIP, assignment=_ASSIGNMENT, reverse=_REVERSE):
    """The JSON lists of a three-paper conference."""
    return {
        "true_scores": [0.0, 0.0, 0.0],
        "authorship": authorship,
        "assignment": assignment,
        "reverse_assignment": reverse,
    }


def _from_json_message(message):
    """What ``Conference.from_json`` raises where the loop reference raises ``message``.

    The reference names the first failing member of a reverse list; from_json
    names only its paper.
    """
    if message is not None and message.startswith("reverse_assignment lists"):
        return f"reverse_assignment inconsistent for paper {message.split()[-1]}"
    return message


def test_small_conference_is_valid():
    Conference.from_json(_small_conf()).validate()
    validate_conference_reference(_small_conf())


_INVALID = {
    "empty-author": (dict(authorship=[[0, 1], [2], []]), "author with an empty paper list"),
    "unknown-authored-paper": (
        dict(authorship=[[0, 1], [2, 3]]),
        "authorship references an unknown paper id",
    ),
    "negative-authored-paper": (
        dict(authorship=[[0, 1, -1], [2]]),
        "authorship references an unknown paper id",
    ),
    "duplicated-authored-paper": (dict(authorship=[[0, 1, 1], [2]]), "author holds a duplicated paper"),
    "first-failing-author-wins": (
        dict(authorship=[[0, 1, 1], [], [2, 9]]),
        "author holds a duplicated paper",
    ),
    "unknown-before-duplicate-in-one-author": (
        dict(authorship=[[0, 0, 7], [1, 2]]),
        "authorship references an unknown paper id",
    ),
    "paper-without-author": (dict(authorship=[[0, 1]]), "paper 2 has no author"),
    "reviewer-holds-paper-twice": (
        dict(assignment=[[0, 1], [1, 2, 2], [0, 2]]),
        "reviewer 1 holds the same paper twice",
    ),
    "unknown-reviewed-paper": (
        dict(assignment=[[0, 1], [1, 2], [0, 3]]),
        "reviewer 2 references an unknown paper id",
    ),
    "negative-reviewed-paper": (
        dict(assignment=[[0, 1], [-1, 1, 2], [0, 2]]),
        "reviewer 1 references an unknown paper id",
    ),
    "duplicate-before-unknown-in-one-reviewer": (
        dict(assignment=[[0, 1], [1, 2], [0, 2, 5, 5]]),
        "reviewer 2 holds the same paper twice",
    ),
    "first-failing-reviewer-wins": (
        dict(assignment=[[0, 1], [1, 2, 4], [0, 2, 2]]),
        "reviewer 1 references an unknown paper id",
    ),
    "paper-without-reviewer": (
        dict(assignment=[[0, 1], [1], [0]], reverse=[[0, 2], [0, 1], []]),
        "paper 2 has no reviewer",
    ),
    "reverse-length": (dict(reverse=[[0, 2], [0, 1]]), "reverse_assignment length != n_papers"),
    "reverse-count": (
        dict(reverse=[[0, 2], [0], [1, 2]]),
        "reverse_assignment inconsistent for paper 1",
    ),
    "reverse-membership": (
        dict(reverse=[[0, 2], [0, 2], [1, 2]]),
        "reverse_assignment lists reviewer 2 not holding 1",
    ),
    "first-non-member-in-list-order": (
        dict(reverse=[[0, 2], [2, 5], [1, 2]]),
        "reverse_assignment lists reviewer 2 not holding 1",
    ),
    # paper 1's key with reviewer -1 would alias paper 0's key with reviewer 2
    "negative-reviewer-aliasing-a-held-key": (
        dict(reverse=[[0, 2], [0, -1], [1, 2]]),
        "reverse_assignment lists reviewer -1 not holding 1",
    ),
    "first-failing-paper-wins": (
        dict(reverse=[[0, 1], [0, 1], [1]]),
        "reverse_assignment lists reviewer 1 not holding 0",
    ),
}


@pytest.mark.parametrize("case", sorted(_INVALID))
def test_validate_rejects(case):
    kwargs, message = _INVALID[case]
    lists = _small_conf(**kwargs)
    with pytest.raises(GenerationError) as excinfo:
        Conference.from_json(lists)
    assert str(excinfo.value) == _from_json_message(message)
    with pytest.raises(GenerationError) as excinfo:
        validate_conference_reference(lists)
    assert str(excinfo.value) == message


# reverse lists the loop reference accepted or crashed on
_HOLES = {
    "reverse-repeats-a-reviewer": (
        dict(reverse=[[0, 2], [0, 0], [1, 2]]),
        "reverse_assignment lists reviewer 0 twice for paper 1",
    ),
    # reviewer -1 would wrap to reviewer 2, which holds paper 2
    "reverse-negative-reviewer": (
        dict(reverse=[[0, 2], [0, 1], [1, -1]]),
        "reverse_assignment lists reviewer -1 not holding 2",
    ),
    "reverse-reviewer-out-of-range": (
        dict(reverse=[[0, 2], [0, 1], [1, 3]]),
        "reverse_assignment lists reviewer 3 not holding 2",
    ),
    # paper 1's key with reviewer 4 would alias paper 2's key with reviewer 1
    "reverse-reviewer-out-of-range-aliasing-a-held-key": (
        dict(reverse=[[0, 2], [0, 4], [1, 2]]),
        "reverse_assignment lists reviewer 4 not holding 1",
    ),
}


@pytest.mark.parametrize("case", sorted(_HOLES))
def test_validate_closes_reverse_holes(case):
    kwargs, message = _HOLES[case]
    with pytest.raises(GenerationError) as excinfo:
        Conference.from_json(_small_conf(**kwargs))
    assert str(excinfo.value) == _from_json_message(message)


_FIELDS = ("authorship", "assignment", "reverse_assignment")


@st.composite
def _corruptions(draw):
    """1-3 edits, each dropping, duplicating or re-pointing one id, or dropping a list.

    A re-pointed id lands in range, one or two ids past either end of it,
    or on another id of the same list.
    """
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        edits.append(
            (
                draw(st.sampled_from(_FIELDS)),
                draw(st.sampled_from(("drop", "duplicate", "repoint", "drop-list"))),
                draw(st.integers(0, 10**6)),
                draw(st.integers(0, 10**6)),
                draw(st.sampled_from(("in-range", "below", "above", "sibling"))),
                draw(st.integers(1, 2)),
            )
        )
    return edits


def _apply(conf, edits):
    lists = conf.to_json()
    domain = {
        "authorship": conf.n_papers,
        "assignment": conf.n_papers,
        "reverse_assignment": conf.n_reviewers,
    }
    for name, op, which, pos, target_kind, offset in edits:
        outer = lists[name]
        if not outer:
            continue
        if op == "drop-list":
            outer.pop(which % len(outer))
            continue
        inner = outer[which % len(outer)]
        if op == "repoint" or not inner:
            target = {
                "in-range": pos % domain[name],
                "below": -offset,
                "above": domain[name] - 1 + offset,
                "sibling": inner[(pos + offset) % len(inner)] if inner else 0,
            }[target_kind]
            if inner:
                inner[pos % len(inner)] = target
            else:
                inner.append(target)
        elif op == "drop":
            inner.pop(pos % len(inner))
        else:
            inner.insert(pos % (len(inner) + 1), inner[pos % len(inner)])
    return lists


def _outcome(check, lists):
    try:
        check(lists)
    except GenerationError as exc:
        return str(exc)
    except IndexError:
        return "IndexError"
    return None


def _has_reverse_hole(lists):
    n_reviewers = len(lists["assignment"])
    for reviewers in lists["reverse_assignment"]:
        if any(r < 0 or r >= n_reviewers for r in reviewers) or len(set(reviewers)) != len(reviewers):
            return True
    return False


@settings(max_examples=300, deadline=None, database=None)
@given(_corruptions())
def test_validate_matches_loop_reference_property(tiny_conf, edits):
    lists = _apply(tiny_conf, edits)
    fast = _outcome(Conference.from_json, lists)
    if _has_reverse_hole(lists):
        # the reference may accept, wrap or crash here; from_json must refuse
        assert fast is not None and fast != "IndexError"
    else:
        assert fast == _from_json_message(_outcome(validate_conference_reference, lists))
