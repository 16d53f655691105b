from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import review_calib
import review_calib.conference as conference_module
from oracles import (
    assign_reviewers_reference,
    conference_from_json,
    conference_from_lists,
    deal_authorship_reference,
    fit_multiplicity_distribution_reference,
    match_slots_reference,
    reverse_assignment_reference,
    validate_conference_reference,
    validate_owner_partition,
)
from review_calib import (
    Conference,
    ConfigurationError,
    DiscreteDistribution,
    GenConfig,
    GenerationError,
    NOISE_CASES,
    gen_conference,
    generate_final_scores,
    scaled_config,
)
from review_calib.conference import (
    DEFAULT_MASTER_SEED,
    DEFAULT_MULTIPLICITY_TARGETS,
    Ragged,
    _assign_reviewers,
    _BoundedDraws,
    _deal_authorship,
    _match_slots,
    _minimize_bounded,
    _reconciled_author_loads,
    fit_multiplicity_distribution,
    sample_author_multiplicities,
)
from review_calib.estimators import build_owner_partition
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
    for count in (-1, 1001):
        with pytest.raises(ConfigurationError, match=re.escape(f"target count {count} outside [0, 1000]")):
            GenConfig(author_multiplicity_targets=((2, count),), n_authors=1000)


@pytest.mark.parametrize("n_authors", [10, 1000])
def test_threshold_above_n_papers_rejected(n_authors):
    # refused when built, not left to a silent shortfall or a failure in generation
    targets = ((2, n_authors // 10),)
    with pytest.raises(ConfigurationError, match=re.escape("threshold 2 > n_papers (1) has count")):
        GenConfig(n_papers=1, n_authors=n_authors, author_multiplicity_targets=targets)
    # a zero count asks nothing of the draws, so it may sit above n_papers
    GenConfig(n_papers=1, n_authors=n_authors, author_multiplicity_targets=((2, 0),))


def test_first_count_of_every_author_rejected():
    with pytest.raises(ConfigurationError, match="tail fraction at the first threshold must be < 1"):
        GenConfig(n_papers=50, n_authors=10, author_multiplicity_targets=((2, 10),))


@pytest.mark.parametrize(
    "field, value", [("true_score_mean", 1.01e6), ("true_score_mean", -1.01e6), ("true_score_sd", 1.01e6)]
)
def test_score_scale_beyond_the_bound_rejected(field, value):
    with pytest.raises(ConfigurationError, match="must be <= 1e"):
        replace(scaled_config(GenConfig(), 80), **{field: value})
    replace(scaled_config(GenConfig(), 80), **{field: math.copysign(1e6, value)})


@st.composite
def _valid_targets(draw):
    n_authors = draw(st.integers(1, 50_000))
    thresholds = sorted(draw(st.sets(st.integers(2, 40), min_size=1, max_size=4)))
    counts = draw(st.lists(st.integers(0, n_authors - 1), min_size=len(thresholds), max_size=len(thresholds)))
    config = GenConfig(
        n_papers=40, n_authors=n_authors, author_multiplicity_targets=tuple(zip(thresholds, sorted(counts)[::-1]))
    )
    return config.author_multiplicity_targets, n_authors


@settings(max_examples=40, deadline=None)
@given(_valid_targets())
def test_fitted_mass_at_the_first_threshold_is_its_target(targets_and_pool):
    # the fit scales its tail to c1 / n_authors exactly, so generation need not check its draws
    targets, n_authors = targets_and_pool
    dist = fit_multiplicity_distribution(targets, n_authors)
    (t1, c1), values = targets[0], np.asarray(dist.values)
    assert abs(np.asarray(dist.probs)[values >= t1].sum() - c1 / n_authors) <= 1e-12


def test_multiplicity_calibration_over_seeds():
    config = GenConfig()
    target = config.author_multiplicity_targets[0][1] / config.n_authors
    fracs = []
    for seed in range(20):
        draws = sample_author_multiplicities(config, _rng(seed))
        fracs.append(float(np.mean(draws >= 2)))
    assert abs(float(np.mean(fracs)) - target) < 0.02


# --- the bounded minimiser and the fit it serves, against scipy


# objectives of x with a centre c and a width w
_OBJECTIVES = {
    "quadratic": lambda x, c, w: w * (x - c) ** 2,
    "flat-bottom": lambda x, c, w: max(abs(x - c) - w, 0.0),  # zero on [c - w, c + w]
    "constant": lambda x, c, w: w,
    "step": lambda x, c, w: 0.0 if x < c else w,  # flat on both sides of a jump
    "staircase": lambda x, c, w: w * round(x - c) ** 2,  # ties at every level
    "multimodal": lambda x, c, w: math.sin(w * x) + 0.05 * (x - c) ** 2,
    "cusp": lambda x, c, w: math.sqrt(abs(x - c)),
}


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@settings(max_examples=400, deadline=None, database=None)
@given(
    kind=st.sampled_from(sorted(_OBJECTIVES)),
    centre=st.floats(-30.0, 30.0),
    width=st.floats(0.0, 20.0),
    lo=st.floats(-20.0, 20.0),
    # log-uniform widths, so that some intervals are as narrow as the 1e-5 tolerance
    span=st.one_of(st.just(0.0), st.floats(-7.0, 1.6).map(lambda e: 10.0**e)),
    as_numpy=st.booleans(),
)
# an interval so narrow that the first step is the tolerance; ties on a
# staircase: a parabolic step landing on the midpoint, and a new point tying
# the second best
@example("quadratic", 30.0, 1.0, 0.0, 1.8e-5, False)
@example("staircase", -10.47, 6.55, -17.25, 26.481, False)
@example("staircase", 29.34, 13.15, 17.03, 21.414, True)
def test_bounded_minimiser_is_scipy_bit_for_bit(kind, centre, width, lo, span, as_numpy):
    # centres run past both bounds, so minima fall inside, at and outside [lo, hi]
    as_type = np.float64 if as_numpy else float

    def func(x):
        return as_type(_OBJECTIVES[kind](x, centre, width))

    hi = lo + span
    x, fun = _minimize_bounded(func, lo, hi)
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded")
    assert (_bits(x), _bits(fun)) == (_bits(res.x), _bits(res.fun))
    assert lo <= x <= hi


def _random_targets(rng, count):
    for _ in range(count):
        n_authors = int(rng.integers(10, 50_000))
        k = int(rng.integers(1, 5))
        # strictly increasing thresholds from 2, non-increasing counts below n_authors
        thresholds = 2 + np.arange(k) + np.cumsum(rng.integers(0, 6, size=k))
        counts = np.sort(rng.integers(0, n_authors, size=k))[::-1]
        yield tuple(zip(thresholds.tolist(), counts.tolist())), n_authors


def test_multiplicity_fit_matches_scipy_reference():
    defaults = (DEFAULT_MULTIPLICITY_TARGETS, GenConfig().n_authors)
    for targets, n_authors in [defaults, *_random_targets(_rng(2026), 200)]:
        fitted = fit_multiplicity_distribution(targets, n_authors)
        reference = fit_multiplicity_distribution_reference(targets, n_authors)
        assert np.asarray(fitted.values).tobytes() == np.asarray(reference.values).tobytes()
        assert np.asarray(fitted.probs).tobytes() == np.asarray(reference.probs).tobytes()


def test_a_two_worker_run_imports_no_scipy():
    script = (
        "import sys\n"
        "from review_calib import ExperimentConfig, GenConfig, run_experiment, scaled_config\n"
        "config = ExperimentConfig(gen=scaled_config(GenConfig(), 300), repetitions=2)\n"
        "run_experiment(config, workers=2)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    src = str(Path(review_calib.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# --- true scores


def test_generated_true_scores_follow_the_config():
    config = GenConfig()
    scores = gen_conference(config).true_scores
    assert scores.shape == (config.n_papers,)
    assert abs(scores.mean() - config.true_score_mean) < 3 * config.true_score_sd / np.sqrt(config.n_papers)


# --- conference generation


def test_conference_invariants(tiny_conf, tiny_config):
    tiny_conf.validate()
    per_paper = np.bincount(tiny_conf.slot_papers, minlength=tiny_conf.n_papers)
    support = tiny_config.reviewers_per_paper_dist.values
    assert per_paper.min() == min(support)
    assert per_paper.max() == max(support)
    # reviewer loads never exceed the capacity support
    loads = np.diff(tiny_conf.reviewer_ptr)
    assert loads.max() <= tiny_config.reviewer_capacity_dist.values[-1]
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
    clone = conference_from_json(tiny_conf.to_json())
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
    assert conference_from_json(lists).to_json_str() == conf.to_json_str()


@pytest.mark.parametrize(
    "ptr",
    [[1, 2], [0, 3], [0, 2, 1, 2], [], [[0, 2]], [0.0, 2.0], [0, 2.5], ["0", "2"], [[0], [1, 2]]],
    ids=["start", "end", "decreasing", "empty", "2-d", "integral-float", "fractional", "string", "ragged"],
)
def test_malformed_reviewer_ptr_rejected(ptr):
    # passed as the list it is: numpy refuses to build an array of the ragged nesting
    with pytest.raises(GenerationError, match="CSR pointer"):
        Conference(np.zeros(2), [np.arange(2)], slot_papers=np.array([0, 1]), reviewer_ptr=ptr)


@pytest.mark.parametrize(
    "slots",
    [[0.0, 1.0], [0.7, 1.2], ["0", "1"], [True, False], [[0, 1]], 0],
    ids=["integral-float", "fractional", "string", "bool", "2-d", "scalar"],
)
def test_malformed_slot_papers_rejected(slots):
    # an id is refused, not truncated, as in a Ragged row
    with pytest.raises(GenerationError, match="slot_papers: rows must be integer ids"):
        Conference(np.zeros(2), [np.arange(2)], slot_papers=slots, reviewer_ptr=np.array([0, 2]))


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
    with pytest.raises(ConfigurationError, match="n_authors must be >= 1"):
        GenConfig(n_authors=0)
    with pytest.raises(ConfigurationError, match="n_reviewers must be >= 1"):
        GenConfig(n_reviewers=0)
    with pytest.raises(ConfigurationError):
        GenConfig(true_score_sd=0.0)
    for slack in (0.9, float("inf"), float("nan"), 1e308):
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
        pytest.param("author_multiplicity_targets", ((2.5, 100),), id="threshold-fractional"),
        pytest.param("author_multiplicity_targets", ((2, "100"),), id="target-count-string"),
        pytest.param("author_multiplicity_targets", ((True, 100),), id="threshold-bool"),
    ],
)
def test_python_built_genconfig_rejects_untyped_count(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be an integer"):
        replace(scaled_config(GenConfig(), 80), **{field: value})


@pytest.mark.parametrize(
    "field, value",
    [
        pytest.param("true_score_sd", "0.88", id="sd-string"),
        pytest.param("true_score_mean", "5", id="mean-string"),
        pytest.param("true_score_mean", None, id="mean-none"),
        pytest.param("capacity_slack", "1.05", id="slack-string"),
        pytest.param("capacity_slack", True, id="slack-bool"),
        pytest.param("true_score_sd", float("nan"), id="sd-nan"),
    ],
)
def test_python_built_genconfig_rejects_untyped_float(field, value):
    with pytest.raises(ConfigurationError, match=f"{field} must be a finite number"):
        replace(scaled_config(GenConfig(), 80), **{field: value})


_PAIRS = "tuple of (threshold, count) pairs"


@pytest.mark.parametrize(
    "field, value, kind",
    [
        pytest.param("author_multiplicity_targets", [[2, 200]], _PAIRS, id="targets-lists"),
        pytest.param("author_multiplicity_targets", ([2, 200],), _PAIRS, id="target-list"),
        pytest.param("author_multiplicity_targets", ((2, 200, 1),), _PAIRS, id="target-triple"),
        pytest.param(
            "reviewer_capacity_dist", {"values": [2], "probs": [1.0]}, "DiscreteDistribution", id="capacity-dict"
        ),
        pytest.param("authors_per_paper_dist", 3, "DiscreteDistribution", id="authors-int"),
    ],
)
def test_python_built_genconfig_rejects_untyped_structure(field, value, kind):
    with pytest.raises(ConfigurationError, match=re.escape(f"{field} must be a {kind}")):
        replace(scaled_config(GenConfig(), 80), **{field: value})


def test_python_built_genconfig_stores_floats():
    config = replace(scaled_config(GenConfig(), 80), true_score_mean=5, capacity_slack=np.float32(1.5))
    assert type(config.true_score_mean) is float and type(config.capacity_slack) is float
    assert config.true_score_mean == 5.0 and config.capacity_slack == 1.5


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
    assert conference_from_json(conf.to_json()).to_json_str() == conf.to_json_str()


def test_reverse_assignment_matches_double_loop(golden_conference, tiny_conf):
    for conf in (golden_conference[1], tiny_conf):
        lists = conf.to_json()
        expected = reverse_assignment_reference(lists["assignment"], conf.n_papers)
        assert lists["reverse_assignment"] == [want.tolist() for want in expected]


# --- set-up loops against their bitwise references

_pm = DiscreteDistribution.point_mass


def _twin_calls(new, reference, args, seed):
    """Run ``new`` and ``reference`` on equal generators.

    Returns each call's outcome (the dtype and bytes of every returned
    array, or the GenerationError message) paired with the generator state
    after it, and the reference's branch counts.
    """
    events = Counter()
    outcomes = []
    for call in (new, lambda *a: reference(*a, events=events)):
        rng = np.random.default_rng(seed)
        try:
            result = call(*args, rng)
            arrays = (result.flat, result.ptr) if isinstance(result, Ragged) else result
            outcome = [(a.dtype.str, a.tobytes()) for a in arrays]
        except GenerationError as err:
            outcome = str(err)
        outcomes.append((outcome, rng.bit_generator.state))
    return outcomes[0], outcomes[1], events


@pytest.fixture()
def dealt_windows(monkeypatch):
    """Record ``(flagged, scanned)`` of every windowed dealing pass."""
    calls = []
    real = conference_module._deal_windows

    def spy(deck, bounds, flagged):
        scanned = real(deck, bounds, flagged)
        calls.append((list(flagged), scanned))
        return scanned

    monkeypatch.setattr(conference_module, "_deal_windows", spy)
    return calls


_DEALING_EXHAUSTED = (
    "authorship dealing failed after 20 retries; multiplicity targets are too tight for this paper count"
)

# (n_papers, multiplicities, authors-per-paper law, seed) and what the run must show
_DEAL_BRANCHES = {
    "repeat-in-window": (
        (6, [3, 2, 2, 1, 1, 1], _pm(2), 0),
        lambda events, calls: events["repeat"] > 0 and calls[-1][0] != [],
    ),
    "swap-into-later-window": (
        (4, [2, 2, 2, 2], _pm(2), 3),
        lambda events, calls: events["swap_past_window"] > 0 and set(calls[-1][1]) > set(calls[-1][0]),
    ),
    "strand-then-restart": (
        (3, [2, 2, 2], _pm(2), 7),
        lambda events, calls: events["strand"] > 0 and calls[0][1] is None and calls[-1][1] is not None,
    ),
    "retries-exhausted": (
        (3, [3, 3], DiscreteDistribution.uniform((1, 4)), 0),
        lambda events, calls: events["strand"] == 20 and all(scanned is None for _, scanned in calls),
    ),
}


@pytest.mark.parametrize("branch", sorted(_DEAL_BRANCHES))
def test_dealing_matches_reference_on_each_branch(branch, dealt_windows):
    (n_papers, multiplicities, dist, seed), reached = _DEAL_BRANCHES[branch]
    args = (n_papers, np.array(multiplicities, dtype=np.int64), dist)
    new, ref, events = _twin_calls(_deal_authorship, deal_authorship_reference, args, seed)
    assert new == ref
    assert reached(events, dealt_windows)
    if branch == "retries-exhausted":
        assert new[0] == _DEALING_EXHAUSTED
    else:
        assert not isinstance(new[0], str)


def test_sampled_author_loads_are_capped_at_the_author_count():
    # uncapped, each reconciliation round lowered every load by one: 10**9 would take ~22 hours
    rng, want = np.random.default_rng(3), np.random.default_rng(3)
    dist = DiscreteDistribution.point_mass(10**4)
    loads = _reconciled_author_loads(3, np.array([3, 3, 3]), dist, rng)
    assert loads.tolist() == [3, 3, 3]
    dist.sample(want, 3)  # the capped loads already sum to 9, so no drop is drawn
    assert rng.bit_generator.state == want.bit_generator.state


@st.composite
def _deal_inputs(draw):
    n_papers = draw(st.integers(1, 8))
    multiplicities = draw(st.lists(st.integers(1, n_papers), min_size=1, max_size=12))
    loads = draw(st.sampled_from(((1,), (2,), (3,), (1, 4), (1, 2, 6))))
    return n_papers, np.array(multiplicities, dtype=np.int64), DiscreteDistribution.uniform(loads)


@settings(max_examples=300, deadline=None, database=None)
@given(_deal_inputs(), st.integers(0, 2**32 - 1))
def test_dealing_matches_reference_property(args, seed):
    new, ref, _ = _twin_calls(_deal_authorship, deal_authorship_reference, args, seed)
    assert new == ref


def _matching_config(n_reviewers, capacity, slack=1.05):
    return GenConfig(
        n_papers=1,
        n_authors=1,
        author_multiplicity_targets=(),
        reviewer_capacity_dist=capacity,
        n_reviewers=n_reviewers,
        capacity_slack=slack,
    )


_MATCHING_EXHAUSTED = (
    "review matching failed after 20 retries; "
    "reviewer capacities are too tight for a duplicate-free assignment"
)

# (review slots per paper, config, seed) and what the run must show
_MATCHING_BRANCHES = {
    # 50 draws miss, and the scan over the active reviewers finds several that can take
    # the paper, so one more draw picks among them
    "fallback-scan": (
        ([60] + [1] * 60, _matching_config(64, _pm(3)), 0),
        lambda events: events["fallback"] > events["dead_end"],
    ),
    "dead-end-then-restart": (
        ([3, 1, 1], _matching_config(3, _pm(2)), 1),
        lambda events: events["dead_end"] > 0,
    ),
    "retries-exhausted": (
        ([3], _matching_config(2, _pm(3)), 0),
        lambda events: events["dead_end"] == 20,
    ),
}


@pytest.mark.parametrize("branch", sorted(_MATCHING_BRANCHES))
def test_matching_matches_reference_on_each_branch(branch):
    (per_paper, config, seed), reached = _MATCHING_BRANCHES[branch]
    args = (np.array(per_paper, dtype=np.int64), config)
    new, ref, events = _twin_calls(_assign_reviewers, assign_reviewers_reference, args, seed)
    assert new == ref
    assert reached(events)
    if branch == "retries-exhausted":
        assert new[0] == _MATCHING_EXHAUSTED
    else:
        assert not isinstance(new[0], str)


@st.composite
def _matching_inputs(draw):
    n_papers = draw(st.integers(1, 10))
    per_paper = draw(st.lists(st.integers(1, 4), min_size=n_papers, max_size=n_papers))
    capacities = draw(st.sets(st.integers(1, 4), min_size=1))
    config = _matching_config(
        draw(st.none() | st.integers(1, 12)),
        DiscreteDistribution.uniform(tuple(sorted(capacities))),
        draw(st.floats(1.0, 1.5)),
    )
    return np.array(per_paper, dtype=np.int64), config


@settings(max_examples=300, deadline=None, database=None)
@given(_matching_inputs(), st.integers(0, 2**32 - 1))
def test_matching_matches_reference_property(args, seed):
    new, ref, _ = _twin_calls(_assign_reviewers, assign_reviewers_reference, args, seed)
    assert new == ref


# chunks this short put chunk edges, and so refills, under inline draws, retries and scans
_SHORT_CHUNKS = [1, 2, 3, 7]


@pytest.mark.parametrize("chunk", _SHORT_CHUNKS)
@pytest.mark.parametrize("branch", sorted(_MATCHING_BRANCHES))
def test_matching_matches_reference_across_chunk_edges_on_each_branch(branch, chunk, monkeypatch):
    monkeypatch.setattr(_BoundedDraws, "_CHUNK", chunk)
    (per_paper, config, seed), reached = _MATCHING_BRANCHES[branch]
    args = (np.array(per_paper, dtype=np.int64), config)
    new, ref, events = _twin_calls(_assign_reviewers, assign_reviewers_reference, args, seed)
    assert new == ref
    assert reached(events)


@settings(max_examples=200, deadline=None, database=None)
@given(_matching_inputs(), st.integers(0, 2**32 - 1), st.sampled_from(_SHORT_CHUNKS))
def test_matching_matches_reference_across_chunk_edges_property(args, seed, chunk):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_BoundedDraws, "_CHUNK", chunk)
        new, ref, _ = _twin_calls(_assign_reviewers, assign_reviewers_reference, args, seed)
    assert new == ref


class _ScriptedWords:
    """Stands in for the twin generator: the script's words first, then a seeded generator's."""

    def __init__(self, script, seed):
        self.script, self.rest = list(script), np.random.default_rng(seed)

    def integers(self, low, high, dtype, size):
        head, self.script = self.script[:size], self.script[size:]
        tail = self.rest.integers(low, high, dtype=dtype, size=size - len(head))
        return np.concatenate([np.array(head, dtype=dtype), tail])


# At 3 active reviewers the rejection threshold is 2**32 % 3 == 1. The word 0 is rejected
# and 2**31 then draws 1; 0xAAAAAAAB * 3 == 2 * 2**32 + 1 has low bits 1, below 3 but kept,
# and draws 2.
_LOW_WORDS = [0, 2**31, 0xAAAAAAAB, 0, 0, 2**31]


@pytest.mark.parametrize("chunk", [1, 2, 3, _BoundedDraws._CHUNK])
def test_inline_draws_leave_low_words_to_below(chunk, monkeypatch):
    monkeypatch.setattr(_BoundedDraws, "_CHUNK", chunk)
    papers = list(range(12))  # distinct papers, so every first draw is kept
    outcomes = []
    for match in (_match_slots, lambda p, rem, draws: match_slots_reference(p, rem, draws.below)):
        draws = _BoundedDraws(_rng(), 3)
        draws._twin = _ScriptedWords(_LOW_WORDS, 1)
        outcomes.append((match(papers, [4, 4, 4], draws), draws._drawn, draws.pos))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0][:3] == [1, 2, 1]


@pytest.mark.parametrize("capacity", [2, 6])
def test_set_up_matches_references_on_a_full_conference(capacity, monkeypatch):
    config = GenConfig(reviewer_capacity_dist=_pm(capacity))
    fast_rng = stream(11, PURPOSE_CONFERENCE)
    fast = gen_conference(config, fast_rng)
    monkeypatch.setattr(conference_module, "_deal_authorship", deal_authorship_reference)
    monkeypatch.setattr(conference_module, "_assign_reviewers", assign_reviewers_reference)
    slow_rng = stream(11, PURPOSE_CONFERENCE)
    slow = gen_conference(config, slow_rng)
    assert fast.to_json_str() == slow.to_json_str()
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state


class _CountingGenerator(np.random.Generator):
    """A generator that counts its ``integers`` calls."""

    calls = 0

    def integers(self, *args, **kwargs):
        self.calls += 1
        return super().integers(*args, **kwargs)


def test_default_conference_draws_its_matching_in_one_call():
    # one integers call advances the generator past every word the matching used;
    # drawing one bounded integer per slot would take 22,897 calls
    rng = _CountingGenerator(stream(42, PURPOSE_CONFERENCE).bit_generator)
    conf = gen_conference(GenConfig(), rng)
    assert rng.calls == 1
    assert hashlib.sha256(conf.to_json_str().encode()).hexdigest() == GOLDEN_CONFERENCE_SHA256["default"]


# --- the bounded-draw replay against numpy's own bounded integers

_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937, np.random.Philox, np.random.SFC64]
# no draw, the smallest draw, a power of two, ~50 % rejections, the largest bound
_EDGE_BOUNDS = [1, 2, 2**20, 2**31 + 1, 2**32 - 1]


def _plain(state):
    """A bit generator state with its arrays as lists, so that states compare with ``==``."""
    if isinstance(state, dict):
        return {key: _plain(value) for key, value in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def _assert_replays_integers(bit_generator, seed, bounds, chunk=_BoundedDraws._CHUNK):
    """Assert that the replay gives ``integers(0, n)``'s values and final state.

    Returns the words used after each draw and the final state.
    """

    class Draws(_BoundedDraws):
        _CHUNK = chunk

    rng = np.random.Generator(bit_generator(seed))
    draws = Draws(rng, max(bounds, default=1))
    values, used = [], []
    for n in bounds:
        values.append(draws.below(n))
        used.append(draws._drawn - (len(draws.words) - 1 - draws.pos))
    draws.sync()
    reference = np.random.Generator(bit_generator(seed))
    assert values == [int(reference.integers(0, n)) for n in bounds]
    assert _plain(rng.bit_generator.state) == _plain(reference.bit_generator.state)
    return used, rng.bit_generator.state


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.sampled_from(_BIT_GENERATORS),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_EDGE_BOUNDS) | st.integers(1, 2**32 - 1), max_size=40),
    st.sampled_from([1, 2, 3, 7, _BoundedDraws._CHUNK]),
)
def test_bounded_draws_replay_integers_property(bit_generator, seed, bounds, chunk):
    _assert_replays_integers(bit_generator, seed, bounds, chunk)


@pytest.mark.parametrize("bit_generator", _BIT_GENERATORS, ids=lambda b: b.__name__)
def test_bounded_draws_cross_a_chunk_edge_within_a_rejection(bit_generator):
    # ~50 % of words are rejected at this bound, so on some seed a draw rejects the
    # chunk's last word and takes its value from the next chunk
    edge = _BoundedDraws._CHUNK
    for seed in range(10):
        used, _ = _assert_replays_integers(bit_generator, seed, [2**31 + 1] * 1500)
        if any(before < edge < after for before, after in zip(used, used[1:])):
            break
    else:
        pytest.fail("no draw crossed the chunk edge")


def test_bounded_draws_reject_a_word_one_below_the_threshold():
    # a bound n in (2**31, 2**32) whose first word u lands its low bits on
    # (2**32 - n) % n - 1, the largest rejected value: n * (u + 1) == -1 mod 2**32
    for seed in range(100):
        u = int(np.random.Generator(np.random.PCG64(seed)).integers(0, 2**32, dtype=np.uint32))
        n = -pow(u + 1, -1, 2**32) % 2**32 if u % 2 == 0 else 0
        if 2**31 < n < 2**32:
            break
    assert (u * n) & 0xFFFFFFFF == (2**32 - n) % n - 1
    used, _ = _assert_replays_integers(np.random.PCG64, seed, [n])
    assert used[0] > 1


@pytest.mark.parametrize("bounds", [[2], [3, 1, 2, 2]])
def test_bounded_draws_leave_pcg64_half_word_buffered(bounds):
    # an odd number of 32-bit words leaves half of PCG64's last 64-bit output buffered
    used, state = _assert_replays_integers(np.random.PCG64, 8, bounds)
    assert used[-1] % 2 == 1 and state["has_uint32"] == 1


def test_bounded_draws_refuse_a_bound_of_two_to_the_32():
    with pytest.raises(ValueError, match="below 2\\*\\*32"):
        _BoundedDraws(np.random.default_rng(0), 2**32)


def _small_laws(hi):
    return st.sets(st.integers(1, hi), min_size=1, max_size=3).map(
        lambda values: DiscreteDistribution.uniform(tuple(sorted(values)))
    )


@st.composite
def _tight_configs(draw):
    """Small conferences with tight author multiplicities and reviewer capacities."""
    n_authors = draw(st.integers(1, 24))
    targets = ()
    if draw(st.booleans()):
        first = draw(st.integers(0, n_authors))
        targets = ((2, first),)
        if draw(st.booleans()):
            targets += ((draw(st.integers(3, 6)), draw(st.integers(0, first))),)
    return dict(
        n_papers=draw(st.integers(1, 8)),
        n_authors=n_authors,
        author_multiplicity_targets=targets,
        authors_per_paper_dist=draw(_small_laws(6)),
        reviewers_per_paper_dist=draw(_small_laws(4)),
        reviewer_capacity_dist=draw(_small_laws(4)),
        n_reviewers=draw(st.none() | st.integers(1, 12)),
        capacity_slack=draw(st.floats(1.0, 2.0)),
    )


@settings(max_examples=200, deadline=timedelta(seconds=1), database=None)
@given(_tight_configs(), st.integers(0, 2**32 - 1))
def test_tight_small_configs_fail_only_with_typed_errors(fields, seed):
    # set-up either succeeds or raises one of the two errors the CLI maps to exit 2 and 3
    try:
        conf = gen_conference(GenConfig(**fields), stream(seed, PURPOSE_CONFERENCE))
    except (ConfigurationError, GenerationError):
        return
    validate_owner_partition(build_owner_partition(conf))


# --- conference_from_json and validate, one case per message

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
    """What ``conference_from_json`` raises where the loop reference raises ``message``.

    The reference names the first failing member of a reverse list; from_json
    names only its paper.
    """
    if message is not None and message.startswith("reverse_assignment lists"):
        return f"reverse_assignment inconsistent for paper {message.split()[-1]}"
    return message


def test_small_conference_is_valid():
    conference_from_json(_small_conf()).validate()
    validate_conference_reference(_small_conf())


@pytest.mark.parametrize(
    "field, rows",
    [
        pytest.param("assignment", [[0, 1], [1, 10.5], [0, 2]], id="fractional-assignment-id"),
        pytest.param("assignment", [[0, 1], [1.0, 2], [0, 2]], id="float-assignment-id"),
        pytest.param("assignment", [[[0, 1]], [1, 2], [0, 2]], id="nested-assignment-row"),
        pytest.param("authorship", [["0", 1], [2]], id="string-authorship-id"),
        pytest.param("authorship", [[0, 1], ["23"]], id="string-only-authorship-row"),
        pytest.param("authorship", [[True, False], [2]], id="bool-authorship-row"),
        pytest.param("reverse_assignment", [[0, "2"], [0, 1], [1, 2]], id="string-reverse-id"),
        pytest.param("reverse_assignment", [[0, 2.0], [0, 1], [1, 2]], id="float-reverse-id"),
    ],
)
def test_from_json_refuses_non_integer_ids(field, rows):
    with pytest.raises(GenerationError, match=f"{field}: rows must be integer ids"):
        conference_from_json({**_small_conf(), field: rows})


@pytest.mark.parametrize(
    "scores",
    [
        pytest.param(["1.5", 0.0, 0.0], id="string"),
        pytest.param([True, 0.0, 0.0], id="bool"),
        pytest.param([True, False, True], id="all-bool"),
        pytest.param([float("nan"), 0.0, 0.0], id="nan"),
        pytest.param([0.0, float("inf"), 0.0], id="inf"),
        pytest.param([0.0, 0.0, -float("inf")], id="minus-inf"),
        pytest.param([None, 0.0, 0.0], id="none"),
        pytest.param([[0.0], [0.0], [0.0]], id="nested"),
    ],
)
def test_from_json_refuses_non_finite_or_non_numeric_true_scores(scores):
    with pytest.raises(GenerationError, match="true_scores must be a list of finite numbers"):
        conference_from_json({**_small_conf(), "true_scores": scores})


def test_from_json_reads_integer_true_scores_as_floats():
    conf = conference_from_json({**_small_conf(), "true_scores": [1, 0, 2]})
    assert conf.true_scores.dtype == np.float64
    assert conf.true_scores.tolist() == [1.0, 0.0, 2.0]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "minus-inf"])
def test_hand_built_conference_refuses_non_finite_true_scores(bad):
    # the first non-finite paper is named, whatever follows it
    with pytest.raises(GenerationError, match="^paper 1 has a non-finite true score$"):
        conference_from_lists([0.0, bad, math.nan], _AUTHORSHIP, _ASSIGNMENT)


def test_hand_built_true_scores_become_a_float_array():
    assignment = Ragged.of(_ASSIGNMENT)
    conf = Conference([0, 1.5, 2], _AUTHORSHIP, assignment.flat, assignment.ptr)
    assert isinstance(conf.true_scores, np.ndarray)
    assert conf.true_scores.dtype == np.float64
    assert conf.true_scores.tolist() == [0.0, 1.5, 2.0]
    final, _, _ = review_calib.generate_final_scores(conf, review_calib.get_noise_case("Base"), _rng())
    assert final.shape == (conf.n_slots,)


@pytest.mark.parametrize(
    "scores",
    [np.zeros((3, 1)), [0.0, "1.5", 2.0], [[0.0], [1.0, 2.0], [3.0]], 1.0, [True, False, True]],
    ids=["column", "string-entry", "ragged", "scalar", "bool"],
)
def test_hand_built_true_scores_must_be_a_1d_array_of_numbers(scores):
    assignment = Ragged.of(_ASSIGNMENT)
    with pytest.raises(GenerationError, match="^true_scores must be a 1-d array of numbers$"):
        Conference(scores, _AUTHORSHIP, assignment.flat, assignment.ptr)


# --- the ragged rows type


def test_ragged_of_lists_arrays_and_empty_rows():
    rows = [[3, 1], [], np.array([2], dtype=np.int32), np.array([], dtype=float)]
    ragged = Ragged.of(rows)
    assert ragged.flat.dtype == ragged.ptr.dtype == np.int64
    assert ragged.flat.tolist() == [3, 1, 2] and ragged.ptr.tolist() == [0, 2, 2, 3, 3]
    assert len(ragged) == 4
    assert [row.tolist() for row in ragged] == [[3, 1], [], [2], []]
    assert all(row.dtype == np.int64 for row in ragged)
    assert ragged.sizes.tolist() == [2, 0, 1, 0]
    assert ragged.row_of().tolist() == [0, 0, 2]
    assert Ragged.of(ragged) is ragged
    empty = Ragged.of([])
    assert len(empty) == 0 and list(empty) == [] and empty.ptr.tolist() == [0]
    assert empty.row_of().tolist() == [] and empty.sizes.tolist() == []


@pytest.mark.parametrize(
    "flat, ptr",
    [
        pytest.param(np.array([0.0, 1.0]), [0, 2], id="float-flat"),
        pytest.param(np.array([[0, 1]]), [0, 2], id="2-d-flat"),
        pytest.param([0, 1], [1, 2], id="ptr-not-from-0"),
        pytest.param([0, 1], [0, 1], id="ptr-short-of-flat"),
        pytest.param([0, 1], [0, 3], id="ptr-past-flat"),
        pytest.param([0, 1], [0, 5], id="ptr-far-past-flat"),
        pytest.param([0, 1], [0, 2, 1, 2], id="decreasing-ptr"),
        pytest.param([0, 1], [[0, 2]], id="2-d-ptr"),
        pytest.param([0, 1], [0.0, 2.0], id="float-ptr"),
        pytest.param([0, 1], [], id="empty-ptr"),
    ],
)
def test_ragged_refuses_malformed_layout(flat, ptr):
    # checked when built, so no row reader sees a clipped row or a dropped id
    with pytest.raises(ValueError):
        Ragged(flat, ptr)


def test_ragged_stores_int64_and_of_keeps_a_ragged():
    for dtype in (np.int32, np.uint32):
        ragged = Ragged(np.array([4, 2, 9], dtype=dtype), np.array([0, 2, 3], dtype=dtype))
        assert ragged.flat.dtype == ragged.ptr.dtype == np.int64
        assert [row.tolist() for row in ragged] == [[4, 2], [9]]
        assert Ragged.of(ragged) is ragged
    assert Ragged(np.array([], dtype=float), [0, 0]).flat.dtype == np.int64


def test_ragged_indexing():
    ragged = Ragged(np.array([5, 6, 7]), np.array([0, 1, 1, 3]))
    assert ragged[0].tolist() == [5] and ragged[1].tolist() == [] and ragged[2].tolist() == [6, 7]
    assert ragged[-1].tolist() == [6, 7] and ragged[-3].tolist() == [5]
    assert ragged[np.int64(2)].tolist() == [6, 7]
    for i in (3, -4, 10):
        with pytest.raises(IndexError):
            ragged[i]
    with pytest.raises(IndexError):
        Ragged.of([])[0]
    # a row is a view of the flat array
    assert ragged[2].base is ragged.flat


@pytest.mark.parametrize(
    "rows", [[[0.5]], [[1.0, 2.0]], [["1"]], [[False]], [[[1, 2]]], [3], [[2**70]]],
    ids=["fractional", "integral-float", "string", "bool", "2-d-row", "scalar-row", "beyond-int64"],
)
def test_ragged_refuses_non_integer_rows(rows):
    with pytest.raises(ValueError, match="rows must be integer ids"):
        Ragged.of(rows)


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
        conference_from_json(lists)
    assert str(excinfo.value) == _from_json_message(message)
    with pytest.raises(GenerationError) as excinfo:
        validate_conference_reference(lists)
    assert str(excinfo.value) == message


# built unchecked, authorship naming paper -1 or n, or a reviewer holding a paper twice,
# reached the estimators: an owner row [-1, 0], a paper claimed through a negative index, a
# bare IndexError, and a reviewer scoring paper 0 twice into the ranking [0, 0]
_STRUCTURAL = sorted(name for name, (_, msg) in _INVALID.items() if not msg.startswith("reverse"))


@pytest.mark.parametrize("case", _STRUCTURAL)
def test_hand_built_conference_is_checked_when_built(case):
    kwargs, message = _INVALID[case]
    lists = _small_conf(**kwargs)
    with pytest.raises(GenerationError) as excinfo:
        conference_from_lists(lists["true_scores"], lists["authorship"], lists["assignment"])
    assert str(excinfo.value) == message


def test_unpickling_does_not_re_check(tiny_config, monkeypatch):
    # pool workers receive the conference pickled: it is checked once, in the parent
    calls = []
    check = Conference.validate
    monkeypatch.setattr(Conference, "validate", lambda self: calls.append(self) or check(self))
    conf = gen_conference(tiny_config)
    assert len(calls) == 1
    clone = pickle.loads(pickle.dumps(conf))
    assert len(calls) == 1
    assert clone.to_json_str() == conf.to_json_str()


def test_pickle_leaves_the_bundle_plan_out():
    conf = gen_conference(scaled_config(GenConfig(), 200))
    unbuilt = len(pickle.dumps(conf))
    final = generate_final_scores(conf, NOISE_CASES["Base"], _rng(5))[0]
    clone = pickle.loads(pickle.dumps(conf))
    assert len(pickle.dumps(conf)) == unbuilt
    assert all(not a.flags.writeable for group in clone._bundle_plan[1] for a in group[:4])
    again = generate_final_scores(clone, NOISE_CASES["Base"], _rng(5))[0]
    assert again.tobytes() == final.tobytes()


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
        conference_from_json(_small_conf(**kwargs))
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
    fast = _outcome(conference_from_json, lists)
    if _has_reverse_hole(lists):
        # the reference may accept, wrap or crash here; from_json must refuse
        assert fast is not None and fast != "IndexError"
    else:
        assert fast == _from_json_message(_outcome(validate_conference_reference, lists))
