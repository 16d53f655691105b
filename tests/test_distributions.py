from __future__ import annotations

import numpy as np
import pytest

from review_calib import ConfigurationError, DiscreteDistribution


def test_sampling_respects_support_and_is_deterministic():
    dist = DiscreteDistribution((2, 4), (0.7, 0.3))
    a = dist.sample(np.random.default_rng(5), 1000)
    b = dist.sample(np.random.default_rng(5), 1000)
    assert set(np.unique(a)) <= {2, 4}
    assert np.array_equal(a, b)


@pytest.mark.parametrize(
    "values,probs",
    [
        ((), ()),
        ((1, 2), (0.5,)),
        ((0, 1), (0.5, 0.5)),
        ((2, 2), (0.5, 0.5)),
        ((3, 1), (0.5, 0.5)),
        ((1, 2), (0.7, 0.7)),
        ((1, 2), (-0.1, 1.1)),
        ((1, 2), (float("nan"), 1.0)),
        ((1, 2), ("0.5", "0.5")),
        ((True,), (1.0,)),
        ((1.5,), (1.0,)),
        ([1, 2], (0.5, 0.5)),
        ((1, 2), None),
        ((2**31,), (1.0,)),
        ((2**63,), (1.0,)),
        ((1e30,), (1.0,)),
    ],
)
def test_invalid_specs_rejected(values, probs):
    with pytest.raises(ConfigurationError):
        DiscreteDistribution(values, probs)


def test_json_round_trip():
    dist = DiscreteDistribution((1, 8), (0.553, 0.447))
    assert DiscreteDistribution.from_json(dist.to_json()) == dist
    with pytest.raises(ConfigurationError, match="unknown distribution option 'weights'"):
        DiscreteDistribution.from_json({"values": [1], "probs": [1.0], "weights": [1]})
    with pytest.raises(ConfigurationError, match="missing distribution option 'probs'"):
        DiscreteDistribution.from_json({"values": [1]})


def test_values_and_probs_are_stored_typed():
    dist = DiscreteDistribution((1.0, np.int64(2)), (1, np.float32(0.0)))
    assert dist == DiscreteDistribution((1, 2), (1.0, 0.0))
    assert [type(v) for v in dist.values + dist.probs] == [int, int, float, float]


def test_point_mass_and_uniform_helpers():
    point = DiscreteDistribution.point_mass(4)
    assert point.values == (4,) and point.probs == (1.0,)
    u = DiscreteDistribution.uniform((3, 4))
    assert u.values == (3, 4) and u.probs == (0.5, 0.5)
