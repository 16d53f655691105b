"""Small discrete distributions over positive integer supports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, config_float, config_from_json, config_int, config_json


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability distribution on a finite set of positive integers.

    ``values`` must be strictly increasing integers in [1, 2**31 - 1], and
    ``probs`` non-negative finite numbers that sum to 1 (within 1e-9,
    renormalised exactly on use). Both are stored as tuples, of ints and of floats.
    """

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        for name, typed in (("values", config_int), ("probs", config_float)):
            seq = getattr(self, name)
            if not isinstance(seq, tuple):
                raise ConfigurationError(f"distribution {name} must be a tuple, got {seq!r}")
            object.__setattr__(self, name, tuple(typed(v, f"distribution {name}") for v in seq))
        if len(self.values) == 0:
            raise ConfigurationError("distribution support is empty")
        if len(self.values) != len(self.probs):
            raise ConfigurationError("values and probs must have equal length")
        if any(v < 1 for v in self.values):
            raise ConfigurationError(f"support must be positive integers, got {self.values}")
        # sums of up to 2**32 such values fit in int64, so no sampled total overflows
        if any(v > 2**31 - 1 for v in self.values):
            raise ConfigurationError(f"support values must be <= 2**31 - 1, got {self.values}")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigurationError(f"support must be strictly increasing, got {self.values}")
        if any(p < 0 for p in self.probs):
            raise ConfigurationError(f"probabilities must be non-negative, got {self.probs}")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"probabilities sum to {total}, expected 1")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        p = np.asarray(self.probs, dtype=float)
        return rng.choice(np.asarray(self.values, dtype=np.int64), size=size, p=p / p.sum())

    def to_json(self) -> dict:
        return config_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteDistribution":
        return config_from_json(cls, obj, "distribution")

    @classmethod
    def point_mass(cls, value: int) -> "DiscreteDistribution":
        return cls((value,), (1.0,))

    @classmethod
    def uniform(cls, values: tuple[int, ...]) -> "DiscreteDistribution":
        n = len(values)
        return cls(tuple(values), tuple(1.0 / n for _ in range(n)))
