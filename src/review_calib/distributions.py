"""Small discrete distributions over positive integer supports."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, config_float, config_int, config_json


@dataclass(frozen=True)
class DiscreteDistribution:
    """Probability distribution on a finite set of positive integers.

    ``values`` must be strictly increasing positive integers; ``probs`` must
    be non-negative and sum to 1 (within 1e-9, renormalised exactly on use).
    """

    values: tuple[int, ...]
    probs: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) == 0:
            raise ConfigurationError("distribution support is empty")
        if len(self.values) != len(self.probs):
            raise ConfigurationError("values and probs must have equal length")
        vals = self.values
        if any(int(v) != v or v < 1 for v in vals):
            raise ConfigurationError(f"support must be positive integers, got {vals}")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ConfigurationError(f"support must be strictly increasing, got {vals}")
        if any(p < 0 for p in self.probs):
            raise ConfigurationError(f"probabilities must be non-negative, got {self.probs}")
        total = sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"probabilities sum to {total}, expected 1")

    def _prob_array(self) -> np.ndarray:
        p = np.asarray(self.probs, dtype=float)
        return p / p.sum()

    def mean(self) -> float:
        return float(np.dot(self.values, self._prob_array()))

    @property
    def min_value(self) -> int:
        return self.values[0]

    @property
    def max_value(self) -> int:
        return self.values[-1]

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.choice(np.asarray(self.values, dtype=np.int64), size=size, p=self._prob_array())

    def to_json(self) -> dict:
        return config_json(self)

    @classmethod
    def from_json(cls, obj: dict) -> "DiscreteDistribution":
        try:
            values = tuple(config_int(v, "distribution value") for v in obj["values"])
            return cls(values, tuple(config_float(p, "distribution probability") for p in obj["probs"]))
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"bad distribution spec {obj!r}: {exc}") from exc

    @classmethod
    def point_mass(cls, value: int) -> "DiscreteDistribution":
        return cls((value,), (1.0,))

    @classmethod
    def uniform(cls, values: tuple[int, ...]) -> "DiscreteDistribution":
        n = len(values)
        return cls(tuple(values), tuple(1.0 / n for _ in range(n)))
