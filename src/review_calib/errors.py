"""Exception types shared across the toolkit, and the number checks used
when reading a JSON configuration."""

import math


class ConfigurationError(ValueError):
    """A configuration value is invalid or internally inconsistent."""


class GenerationError(RuntimeError):
    """Synthetic-conference generation hit an infeasible constraint."""


def config_int(value, name: str) -> int:
    """``value`` as an int; raises ConfigurationError unless it is an integral number.

    A bool, a string, None and a float with a fractional part are refused
    rather than converted.
    """
    if isinstance(value, bool) or not (
        isinstance(value, int) or isinstance(value, float) and value.is_integer()
    ):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def config_float(value, name: str) -> float:
    """``value`` as a float; raises ConfigurationError unless it is a finite number."""
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)
