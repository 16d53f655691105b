"""Exception types shared across the toolkit, and the number checks and
field walks used when reading and writing a JSON configuration."""

import dataclasses
import math
import numbers
import typing


class ConfigurationError(ValueError):
    """A configuration value is invalid or internally inconsistent."""


class GenerationError(RuntimeError):
    """Synthetic-conference generation hit an infeasible constraint."""


def config_int(value, name: str) -> int:
    """``value`` as an int; raises ConfigurationError unless it is an integral number.

    Python and numpy integers and integral floats are accepted; a bool, a
    string, None and a float with a fractional part are refused rather than
    converted.
    """
    if isinstance(value, bool) or not (
        isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
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


def config_json(config) -> dict:
    """The dataclass ``config`` as a JSON object, one key per field in declaration order.

    Tuples become lists, nested ones too, and a value with a ``to_json``
    method is written by it.
    """
    return {f.name: _json_value(getattr(config, f.name)) for f in dataclasses.fields(config)}


def config_from_json(cls, obj, what: str):
    """The dataclass ``cls`` read from the JSON object ``obj``; the inverse of ``config_json``.

    Raises ConfigurationError for anything but a JSON object, for the first
    unknown key in input order and for a missing field that has no default.
    Lists become tuples, nested ones too, and a field whose type has a
    ``from_json`` method is read by it; ``cls`` itself types every value.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{what} config must be a JSON object, got {obj!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    for key in obj:
        if key not in fields:
            raise ConfigurationError(f"unknown {what} option {key!r}")
    for name, f in fields.items():
        if name not in obj and f.default is f.default_factory is dataclasses.MISSING:
            raise ConfigurationError(f"missing {what} option {name!r}")
    hints = typing.get_type_hints(cls)
    return cls(**{k: getattr(hints[k], "from_json", _tuples)(v) for k, v in obj.items()})


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _json_value(value):
    if isinstance(value, (tuple, list)):
        return [_json_value(v) for v in value]
    if hasattr(value, "to_json"):
        return value.to_json()
    return value
