"""Typed readers of input values: scenario JSON, field specs and flags.

Each reader returns the value as the type asked for or raises a
ScenarioError whose message names the key, so that no input of the wrong
type reaches a bare ``int()`` or ``float()``.
"""

from __future__ import annotations

import math


class ScenarioError(ValueError):
    """Malformed or inconsistent scenario input."""


def _require(cond, msg):
    if not cond:
        raise ScenarioError(msg)


def _number(value, what: str) -> float:
    """`value` as a float: a number, not a boolean or a numeric string."""
    if not isinstance(value, (bool, str)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{what} must be a number, got {value!r}")


def _integer(value, what: str, lo: int | None = None) -> int:
    """`value` as an int: a JSON integer, or a number with an integral value,
    refused below `lo` when given."""
    if not (type(value) is int or (type(value) is float and value.is_integer())):
        raise ScenarioError(f"{what} must be an integer, got {value!r}")
    value = int(value)
    _require(lo is None or value >= lo, f"{what} must be >= {lo}, got {value}")
    return value


def _list(value, what: str) -> list:
    _require(isinstance(value, (list, tuple)), f"{what} must be a list, got {value!r}")
    return value


def _positive(value, what: str) -> float:
    """`value` as a float, refused unless finite and strictly positive."""
    value = _number(value, what)
    _require(0.0 < value < math.inf, f"{what} must be finite and positive, got {value!r}")
    return value


def _name(value, what: str) -> str:
    """`value` as a name that becomes part of an output file name: a
    nonempty string, not `.` or `..`, holding no `/`, `\\` or NUL."""
    _require(isinstance(value, str) and value not in ("", ".", "..")
             and not any(c in value for c in "/\\\0"),
             f"{what} must be a nonempty string without '/', '\\', NUL, "
             f"'.' or '..' (it names output files), got {value!r}")
    return value
