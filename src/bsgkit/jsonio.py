"""Canonical JSON helpers: sorted keys, compact separators, exact numbers.

Integer coordinates small enough for IEEE doubles are emitted as JSON
numbers; anything at or beyond 2^53 in magnitude is emitted as a decimal
string so values survive round-trips through double-based JSON parsers.
Counts and inequality sides are always decimal strings, of any size.
Rationals travel as "p/q" strings and decimal notation is rejected on input
so no rounding can sneak in through a command line or file.
"""

from __future__ import annotations

import json
from decimal import Decimal
from fractions import Fraction

from .errors import ConfigInvalidError

_SAFE_INT_BOUND = 1 << 53


def canonical_dumps(obj) -> str:
    """Serialize with sorted keys and no whitespace; single trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def encode_coord(x: int):
    """Encode an integer coordinate, switching to a string beyond 2^53."""
    if -_SAFE_INT_BOUND < x < _SAFE_INT_BOUND:
        return x
    return str(x)


def decode_coord(value) -> int:
    if isinstance(value, bool):
        raise ConfigInvalidError("boolean is not a valid coordinate")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 10)
        except ValueError as exc:
            raise ConfigInvalidError(f"coordinate string {value!r} is not an integer") from exc
    raise ConfigInvalidError(f"coordinate must be an integer or decimal string, got {type(value).__name__}")


def frac_str(value: Fraction | int) -> str:
    """Exact "p/q" rendering of any size; integers render without the
    denominator. The digits come from decimal.Decimal, which converts an int
    exactly and is not bound by CPython's int-to-str digit limit."""
    n, d = value.as_integer_ratio()
    p = str(Decimal(n))
    return p if d == 1 else f"{p}/{Decimal(d)}"


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" or "p". Decimal and scientific notation are rejected."""
    if not isinstance(text, str):
        raise ConfigInvalidError(f"rational {text!r} must be a \"p/q\" string")
    s = text.strip()
    if not s:
        raise ConfigInvalidError("empty rational")
    if any(c in s for c in ".eE"):
        raise ConfigInvalidError(f"rational {text!r} must be written as p/q, not a decimal")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigInvalidError(f"cannot parse rational {text!r}") from exc


def is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def exact_param(name: str, value, sentinel: str | None) -> Fraction | str:
    """An int or Fraction parameter as a Fraction; the sentinel string
    ("measured" or "auto"), if any, passes through. Anything else, a bool
    or float included, raises ConfigInvalidError naming the parameter."""
    if sentinel is not None and value == sentinel:
        return value
    if isinstance(value, Fraction) or is_int(value):
        return Fraction(value)
    also = f" or {sentinel!r}" if sentinel is not None else ""
    raise ConfigInvalidError(f"{name} must be an int or Fraction{also}, got {value!r}")
