"""Exact inequality reports.

Each checked inequality is stored with both sides as exact integers, already
cross-multiplied so that no rational or irrational arithmetic is left when
they are compared or serialized. Sides are rendered as decimal strings in
JSON since they routinely exceed 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import eq, ge, le

from .jsonio import frac_str


@dataclass(frozen=True)
class Inequality:
    """One exact comparison; lhs and rhs are integers after cross-multiplying."""

    name: str
    relation: str  # "<=", ">=" or "=="
    lhs: int
    rhs: int
    passed: bool
    anchor: str

    def to_json(self) -> dict:
        return {
            "anchor": self.anchor,
            "lhs": frac_str(self.lhs),
            "name": self.name,
            "pass": self.passed,
            "relation": self.relation,
            "rhs": frac_str(self.rhs),
        }


@dataclass(frozen=True)
class BoundReport:
    """Conjunction of exact inequality checks."""

    inequalities: tuple[Inequality, ...]

    @property
    def overall(self) -> bool:
        return all(q.passed for q in self.inequalities)

    def to_json(self) -> dict:
        return {
            "inequalities": [q.to_json() for q in self.inequalities],
            "overall": self.overall,
        }


def _compare(name: str, relation: str, holds, lhs, rhs, anchor: str) -> Inequality:
    """Record lhs `relation` rhs, cross-multiplied to integers, which holds compares."""
    lf, rf = Fraction(lhs), Fraction(rhs)
    left = lf.numerator * rf.denominator
    right = rf.numerator * lf.denominator
    return Inequality(name, relation, left, right, holds(left, right), anchor)


def check_le(name: str, lhs: Fraction | int, rhs: Fraction | int, anchor: str) -> Inequality:
    """Record lhs <= rhs, cross-multiplied to integers."""
    return _compare(name, "<=", le, lhs, rhs, anchor)


def check_ge(name: str, lhs: Fraction | int, rhs: Fraction | int, anchor: str) -> Inequality:
    """Record lhs >= rhs, cross-multiplied to integers."""
    return _compare(name, ">=", ge, lhs, rhs, anchor)


def check_eq(name: str, lhs: int, rhs: int, anchor: str) -> Inequality:
    """Record lhs == rhs; integer sides cross-multiply by a denominator of 1."""
    return _compare(name, "==", eq, lhs, rhs, anchor)
