"""Exact arithmetic in finitely generated abelian groups.

A group is described by per-coordinate moduli: 0 marks a free integer
coordinate, m >= 2 marks the cyclic group of order m. Elements are plain
tuples of Python ints kept in canonical form (modular coordinates reduced
into [0, m)), so element equality is structural, hashing is exact, and the
builtin tuple ordering is the total lexicographic order used everywhere a
deterministic iteration order is needed. All values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConfigInvalidError, InvalidModulusError, ShapeMismatchError
from .jsonio import decode_coord, encode_coord, is_int

GroupElem = tuple  # tuple[int, ...], canonical form


@dataclass(frozen=True)
class GroupSpec:
    """Direct product of free and cyclic integer coordinates."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if len(self.moduli) == 0:
            raise InvalidModulusError(0, -1)
        for j, m in enumerate(self.moduli):
            if not is_int(m):
                raise ConfigInvalidError(f"modulus {m!r} at coordinate {j} is not an int")
            if m < 0 or m == 1:
                raise InvalidModulusError(j, m)

    @property
    def width(self) -> int:
        return len(self.moduli)

    def identity(self) -> GroupElem:
        return (0,) * self.width

    def canon(self, coords: Sequence[int]) -> GroupElem:
        """Reduce modular coordinates into [0, m); free coordinates pass through."""
        if len(coords) != self.width:
            raise ShapeMismatchError(
                f"element has {len(coords)} coordinates, spec has {self.width}"
            )
        return tuple(c % m if m else c for c, m in zip(coords, self.moduli))

    def add(self, a: GroupElem, b: GroupElem) -> GroupElem:
        if len(a) != self.width or len(b) != self.width:
            raise ShapeMismatchError(
                f"operands have {len(a)} and {len(b)} coordinates, spec has {self.width}"
            )
        return tuple(
            (x + y) % m if m else x + y for x, y, m in zip(a, b, self.moduli)
        )

    def neg(self, a: GroupElem) -> GroupElem:
        if len(a) != self.width:
            raise ShapeMismatchError(
                f"operand has {len(a)} coordinates, spec has {self.width}"
            )
        return tuple((-x) % m if m else -x for x, m in zip(a, self.moduli))

    def to_json(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_json(cls, data: dict) -> "GroupSpec":
        return cls(tuple(data["moduli"]))


def make_group(moduli: Sequence[int]) -> GroupSpec:
    """Build a GroupSpec, rejecting any modulus that is not an int, is 1 or
    is negative."""
    return GroupSpec(tuple(moduli))


def elem_to_json(elem: GroupElem) -> list:
    return [encode_coord(c) for c in elem]


def elem_from_json(spec: GroupSpec, data: Sequence) -> GroupElem:
    return spec.canon([decode_coord(c) for c in data])
