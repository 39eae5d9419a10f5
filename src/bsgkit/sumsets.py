"""Finite subsets of a group: sumsets, doubling, additive energy, and
signed representation counting.

Every quantity here is exact. Each job has one implementation: ``sumset``
is the set-based kernel for unweighted sums, ``_convolve`` the one
histogram kernel (|A+A|, doubling and energy in ``sum_stats``, signed
representation counts in ``representation_table``), and ``index_sum`` the
one sum of the elements at an index tuple. Histograms hold Python ints, so
counts cannot overflow and no float is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import TYPE_CHECKING, Iterable, Sequence

from .config import DEFAULT_CONV_CELL_CAP
from .errors import EmptySetError, SpecMismatchError, UnsupportedGroupError
from .groups import GroupElem, GroupSpec, elem_from_json, elem_to_json

if TYPE_CHECKING:  # pragma: no cover
    from .hypergraph import Instance


@dataclass(frozen=True)
class ElemSet:
    """Deduplicated set of group elements stored in lexicographic order."""

    spec: GroupSpec
    elems: tuple[GroupElem, ...]

    @classmethod
    def from_iterable(cls, spec: GroupSpec, items: Iterable[Sequence[int]]) -> "ElemSet":
        canon = {spec.canon(tuple(e)) for e in items}
        return cls(spec, tuple(sorted(canon)))

    @cached_property
    def _as_set(self) -> frozenset:
        return frozenset(self.elems)

    def __len__(self) -> int:
        return len(self.elems)

    def __iter__(self):
        return iter(self.elems)

    def __contains__(self, elem) -> bool:
        return elem in self._as_set

    def to_json(self) -> list:
        return [elem_to_json(e) for e in self.elems]

    @classmethod
    def from_json(cls, spec: GroupSpec, data: Sequence) -> "ElemSet":
        return cls.from_iterable(spec, (elem_from_json(spec, e) for e in data))


@dataclass(frozen=True)
class SumStats:
    """Exact sumset statistics of one set: |A+A|, |A+A|/|A|, energy."""

    sumset_size: int
    doubling: Fraction
    energy: int


def _require_same_spec(a: ElemSet, b: ElemSet) -> None:
    if a.spec != b.spec:
        raise SpecMismatchError("sets belong to different groups")


def sumset(a: ElemSet, b: ElemSet) -> ElemSet:
    """All pairwise sums x + y with x in a, y in b."""
    _require_same_spec(a, b)
    spec = a.spec
    out = {spec.add(x, y) for x in a.elems for y in b.elems}
    return ElemSet(spec, tuple(sorted(out)))


def iterated_sumset(sets: Sequence[ElemSet]) -> ElemSet:
    """Left fold of sumset over one or more sets."""
    if not sets:
        raise EmptySetError("iterated sumset needs at least one set")
    acc = sets[0]
    for nxt in sets[1:]:
        acc = sumset(acc, nxt)
    return acc


def index_sum(spec: GroupSpec, parts: Sequence[ElemSet], index: Sequence[int]) -> GroupElem:
    """parts[0].elems[index[0]] + ... + parts[-1].elems[index[-1]], folded
    from the first element, so r parts take r - 1 additions."""
    return reduce(spec.add, [part.elems[v] for part, v in zip(parts, index)])


def sum_stats(a: ElemSet) -> SumStats:
    """|A+A|, |A+A|/|A| and the additive energy, the number of ordered
    quadruples (x, y, x', y') in A^4 with x + y = x' + y', from one pair
    histogram."""
    if len(a) == 0:
        raise EmptySetError("statistics of the empty set")
    ones = dict.fromkeys(a.elems, 1)
    hist = _convolve(a.spec, ones, ones)
    return SumStats(
        sumset_size=len(hist),
        doubling=Fraction(len(hist), len(a)),
        energy=sum(c * c for c in hist.values()),
    )


def restricted_sumset(inst: "Instance") -> ElemSet:
    """Sums over edges of the instance hypergraph only."""
    spec = inst.spec
    parts = inst.parts
    out = {index_sum(spec, parts, edge) for edge in inst.hypergraph.edges}
    return ElemSet(spec, tuple(sorted(out)))


def _free_box_cells(spec: GroupSpec, elems: Sequence[GroupElem], r: int) -> int:
    """Cell count of the bounding box of all signed (2r-1)-term sums."""
    cells = 1
    for j, m in enumerate(spec.moduli):
        if m:
            cells *= m
        else:
            lo = min(e[j] for e in elems)
            hi = max(e[j] for e in elems)
            # r positive terms and r-1 negated terms span this interval width.
            cells *= (2 * r - 1) * (hi - lo) + 1
    return cells


def _convolve(spec: GroupSpec, acc: dict, hist: dict) -> dict:
    out: dict = {}
    add = spec.add
    for ea, ca in acc.items():
        for eb, cb in hist.items():
            key = add(ea, eb)
            out[key] = out.get(key, 0) + ca * cb
    return out


def representation_table(spec: GroupSpec, s_set: ElemSet, r: int) -> dict[GroupElem, int]:
    """Histogram of c_1 + ... + c_{r-1} - c_r - ... - c_{2r-2} + c_{2r-1}
    over all (2r-1)-tuples from s_set, which must belong to spec.

    Computed by r plus-convolutions and r-1 minus-convolutions of the set's
    indicator histogram. Raises UnsupportedGroupError when free coordinates
    make the bounding box of attainable sums exceed DEFAULT_CONV_CELL_CAP.
    """
    if r < 2:
        raise ValueError(f"arity must be >= 2, got {r}")
    if s_set.spec != spec:
        raise SpecMismatchError("set belongs to a different group")
    elems = s_set.elems
    if not elems:
        return {}
    if any(m == 0 for m in spec.moduli):
        cells = _free_box_cells(spec, elems, r)
        if cells > DEFAULT_CONV_CELL_CAP:
            raise UnsupportedGroupError(
                f"convolution bounding box has {cells} cells, cap is {DEFAULT_CONV_CELL_CAP}"
            )
    plus = {e: 1 for e in elems}
    minus = {spec.neg(e): 1 for e in elems}
    acc = {spec.identity(): 1}
    for _ in range(r - 1):
        acc = _convolve(spec, acc, plus)
    for _ in range(r - 1):
        acc = _convolve(spec, acc, minus)
    return _convolve(spec, acc, plus)


def representation_count(spec: GroupSpec, s_set: ElemSet, s: GroupElem, r: int) -> int:
    """Number of (2r-1)-tuples from the set whose signed sum equals s."""
    table = representation_table(spec, s_set, r)
    return table.get(spec.canon(tuple(s)), 0)
