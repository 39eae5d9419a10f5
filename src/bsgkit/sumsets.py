"""Finite subsets of a group: sumsets, doubling, additive energy, and
signed representation counting.

Every quantity here is exact. Each job has one implementation:
``restricted_sumset`` the sums over a hypergraph's edges, ``sumset`` the
set-based kernel for unweighted sums of two sets (``iterated_sumset`` folds
it), ``_code_histogram`` the one histogram kernel (|A+A|, doubling and
energy in ``sum_stats``; through ``_convolve``, which merges its codes per
element, the signed representation counts in ``representation_table``), and
``index_sum`` the sum of the elements at a single index tuple.

The three many-sum kernels add packed ints, not tuples: ``_pack`` gives
every element one int code, with one bit field per coordinate wide enough
that a sum of one code per summand never carries between fields, and a
decoder back to canonical elements. Codes, counts and histograms are Python
ints, so nothing can overflow and no float is involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial, reduce
from itertools import repeat
from operator import add, lt, mod
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from .config import DEFAULT_CONV_CELL_CAP, PAIR_CAP, TUPLE_CAP, require_within_cap
from .errors import (
    ArityMismatchError,
    ConfigInvalidError,
    EmptySetError,
    ShapeMismatchError,
    SpecMismatchError,
    UnsupportedGroupError,
)
from .groups import GroupElem, GroupSpec, elem_from_json, elem_to_json

if TYPE_CHECKING:  # pragma: no cover
    from .hypergraph import Instance


@dataclass(frozen=True)
class ElemSet:
    """Deduplicated set of group elements stored in lexicographic order.

    However it is built, every element has the group's width (else
    ShapeMismatchError); its coordinates are ints, not bools, each cyclic
    one in [0, m); and the elements are strictly increasing (else
    ConfigInvalidError). Each rule runs a coordinate column or the element
    list at a time. The kernels and every Instance trust the set as it is.
    from_iterable is the normalizing constructor: it canonicalizes,
    deduplicates and sorts, a coordinate column at a time.
    """

    spec: GroupSpec
    elems: tuple[GroupElem, ...]

    def __post_init__(self):
        elems, width = self.elems, self.spec.width
        if set(map(len, elems)) - {width}:
            raise ShapeMismatchError(f"an element's width is not {width}")
        for j, (col, m) in enumerate(zip(zip(*elems), self.spec.moduli)):
            if set(map(type, col)) != {int} or m and (min(col) < 0 or max(col) >= m):
                raise ConfigInvalidError(f"coordinate {j} of an element is not canonical mod {m}")
        if not all(map(lt, elems, elems[1:])):
            raise ConfigInvalidError("part elements must be distinct and in canonical sorted order")

    @classmethod
    def from_iterable(cls, spec: GroupSpec, items: Iterable[Sequence[int]]) -> "ElemSet":
        raw, width = list(map(tuple, items)), spec.width
        if set(map(len, raw)) - {width}:
            raise ShapeMismatchError(f"an element's width is not {width}")
        cols = list(zip(*raw))
        for j, (col, m) in enumerate(zip(cols, spec.moduli)):
            if set(map(type, col)) != {int}:  # before reduction turns True into 1
                raise ConfigInvalidError(f"coordinate {j} of an element is not canonical mod {m}")
        cols = [map(mod, col, repeat(m)) if m else col for col, m in zip(cols, spec.moduli)]
        return cls(spec, tuple(sorted(set(zip(*cols)))))

    def __len__(self) -> int:
        return len(self.elems)

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


def _pack(
    spec: GroupSpec, summands: Sequence[Sequence[GroupElem]]
) -> tuple[list[list[int]], Callable[[int], GroupElem]]:
    """Int codes of each summand's elements, and a decoder for any sum made
    of one code per summand.

    Each summand is offset by its minimum at each coordinate, cyclic ones
    included, so every shifted value is non-negative. Coordinate j gets a bit
    field as wide as the summands' spans (max - min) at j add up to, so the
    fields of a sum never carry into each other. The decoder adds the summed
    offsets back and reduces cyclic coordinates.
    """
    columns = [list(zip(*summand)) or [(0,)] * spec.width for summand in summands]
    lows = [[min(col) for col in cols] for cols in columns]
    fields = []  # (shift, mask, summed offset, modulus) per coordinate
    used = 0
    for j, m in enumerate(spec.moduli):
        bits = sum(max(cols[j]) - low[j] for cols, low in zip(columns, lows)).bit_length()
        fields.append((used, (1 << bits) - 1, sum(low[j] for low in lows), m))
        used += bits
    codes = [
        [sum((c - lo) << f[0] for c, lo, f in zip(x, low, fields)) for x in summand]
        for summand, low in zip(summands, lows)
    ]

    def decode(code: int) -> GroupElem:
        out = []
        for shift, mask, offset, m in fields:
            c = ((code >> shift) & mask) + offset
            out.append(c % m if m else c)
        return tuple(out)

    return codes, decode


def _decoded_set(spec: GroupSpec, codes: Iterable[int], decode) -> ElemSet:
    return ElemSet(spec, tuple(sorted({decode(c) for c in codes})))


def sumset(a: ElemSet, b: ElemSet) -> ElemSet:
    """All pairwise sums x + y with x in a, y in b. Raises TooLargeError
    before any addition when |a| * |b| exceeds TUPLE_CAP."""
    _require_same_spec(a, b)
    require_within_cap(
        len(a) * len(b),
        TUPLE_CAP,
        f"additions for the sumset of sets of sizes {len(a)} and {len(b)}",
    )
    (codes_a, codes_b), decode = _pack(a.spec, [a.elems, b.elems])
    return _decoded_set(a.spec, {x + y for x in codes_a for y in codes_b}, decode)


def iterated_sumset(sets: Sequence[ElemSet]) -> ElemSet:
    """Left fold of sumset over one or more sets."""
    if not sets:
        raise EmptySetError("iterated sumset needs at least one set")
    acc = sets[0]
    for nxt in sets[1:]:
        acc = sumset(acc, nxt)
    return acc


def index_sum(spec: GroupSpec, parts: Sequence[ElemSet], index: Sequence[int]) -> GroupElem:
    """parts[0].elems[index[0]] + ... + parts[-1].elems[index[-1]] for a
    single index tuple, folded with GroupSpec.add from the first element, so
    r parts take r - 1 additions. Sums over many tuples go through
    restricted_sumset, which packs the parts once."""
    return reduce(spec.add, [part.elems[v] for part, v in zip(parts, index)])


def sum_stats(a: ElemSet) -> SumStats:
    """|A+A|, |A+A|/|A| and the additive energy, the number of ordered
    quadruples (x, y, x', y') in A^4 with x + y = x' + y', from one pair
    histogram. Raises TooLargeError before any addition when |A|^2 exceeds
    PAIR_CAP."""
    if len(a) == 0:
        raise EmptySetError("statistics of the empty set")
    require_within_cap(
        len(a) ** 2, PAIR_CAP, f"additions for the pair histogram of a set of size {len(a)}"
    )
    ones = dict.fromkeys(a.elems, 1)
    if any(a.spec.moduli):
        counts = _convolve(a.spec, ones, ones).values()
    else:  # no coordinate wraps, so each code is one element
        counts = _code_histogram(a.spec, ones, ones)[0].values()
    size = len(counts)
    return SumStats(
        sumset_size=size,
        doubling=Fraction(size, len(a)),
        energy=sum(c * c for c in counts),
    )


def restricted_sumset(inst: "Instance") -> ElemSet:
    """Sums over edges of the instance hypergraph only: each part's edge
    column is mapped to packed codes and the columns are added code by code,
    giving one code sum per edge; each distinct sum is then decoded once."""
    codes, decode = _pack(inst.spec, [part.elems for part in inst.parts])
    columns = map(map, [code.__getitem__ for code in codes], inst.hypergraph.columns)
    sums = set(reduce(partial(map, add), columns))
    return _decoded_set(inst.spec, sums, decode)


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


def _code_histogram(spec: GroupSpec, acc: dict, hist: dict) -> tuple[dict, Callable]:
    """Histogram of the code sums x + y over two element histograms, each
    weighted by the product of their counts, and the decoder of those codes.
    Distinct codes decode to distinct elements unless a cyclic coordinate
    wraps, so a group with k cyclic coordinates can hold up to 2^k codes per
    element."""
    (codes_a, codes_b), decode = _pack(spec, [list(acc), list(hist)])
    by_code: dict = {}
    get = by_code.get
    pairs_b = list(zip(codes_b, hist.values()))
    for xa, ca in zip(codes_a, acc.values()):
        for xb, cb in pairs_b:
            key = xa + xb
            by_code[key] = get(key, 0) + ca * cb
    return by_code, decode


def _convolve(spec: GroupSpec, acc: dict, hist: dict) -> dict:
    """Histogram of x + y over the two histograms, weighted by the product
    of their counts: the code histogram with codes that decode to the same
    element merged."""
    by_code, decode = _code_histogram(spec, acc, hist)
    out: dict = {}
    for code, count in by_code.items():
        elem = decode(code)
        out[elem] = out.get(elem, 0) + count
    return out


def representation_table(spec: GroupSpec, s_set: ElemSet, r: int) -> dict[GroupElem, int]:
    """Histogram of c_1 + ... + c_{r-1} - c_r - ... - c_{2r-2} + c_{2r-1}
    over all (2r-1)-tuples from s_set, which must belong to spec.

    Computed by r plus-convolutions and r-1 minus-convolutions of the set's
    indicator histogram. Raises ArityMismatchError
    for r < 2, and UnsupportedGroupError when free coordinates make the
    bounding box of attainable sums exceed DEFAULT_CONV_CELL_CAP.
    """
    if r < 2:
        raise ArityMismatchError(f"arity must be >= 2, got {r}")
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
