"""Storage and query layer for r-partite r-uniform hypergraphs.

Vertices are identified by (part, position); equal group elements sitting in
different parts are distinct vertices. Edges are ordered index tuples, stored
lexicographically sorted for deterministic iteration; the edge list is the
only per-edge storage. The bipartite flattening against one part uses
integer bitmasks over the mixed-radix index space of the remaining parts,
so a vertex's degree or a pair's codegree is one popcount of ``adj``;
``_strides`` is the one definition of that layout.

Work over the whole edge list runs a coordinate column at a time, with
C-level ``map``/``zip``/``set``/``min``/``max`` in place of a Python loop
per edge. ``build`` validates arity, coordinate types and ranges in bulk
and rescans edge by edge only to name the first bad edge;
``Instance.from_json`` skips ``decode_coord`` when every coordinate is a
plain JSON int; ``flatten``, ``PartiteHypergraph.degree`` and ``induce``
stream columns with ``map(itemgetter(i), edges)``, so no transposed copy of
the edges is held;
``Bipartite.right_degrees`` counts every right vertex in one pass;
``Bipartite.restrict_leading`` cuts a flattening's leading right digits to
kept lists, which is how the general pipeline reads a restricted
hypergraph's flattening without inducing it.

Every vertex index a PartiteHypergraph query takes passes one check,
``_check_vertex``: an int, not a bool, in range; ``Bipartite`` queries apply
the same rule to left and right indices. No hypergraph may span more than
TUPLE_CAP index tuples; the check runs before any tuple is allocated.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, lt, mul
from typing import Iterable, NoReturn, Sequence

from .config import TUPLE_CAP, require_within_cap
from .errors import (
    ArityMismatchError,
    ConfigInvalidError,
    EmptyPartError,
    IndexOutOfRangeError,
    NoEdgesError,
    ShapeMismatchError,
)
from .groups import GroupSpec, elem_from_json
from .jsonio import decode_coord, is_int
from .sumsets import ElemSet


def tuple_total(sizes: Sequence[int]) -> int:
    """Number of index tuples over parts of these sizes; raises TooLargeError
    above TUPLE_CAP, so callers check before they allocate."""
    return require_within_cap(
        math.prod(sizes), TUPLE_CAP, f"index tuples over part sizes {tuple(sizes)}"
    )


def _checked_sizes(r: int, part_sizes: Sequence[int]) -> tuple[int, ...]:
    """r part sizes as a tuple: r >= 2, every size an int (not a bool), and
    their product within TUPLE_CAP."""
    if r < 2:
        raise ArityMismatchError(f"arity must be >= 2, got {r}")
    sizes = tuple(part_sizes)
    for s in sizes:
        if not is_int(s):
            raise ConfigInvalidError(f"part size {s!r} is not an int")
    if len(sizes) != r:
        raise ArityMismatchError(f"{len(sizes)} part sizes for arity {r}")
    tuple_total(sizes)
    return sizes


def _check_index(what: str, v: int, size: int) -> None:
    """Raise unless v is an int (not a bool) in [0, size)."""
    if not is_int(v):
        raise ConfigInvalidError(f"{what} {v!r} is not an int")
    if not 0 <= v < size:
        raise IndexOutOfRangeError(f"{what} {v} out of range [0, {size})")


# Maps the digits of a binary numeral to the byte values 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _strides(shape: Sequence[int]) -> tuple[int, ...]:
    """Mixed-radix place values over shape, most significant digit first, so
    the i-th tuple t of itertools.product(*map(range, shape)) has index
    sum(v * st for v, st in zip(t, strides)) == i."""
    strides = []
    acc = 1
    for s in reversed(shape):
        strides.append(acc)
        acc *= s
    return tuple(reversed(strides))


def _column_valid(col: Sequence, size: int) -> bool:
    """True when every value in col is an int (not a bool) in [0, size), as
    _check_vertex requires; from the set of types present and one min/max."""
    types = set(map(type, col))
    if not all(issubclass(t, int) and not issubclass(t, bool) for t in types):
        return False
    return not col or (0 <= min(col) and max(col) < size)


def _edges_valid(sizes: tuple[int, ...], edges: list[tuple]) -> bool:
    """True when every edge has one valid coordinate per part; checked a
    column at a time, not edge by edge."""
    if not edges:
        return True
    if set(map(len, edges)) != {len(sizes)}:
        return False
    return all(map(_column_valid, zip(*edges), sizes))


def _raise_first_fault(sizes: tuple[int, ...], edge_list: Iterable) -> NoReturn:
    """Raise the error of the first faulty edge in input order: its arity,
    else its first coordinate that is not an int or is out of range."""
    r = len(sizes)
    for raw in edge_list:
        e = tuple(raw)
        if len(e) != r:
            raise ArityMismatchError(f"edge {e} has arity {len(e)}, expected {r}")
        for i, v in enumerate(e):
            if not is_int(v):
                raise ConfigInvalidError(f"edge {e}: coordinate {v!r} is not an int")
            if not 0 <= v < sizes[i]:
                raise IndexOutOfRangeError(
                    f"edge {e}: index {v} out of range [0, {sizes[i]}) in part {i}"
                )
    raise AssertionError("bulk edge validation failed on edges that pass one by one")


@dataclass(frozen=True)
class Bipartite:
    """Left vertices against the product of the remaining parts.

    Right vertices are indexed 0..right_size-1 in mixed radix over
    ``right_shape`` (most significant digit first); labels are materialized
    lazily. ``adj[v]`` is a bitmask of right indices adjacent to left v.
    """

    left_size: int
    right_shape: tuple[int, ...]
    adj: tuple[int, ...]

    @property
    def right_size(self) -> int:
        return math.prod(self.right_shape)

    @cached_property
    def _right_strides(self) -> tuple[int, ...]:
        return _strides(self.right_shape)

    def right_label(self, index: int) -> tuple[int, ...]:
        _check_index("right vertex", index, self.right_size)
        out = []
        for st in self._right_strides:
            out.append(index // st)
            index %= st
        return tuple(out)

    @cached_property
    def right_degrees(self) -> tuple[int, ...]:
        """Degree of every right vertex, from one pass over the masks: each
        mask becomes a row of 0/1 bytes, most significant bit first, and the
        rows are summed a column at a time."""
        size = self.right_size
        if not self.adj or not size:
            return (0,) * size
        rows = [format(mask, f"0{size}b").encode().translate(_BIT_BYTES) for mask in self.adj]
        return tuple(map(sum, zip(*rows)))[::-1]

    def left_neighbors(self, z: int) -> list[int]:
        _check_index("right vertex", z, self.right_size)
        bit = 1 << z
        return [v for v, mask in enumerate(self.adj) if mask & bit]

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj)

    def restrict_leading(self, kept: Sequence[Sequence[int]]) -> "Bipartite":
        """The flattening with its leading right digits cut to kept lists.

        kept[d] lists the indices of right digit d that stay, strictly
        increasing; the digits after len(kept) stay whole. The leading digits
        are the most significant, so each cut row is a concatenation of whole
        blocks of prod(right_shape[len(kept):]) bits, one block per kept
        prefix in lexicographic order. On h.flatten(s) with len(kept) <= s
        this is h.induce(kept + whole parts).flatten(s). With no lists the
        flattening itself is returned.
        """
        lists = [tuple(digits) for digits in kept]
        if not lists:
            return self
        lead = len(lists)
        if lead > len(self.right_shape):
            raise ArityMismatchError(
                f"{lead} kept lists for {len(self.right_shape)} right digits"
            )
        offsets = [0]  # right index of each kept prefix, in lexicographic order
        for d, (digits, radix) in enumerate(zip(lists, self.right_shape)):
            for v in digits:
                _check_index(f"right digit {d} index", v, radix)
            if not all(map(lt, digits, digits[1:])):
                raise ConfigInvalidError(
                    f"kept indices of right digit {d} are not strictly increasing"
                )
            offsets = [o * radix + v for o in offsets for v in digits]
        shape = tuple(map(len, lists)) + self.right_shape[lead:]
        size = self.right_size
        block = math.prod(self.right_shape[lead:])
        # in a binary numeral, most significant bit first, the block of prefix
        # o spans characters size - (o + 1) * block to size - o * block
        starts = [size - (o + 1) * block for o in reversed(offsets)]
        adj = []
        for mask in self.adj:
            bits = format(mask, f"0{size}b")
            row = "".join([bits[i : i + block] for i in starts])
            adj.append(int(row, 2) if row else 0)
        return Bipartite(self.left_size, shape, tuple(adj))


@dataclass(frozen=True)
class PartiteHypergraph:
    """r-partite r-uniform hypergraph on indexed parts."""

    r: int
    part_sizes: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]  # lex sorted, deduplicated

    def __post_init__(self):
        if self.r < 2:
            raise ArityMismatchError(f"arity must be >= 2, got {self.r}")
        if len(self.part_sizes) != self.r:
            raise ArityMismatchError(
                f"{len(self.part_sizes)} part sizes for arity {self.r}"
            )

    @classmethod
    def build(
        cls,
        r: int,
        part_sizes: Sequence[int],
        edge_list: Iterable[Sequence[int]],
    ) -> "PartiteHypergraph":
        """Validate, deduplicate and sort an edge list.

        The arity, part sizes and coordinates must be ints; a bool, float or
        any other value raises ConfigInvalidError naming it, with no rounding.
        The edges are checked in bulk; on a fault, _raise_first_fault names
        the first bad edge in input order.
        """
        if not is_int(r):
            raise ConfigInvalidError(f"arity {r!r} is not an int")
        sizes = _checked_sizes(r, part_sizes)
        raw = list(edge_list)
        try:
            edges = list(map(tuple, raw))
        except TypeError:  # an edge that is not iterable
            _raise_first_fault(sizes, raw)
        if not _edges_valid(sizes, edges):
            _raise_first_fault(sizes, raw)
        # dict.fromkeys keeps each edge's first occurrence in input order, as
        # a set would, and leaves sorted input in order for a linear sort
        return cls(r, sizes, tuple(sorted(dict.fromkeys(edges))))

    @classmethod
    def complete(cls, part_sizes: Sequence[int]) -> "PartiteHypergraph":
        """Every index tuple over parts of these sizes, checked as in build."""
        sizes = _checked_sizes(len(part_sizes), part_sizes)
        return cls(len(sizes), sizes, tuple(itertools.product(*map(range, sizes))))

    @cached_property
    def _flat_cache(self) -> dict:
        return {}

    @cached_property
    def _degree_cache(self) -> dict:
        return {}

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_tuples(self) -> int:
        return math.prod(self.part_sizes)

    def _check_part(self, i: int) -> None:
        if not 0 <= i < self.r:
            raise IndexOutOfRangeError(f"part {i} out of range [0, {self.r})")

    def _check_vertex(self, i: int, v: int) -> None:
        """Raise unless v is an int (not a bool) indexing part i."""
        self._check_part(i)
        if not is_int(v):
            raise ConfigInvalidError(f"vertex {v!r} in part {i} is not an int")
        if not 0 <= v < self.part_sizes[i]:
            raise IndexOutOfRangeError(
                f"vertex {v} out of range [0, {self.part_sizes[i]}) in part {i}"
            )

    def density(self) -> Fraction:
        """|E| / (product of part sizes)."""
        if any(s == 0 for s in self.part_sizes):
            raise EmptyPartError("density requires all parts non-empty")
        return Fraction(self.edge_count, self.total_tuples)

    def measured_k(self) -> Fraction:
        """Reciprocal density: the tightest density parameter this graph satisfies."""
        if self.edge_count == 0:
            raise NoEdgesError("edge set is empty")
        return Fraction(self.total_tuples, self.edge_count)

    def degree(self, i: int, v: int) -> int:
        """Number of edges through vertex v of part i, from a count of part
        i's coordinates made on first use."""
        self._check_vertex(i, v)
        counts = self._degree_cache.get(i)
        if counts is None:
            counts = self._degree_cache[i] = Counter(map(itemgetter(i), self.edges))
        return counts[v]

    def flatten(self, i: int) -> Bipartite:
        """Bipartite view: part i against the full product of the other parts."""
        self._check_part(i)
        cached = self._flat_cache.get(i)
        if cached is not None:
            return cached
        right_shape = self.part_sizes[:i] + self.part_sizes[i + 1 :]
        rest = [j for j in range(self.r) if j != i]
        # right indices column by column; the last remaining part has stride 1
        idx = map(itemgetter(rest[-1]), self.edges)
        for j, st in zip(rest[:-1], _strides(right_shape)):
            idx = map(add, map(mul, map(itemgetter(j), self.edges), itertools.repeat(st)), idx)
        masks = [0] * self.part_sizes[i]
        for v, z in zip(map(itemgetter(i), self.edges), idx):
            masks[v] |= 1 << z
        flat = Bipartite(self.part_sizes[i], right_shape, tuple(masks))
        self._flat_cache[i] = flat
        return flat

    # no package path calls induce; it stays because perfbench/tracing.py wraps it by name
    def induce(self, subsets: Sequence[Sequence[int]]) -> "PartiteHypergraph":
        """Edges with all coordinates inside the chosen per-part subsets.

        Vertices are reindexed by rank inside each (sorted, deduplicated)
        subset; the subsets themselves are the old-to-new mapping. Each
        coordinate column is mapped through its part's rank list, which
        holds None for the vertices left out.
        """
        if len(subsets) != self.r:
            raise ArityMismatchError(f"{len(subsets)} subsets for arity {self.r}")
        ranks: list[list[int | None]] = []
        sizes: list[int] = []
        for i, subset in enumerate(map(tuple, subsets)):
            for v in subset:
                self._check_vertex(i, v)
            ordered = sorted(set(subset))
            rank: list[int | None] = [None] * self.part_sizes[i]
            for k, v in enumerate(ordered):
                rank[v] = k
            ranks.append(rank)
            sizes.append(len(ordered))
        columns = [
            map(rank.__getitem__, map(itemgetter(j), self.edges)) for j, rank in enumerate(ranks)
        ]
        # ranks are increasing, so the kept edges stay lexicographic
        new_edges = tuple(e for e in zip(*columns) if None not in e)
        return PartiteHypergraph(self.r, tuple(sizes), new_edges)

    def is_complete(self) -> bool:
        return self.edge_count == self.total_tuples and self.edge_count > 0


@dataclass(frozen=True)
class Instance:
    """r ground sets of group elements plus a hypergraph over their indices.

    However it is built, each part must hold canonical elements (one int per
    modulus, each modular one in [0, m), checked a coordinate column at a time
    over every part) in strictly increasing order; else ShapeMismatchError or
    ConfigInvalidError.
    """

    spec: GroupSpec
    parts: tuple[ElemSet, ...]
    hypergraph: PartiteHypergraph
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ArityMismatchError("an instance needs at least 2 parts")
        if self.hypergraph.r != len(self.parts):
            raise ArityMismatchError(
                f"hypergraph arity {self.hypergraph.r} != {len(self.parts)} parts"
            )
        elems = [e for part in self.parts for e in part.elems]
        if set(map(len, elems)) - {self.spec.width}:
            raise ShapeMismatchError(f"an element's width is not {self.spec.width}")
        for j, (col, m) in enumerate(zip(zip(*elems), self.spec.moduli)):
            if set(map(type, col)) != {int} or m and (min(col) < 0 or max(col) >= m):
                raise ConfigInvalidError(f"coordinate {j} of an element is not canonical mod {m}")
        for i, part in enumerate(self.parts):
            if part.spec != self.spec:
                raise ArityMismatchError(f"part {i} belongs to a different group")
            if not all(map(lt, part.elems, part.elems[1:])):
                raise ConfigInvalidError(
                    "part elements must be distinct and in canonical sorted order"
                )
            if self.hypergraph.part_sizes[i] != len(part):
                raise ArityMismatchError(
                    f"part {i} has {len(part)} elements but hypergraph size "
                    f"{self.hypergraph.part_sizes[i]}"
                )

    @property
    def r(self) -> int:
        return len(self.parts)

    @property
    def part_sizes(self) -> tuple[int, ...]:
        return self.hypergraph.part_sizes

    def subset_elemsets(self, subsets: Sequence[Sequence[int]]) -> tuple[ElemSet, ...]:
        """Index subsets per part, materialized as element sets."""
        if len(subsets) != self.r:
            raise ArityMismatchError(f"{len(subsets)} subsets for {self.r} parts")
        out = []
        for i, subset in enumerate(subsets):
            part = self.parts[i]
            for v in subset:
                self.hypergraph._check_vertex(i, v)
            out.append(ElemSet.from_iterable(self.spec, (part.elems[v] for v in subset)))
        return tuple(out)

    def to_json(self) -> dict:
        edges: object
        if self.hypergraph.is_complete():
            edges = "complete"
        else:
            edges = [list(e) for e in self.hypergraph.edges]
        data: dict = {
            "group": self.spec.to_json(),
            "parts": [p.to_json() for p in self.parts],
            "edges": edges,
        }
        if self.meta is not None:
            data["meta"] = self.meta
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Instance":
        spec = GroupSpec.from_json(data["group"])
        parts = [
            ElemSet(spec, tuple(elem_from_json(spec, e) for e in raw)) for raw in data["parts"]
        ]
        sizes = [len(p) for p in parts]
        raw_edges = data["edges"]
        if raw_edges == "complete":
            hg = PartiteHypergraph.complete(sizes)
        else:
            try:  # plain JSON ints need no decoding
                plain = set(map(type, itertools.chain.from_iterable(raw_edges))) <= {int}
            except TypeError:
                plain = False
            if not plain:
                raw_edges = [[decode_coord(v) for v in e] for e in raw_edges]
            hg = PartiteHypergraph.build(len(parts), sizes, raw_edges)
        return cls(spec, tuple(parts), hg, meta=data.get("meta"))
