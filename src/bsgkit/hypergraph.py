"""Storage and query layer for r-partite r-uniform hypergraphs.

Vertices are identified by (part, position); equal group elements sitting in
different parts are distinct vertices. The edge set is stored as one
``array`` column per part, ``columns[j][e]`` being edge e's index in part j,
with the edges in lexicographic order and no repeats; each column uses the
smallest unsigned type code that holds its part's indices. The columns are
the only per-edge storage: ``edges``, the tuples, is a view built on each
read for tests, and no package path reads it. The bipartite
flattening against one part uses integer bitmasks over the mixed-radix
index space of the remaining parts, so a vertex's degree or a pair's
codegree is one popcount of ``adj``; ``_strides`` is the one definition of
that layout.

Work over the whole edge set runs a column at a time, with C-level
``map``/``zip``/``set``/``min``/``max`` in place of a Python loop per edge.
``build`` and ``Instance.from_json`` load an edge list in one pass over its
columns (``_edge_columns``): one arity check, then per column one type set,
one unsigned 4-byte array (which refuses a negative or wide coordinate) and
one max; Horner's rule over those arrays, read as ints of 4-byte fields,
gives every edge's lexicographic index, and input already sorted without
repeats, as every written instance file is, is stored as it is, without a
sort; other input is sorted by index and cut by ``_index_columns``, as the
generator's indices are. ``_rescanned_edges`` rescans edge by edge only
when that pass fails, to name the first bad edge (or to read non-sequences).
``from_json`` makes no scan of its own: it decodes coordinates written as
decimal strings only when the pass fails, then builds from the decoded
list. ``flatten``, ``PartiteHypergraph.degree`` and ``induce`` read the
columns directly; ``Bipartite.right_degrees`` counts every right vertex in
one pass; ``Bipartite.restrict_leading`` cuts a flattening's leading right
digits to kept lists, which is how the general pipeline reads a
restricted hypergraph's flattening without inducing it.

``Instance.from_json`` decodes each part's elements a coordinate column at
a time (``groups._elems_from_json``). A string where a list belongs, other
than ``"complete"`` edges, is refused, not read one character per entry.

A hypergraph's shape (an int arity r >= 2, one int size >= 0 per part, at
most TUPLE_CAP index tuples) has one check, ``_check_shape``; the
PartiteHypergraph constructor runs it, and also refuses a number of
columns other than r, and ``build``, ``complete`` and ``from_json`` run it
before they touch an edge. Every vertex index passes one rule, an int (not a bool) in
range: ``_check_vertex`` checks one vertex, and ``_check_box`` a
box of one vertex list per part (a support is a box of singletons); it
raises ArityMismatchError on a wrong number of lists and checks each list
in bulk with ``_column_valid``, rescanning it only to name a bad vertex.
``Bipartite`` queries apply the same rule to left and right indices, to
``restrict_leading``'s kept lists in bulk first. An ``Instance`` checks
that its parts are of its group and of the hypergraph's arity and part
sizes; each part, an ``ElemSet``, checks its own elements.
"""

from __future__ import annotations

import itertools
import math
import sys
from array import array
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter, lt, mul
from typing import Iterable, Sequence

from .config import TUPLE_CAP, require_within_cap
from .errors import (
    ArityMismatchError,
    ConfigInvalidError,
    EmptyPartError,
    IndexOutOfRangeError,
    NoEdgesError,
)
from .groups import GroupSpec, _elems_from_json
from .jsonio import decode_coord, is_int
from .sumsets import ElemSet


def tuple_total(sizes: Sequence[int]) -> int:
    """Number of index tuples over parts of these sizes; raises TooLargeError
    above TUPLE_CAP, so callers check before they allocate."""
    return require_within_cap(
        math.prod(sizes), TUPLE_CAP, f"index tuples over part sizes {tuple(sizes)}"
    )


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


# array type codes of the unsigned item sizes 1, 2, 4 and 8 bytes, smallest first
_UINT_CODES = {array(code).itemsize: code for code in "BHILQ"}
# (number of indices an item holds, type code) per item size, smallest first
_CODE_LIMITS = tuple((1 << 8 * item, code) for item, code in _UINT_CODES.items())
# the item of the arrays an edge list is first read into; every index fits,
# since a part with an edge has at most TUPLE_CAP < 2^31 vertices
_WIDE = _UINT_CODES[4]


def _column_code(size: int) -> str:
    """Type code of the smallest unsigned array item that holds every index
    of a part of this size."""
    for limit, code in _CODE_LIMITS:
        if size <= limit:
            return code
    return _UINT_CODES[8]


def _edge_columns(sizes: tuple[int, ...], raw) -> tuple[array, ...] | None:
    """The edges of the list raw as one column per part, lexicographically
    sorted without repeats, or None unless every edge has one int (not bool)
    coordinate in range per part.

    One arity check, then per column one type set, one 4-byte array (which
    raises OverflowError on a negative or wider coordinate) and one max.
    Read as an int of 4-byte fields, column j holds every edge's part-j
    index at once, so Horner's rule over the columns leaves each edge's
    lexicographic index in its field; no field carries, since each index is
    below TUPLE_CAP. Input whose indices already increase strictly is stored
    as it is, each column narrowed to its part's type code; other input is
    sorted and deduplicated by index.
    """
    if not isinstance(raw, list):
        return None
    if not raw:
        return tuple(array(_column_code(s)) for s in sizes)
    try:
        if set(map(len, raw)) != {len(sizes)}:
            return None
        wides = []
        index = 0
        for j, size in enumerate(sizes):
            col = list(map(itemgetter(j), raw))
            types = set(map(type, col))
            if types != {int} and not all(
                issubclass(t, int) and not issubclass(t, bool) for t in types
            ):
                return None
            wide = array(_WIDE, col)
            if max(col) >= size:
                return None
            wides.append(wide)
            index = index * size + int.from_bytes(wide, sys.byteorder)
    except (TypeError, LookupError, OverflowError):  # an edge without len or items; a wide index
        return None
    if _increasing(index, len(raw)):
        return tuple(_narrowed(wide, _column_code(s)) for wide, s in zip(wides, sizes))
    unique = sorted(set(array(_WIDE, index.to_bytes(4 * len(raw), sys.byteorder))))
    return _index_columns(sizes, unique)


def _index_columns(sizes: tuple[int, ...], indices: Sequence[int]) -> tuple[array, ...]:
    """The index tuples at these lexicographic indices, given sorted without
    repeats, as one column per part; the one map from indices to columns."""
    return tuple(
        array(_column_code(s), [x // st % s for x in indices])
        for s, st in zip(sizes, _strides(sizes))
    )


def _increasing(index: int, n: int) -> bool:
    """True when the n 4-byte fields of index, each below 2^31, increase
    strictly in native array order (low field first on a little-endian
    host). Each field of high + 2^31 - low - 1, where high holds every field
    but the first and low every field but the last, lies in [0, 2^32), so
    no field borrows from the next, and its top bit is set exactly where
    the later field exceeds the earlier one."""
    ones = int.from_bytes(b"\1\0\0\0" * (n - 1), "little")
    low, high = index & ((1 << 32 * (n - 1)) - 1), index >> 32
    if sys.byteorder == "big":
        low, high = high, low
    top = ones << 31
    return (high + top - low - ones) & top == top


def _narrowed(wide: array, code: str) -> array:
    """The items of a 4-byte array, each known to fit type code `code`, as
    an array of that code, copying the low-order bytes of every item by
    strided slices."""
    if code == wide.typecode:
        return wide
    item, step = array(code).itemsize, wide.itemsize
    data = wide.tobytes()
    low = 0 if sys.byteorder == "little" else step - item
    out = bytearray(item * len(wide))
    for t in range(item):
        out[t::item] = data[low + t :: step]
    return array(code, out)


def _decoded_edge(raw) -> list[int]:
    """An instance file's edge with each coordinate decoded by decode_coord;
    a string in place of the edge raises ConfigInvalidError."""
    if isinstance(raw, str):
        raise ConfigInvalidError(f"edge {raw!r} is a string, not a list of indices")
    return [decode_coord(v) for v in raw]


def _rescanned_edges(sizes: tuple[int, ...], edge_list: Iterable) -> list[tuple[int, ...]]:
    """The edges as tuples, checked one by one in input order. Raises the
    error of the first faulty edge: its arity, else its first coordinate
    that is not an int or is out of range. Edges that pass are iterables
    the column pass could not read, such as generators."""
    r = len(sizes)
    edges = []
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
        edges.append(e)
    return edges


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
            if not _column_valid(digits, radix):  # name the first bad index
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


def _check_shape(r: int, sizes: tuple[int, ...]) -> None:
    """The one check of a hypergraph's shape; see the module docstring."""
    if not is_int(r):
        raise ConfigInvalidError(f"arity {r!r} is not an int")
    if r < 2:
        raise ArityMismatchError(f"arity must be >= 2, got {r}")
    for s in sizes:
        if not is_int(s):
            raise ConfigInvalidError(f"part size {s!r} is not an int")
        if s < 0:
            raise ConfigInvalidError(f"part size {s} is negative")
    if len(sizes) != r:
        raise ArityMismatchError(f"{len(sizes)} part sizes for arity {r}")
    tuple_total(sizes)


@dataclass(frozen=True)
class PartiteHypergraph:
    """r-partite r-uniform hypergraph on indexed parts.

    columns[j][e] is edge e's index in part j; the edges are in
    lexicographic order without repeats (build sorts and validates; the
    constructor trusts them). An empty tuple of columns is the edgeless
    graph. Arrays are unhashable, so the hash leaves the columns out.
    """

    r: int
    part_sizes: tuple[int, ...]
    columns: tuple[array, ...] = field(hash=False)

    def __post_init__(self):
        r, sizes = self.r, self.part_sizes
        _check_shape(r, sizes)
        if self.columns == ():
            object.__setattr__(self, "columns", tuple(array(_column_code(s)) for s in sizes))
        elif len(self.columns) != r:
            raise ArityMismatchError(f"{len(self.columns)} edge columns for arity {r}")

    @classmethod
    def build(
        cls,
        r: int,
        part_sizes: Sequence[int],
        edge_list: Iterable[Sequence[int]],
    ) -> "PartiteHypergraph":
        """Validate, deduplicate and sort an edge list of index sequences.

        The shape is checked first, by the constructor. Coordinates must be
        ints; a bool, float or any other value raises ConfigInvalidError
        naming it, with no rounding. The edges are checked in one pass over
        their columns (_edge_columns); when that fails, _rescanned_edges
        names the first bad edge in input order, or reads edges that are
        iterables but not sequences.
        """
        sizes = tuple(part_sizes)
        _check_shape(r, sizes)
        raw = list(edge_list)
        columns = _edge_columns(sizes, raw)
        if columns is None:
            columns = _edge_columns(sizes, _rescanned_edges(sizes, raw))
        return cls(r, sizes, columns)

    @classmethod
    def complete(cls, part_sizes: Sequence[int]) -> "PartiteHypergraph":
        """Every index tuple over parts of these sizes, shape checked first.
        In lexicographic order, column j repeats each index of part j once
        per tuple over the later parts, and that run once per tuple over the
        earlier parts."""
        sizes = tuple(part_sizes)
        _check_shape(len(sizes), sizes)
        total = math.prod(sizes)
        columns = []
        for j, size in enumerate(sizes):
            run = itertools.chain.from_iterable(
                map(itertools.repeat, range(size), itertools.repeat(math.prod(sizes[j + 1 :])))
            )
            # an empty part leaves no tuple, however large the other parts are
            columns.append(array(_column_code(size), run if total else ()) * math.prod(sizes[:j]))
        return cls(len(sizes), sizes, tuple(columns))

    @property
    def edges(self) -> tuple[tuple[int, ...], ...]:
        """The edges as index tuples, in lexicographic order; built from the
        columns on each read, for tests."""
        return tuple(zip(*self.columns))

    @cached_property
    def _flat_cache(self) -> dict:
        return {}

    @cached_property
    def _degree_cache(self) -> dict:
        return {}

    @property
    def edge_count(self) -> int:
        return len(self.columns[0])

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

    def _check_box(self, box: Sequence[Sequence[int]]) -> None:
        """Raise unless box holds one list per part of vertices that pass
        _check_vertex; each list is checked in bulk, and vertex by vertex
        only to name its first bad vertex."""
        if len(box) != self.r:
            raise ArityMismatchError(f"{len(box)} subsets for arity {self.r}")
        for i, sub in enumerate(box):
            if not _column_valid(sub, self.part_sizes[i]):
                for v in sub:
                    self._check_vertex(i, v)

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
            counts = self._degree_cache[i] = Counter(self.columns[i])
        return counts[v]

    def flatten(self, i: int) -> Bipartite:
        """Bipartite view: part i against the full product of the other parts."""
        self._check_part(i)
        cached = self._flat_cache.get(i)
        if cached is not None:
            return cached
        right_shape = self.part_sizes[:i] + self.part_sizes[i + 1 :]
        cols = self.columns
        rest = [cols[j] for j in range(self.r) if j != i]
        # right indices column by column; the last remaining part has stride 1
        idx = iter(rest[-1])
        for col, st in zip(rest[:-1], _strides(right_shape)):
            idx = map(add, map(mul, col, itertools.repeat(st)), idx)
        masks = [0] * self.part_sizes[i]
        for v, z in zip(cols[i], idx):
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
        holds None for the vertices left out; an edge is kept when no
        coordinate maps to None.
        """
        self._check_box(subsets)
        ranks: list[list[int | None]] = []
        sizes: list[int] = []
        for i, subset in enumerate(subsets):
            ordered = sorted(set(subset))
            rank: list[int | None] = [None] * self.part_sizes[i]
            for k, v in enumerate(ordered):
                rank[v] = k
            ranks.append(rank)
            sizes.append(len(ordered))
        mapped = [list(map(rank.__getitem__, col)) for rank, col in zip(ranks, self.columns)]
        kept = [None not in e for e in zip(*mapped)]
        # ranks are increasing, so the kept edges stay lexicographic
        columns = tuple(
            array(_column_code(size), itertools.compress(col, kept))
            for size, col in zip(sizes, mapped)
        )
        return PartiteHypergraph(self.r, tuple(sizes), columns)

    def is_complete(self) -> bool:
        return self.edge_count == self.total_tuples and self.edge_count > 0


@dataclass(frozen=True)
class Instance:
    """r ground sets of group elements plus a hypergraph over their indices.

    Each part is an ElemSet of the instance's group, so its elements are
    canonical and strictly increasing, and its size is the hypergraph's size
    of that part.
    """

    spec: GroupSpec
    parts: tuple[ElemSet, ...]
    hypergraph: PartiteHypergraph
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.hypergraph.r != len(self.parts):
            raise ArityMismatchError(
                f"hypergraph arity {self.hypergraph.r} != {len(self.parts)} parts"
            )
        for i, part in enumerate(self.parts):
            if part.spec != self.spec:
                raise ArityMismatchError(f"part {i} belongs to a different group")
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
        self.hypergraph._check_box(subsets)
        return tuple(
            ElemSet.from_iterable(self.spec, map(part.elems.__getitem__, subset))
            for part, subset in zip(self.parts, subsets)
        )

    def to_json(self) -> dict:
        edges: object
        if self.hypergraph.is_complete():
            edges = "complete"
        else:
            edges = list(map(list, zip(*self.hypergraph.columns)))
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
        """An instance from its JSON. Each part's elements are decoded a
        coordinate column at a time by _elems_from_json, which falls back to
        one element at a time only on decimal-string coordinates or a
        fault. The shape is checked before any edge; an edge list is read in
        one pass over its columns, and only when that fails (coordinates
        written as decimal strings, or a fault) is every coordinate decoded
        with decode_coord, before build checks the edges again and names
        the first bad one. A string in place of a list (the parts, a part,
        an element, the edges other than "complete", or an edge) raises
        ConfigInvalidError naming it."""
        spec = GroupSpec.from_json(data["group"])
        raw_parts = data["parts"]
        if isinstance(raw_parts, str):
            raise ConfigInvalidError(f"parts {raw_parts!r} is a string, not a list of parts")
        parts = [ElemSet(spec, _elems_from_json(spec, raw)) for raw in raw_parts]
        r, sizes = len(parts), tuple(map(len, parts))
        raw_edges = data["edges"]
        if raw_edges == "complete":
            hg = PartiteHypergraph.complete(sizes)
        else:
            _check_shape(r, sizes)
            columns = _edge_columns(sizes, raw_edges)
            if columns is None:
                if isinstance(raw_edges, str):
                    raise ConfigInvalidError(
                        f"edge list {raw_edges!r} is a string, not a list of edges"
                    )
                hg = PartiteHypergraph.build(r, sizes, list(map(_decoded_edge, raw_edges)))
            else:
                hg = PartiteHypergraph(r, sizes, columns)
        return cls(spec, tuple(parts), hg, meta=data.get("meta"))
