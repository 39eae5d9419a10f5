"""Storage and query layer for r-partite r-uniform hypergraphs.

Vertices are identified by (part, position); equal group elements sitting in
different parts are distinct vertices. Edges are ordered index tuples, stored
lexicographically sorted for deterministic iteration; the edge list is the
only per-edge storage. The bipartite flattening against one part uses
integer bitmasks over the mixed-radix index space of the remaining parts,
which makes its degree and codegree queries single popcounts; ``_strides``
is the one definition of that layout. Every vertex index a
PartiteHypergraph query takes passes one check, ``_check_vertex``: an int,
not a bool, in range. No hypergraph may span more than TUPLE_CAP index
tuples; the check runs before any tuple is allocated.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .config import TUPLE_CAP, require_within_cap
from .errors import (
    ArityMismatchError,
    ConfigInvalidError,
    EmptyPartError,
    IndexOutOfRangeError,
    NoEdgesError,
    TooLargeError,
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
        out = []
        for st in self._right_strides:
            out.append(index // st)
            index %= st
        return tuple(out)

    def _check_left(self, v: int) -> None:
        if not 0 <= v < self.left_size:
            raise IndexOutOfRangeError(f"left vertex {v} out of range [0, {self.left_size})")

    def degree(self, v: int) -> int:
        self._check_left(v)
        return self.adj[v].bit_count()

    def codegree(self, v: int, w: int) -> int:
        """|N(v) & N(w)|; codegree(v, v) equals degree(v)."""
        self._check_left(v)
        self._check_left(w)
        return (self.adj[v] & self.adj[w]).bit_count()

    def right_degree(self, z: int) -> int:
        if not 0 <= z < self.right_size:
            raise IndexOutOfRangeError(f"right vertex {z} out of range [0, {self.right_size})")
        bit = 1 << z
        return sum(1 for mask in self.adj if mask & bit)

    def left_neighbors(self, z: int) -> list[int]:
        bit = 1 << z
        return [v for v, mask in enumerate(self.adj) if mask & bit]

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adj)


@dataclass(frozen=True)
class PartiteHypergraph:
    """r-partite r-uniform hypergraph on indexed parts."""

    r: int
    part_sizes: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]  # lex sorted, deduplicated

    def __post_init__(self):
        if self.r < 1:
            raise ArityMismatchError(f"arity must be >= 1, got {self.r}")
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
        """
        if not is_int(r):
            raise ConfigInvalidError(f"arity {r!r} is not an int")
        sizes = _checked_sizes(r, part_sizes)
        seen = set()
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
            seen.add(e)
        return cls(r, sizes, tuple(sorted(seen)))

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
        strides = _strides(right_shape)
        masks = [0] * self.part_sizes[i]
        for e in self.edges:
            rest = e[:i] + e[i + 1 :]
            idx = sum(v * st for v, st in zip(rest, strides))
            masks[e[i]] |= 1 << idx
        flat = Bipartite(self.part_sizes[i], right_shape, tuple(masks))
        self._flat_cache[i] = flat
        return flat

    def induce(self, subsets: Sequence[Sequence[int]]) -> "PartiteHypergraph":
        """Edges with all coordinates inside the chosen per-part subsets.

        Vertices are reindexed by rank inside each (sorted, deduplicated)
        subset; the subsets themselves are the old-to-new mapping.
        """
        if len(subsets) != self.r:
            raise ArityMismatchError(f"{len(subsets)} subsets for arity {self.r}")
        maps: list[dict[int, int]] = []
        sizes: list[int] = []
        for i, subset in enumerate(map(tuple, subsets)):
            for v in subset:
                self._check_vertex(i, v)
            ordered = sorted(set(subset))
            maps.append({v: k for k, v in enumerate(ordered)})
            sizes.append(len(ordered))
        new_edges = []
        for e in self.edges:
            out = []
            for i, v in enumerate(e):
                k = maps[i].get(v)
                if k is None:
                    break
                out.append(k)
            else:
                new_edges.append(tuple(out))
        # rank maps are increasing, so the kept edges stay lexicographic
        return PartiteHypergraph(self.r, tuple(sizes), tuple(new_edges))

    def is_complete(self) -> bool:
        return self.edge_count == self.total_tuples and self.edge_count > 0


@dataclass(frozen=True)
class Instance:
    """r ground sets of group elements plus a hypergraph over their indices."""

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
        parts = []
        for raw in data["parts"]:
            elems = [elem_from_json(spec, e) for e in raw]
            if sorted(set(elems)) != elems:
                raise ConfigInvalidError(
                    "part elements must be distinct and in canonical sorted order"
                )
            parts.append(ElemSet(spec, tuple(elems)))
        sizes = [len(p) for p in parts]
        raw_edges = data["edges"]
        if raw_edges == "complete":
            hg = PartiteHypergraph.complete(sizes)
        else:
            hg = PartiteHypergraph.build(
                len(parts), sizes, [[decode_coord(v) for v in e] for e in raw_edges]
            )
        return cls(spec, tuple(parts), hg, meta=data.get("meta"))
