"""Leg and octopus counting on partite hypergraphs.

A leg at part i on a pair (v, w) of distinct part-i vertices is a pair of
edges that agree on every coordinate except i, where they take v and w. Its
count is the popcount of adj[v] & adj[w] in the flattening against part i;
the count kernels and the pipelines' pair filters read it that way. An
octopus anchored at a support tuple (v_1, ..., v_r) consists of one leg per
part i < r on (v_i, w_i), where (w_1, ..., w_{r-1}, v_r) is itself an edge.

The relaxed count multiplies leg counts over each closing edge, enforcing
only w_i != v_i; every bound check uses it. relaxed_count_table is the one
relaxed counter: one elimination kernel for every arity, over one box of
supports (one index subset per part). It holds the counts of the box as
one int with a fixed-width field per support (a Kronecker packing), wide
enough for an exact bound the kernel computes, so adding two count vectors
is one int addition and contracting a part is one multiply-add per mate;
everything stays exact. It returns each last-part vertex's fields, which
the pipelines' sweep reduces, and builds no per-support tuple or dict.
octopus_count_relaxed, used by ``bsgkit count`` and the witness-budget
estimate, is that kernel on the support's singleton box.
The verifier (check_bounds in instances.py) counts by elimination in the
other part order over its own leg rows, which it cuts from a 0/1 byte
image of the edge set rather than from a flattening, with its own packing
code, and uses none of this module's counters or helpers, so one packing
bug cannot corrupt both routes.
The exact counter enumerates witnesses and enforces vertex-disjointness
between legs; the "full" mode additionally forbids leg interior vertices
from coinciding with any anchor vertex.

Indices are validated once per public call: a subset box or a support,
the singleton box of its vertices, by PartiteHypergraph._check_box, and a
leg pair by _check_vertex; the counting loops then read the flattenings'
adjacency masks directly.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
from dataclasses import dataclass
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Iterator, Sequence

from .config import DEFAULT_ENUM_BUDGET
from .errors import BudgetExceededError, ConfigInvalidError, SameVertexError
from .hypergraph import Instance, PartiteHypergraph
from .sumsets import index_sum


# no package path calls leg_count; it stays because perfbench/tracing.py wraps it by name
def leg_count(h: PartiteHypergraph, part: int, v: int, w: int) -> int:
    """Number of legs at `part` on the distinct pair (v, w)."""
    if v == w:
        raise SameVertexError(f"leg pair needs distinct vertices, got {v} twice")
    h._check_vertex(part, v)
    h._check_vertex(part, w)
    adj = h.flatten(part).adj
    return (adj[v] & adj[w]).bit_count()


def octopus_count_relaxed(h: PartiteHypergraph, support: Sequence[int]) -> int:
    """Sum over closing edges of the product of leg counts.

    For each edge (w_1, ..., w_{r-1}, v_r) through the last support vertex
    with w_i != v_i for every i, multiplies the leg counts at (v_i, w_i).
    No disjointness between legs is enforced beyond w_i != v_i. Counted by
    relaxed_count_table on the support's singleton box.
    """
    [(_, fields)] = relaxed_count_table(h, [(v,) for v in support])
    return fields[0]


def relaxed_count_table(
    h: PartiteHypergraph, box: Sequence[Sequence[int]]
) -> list[tuple[int, Sequence[int]]]:
    """Relaxed counts for every support in the box (one index subset per part).

    Returns one (v_last, fields) pair per vertex of the box's last subset,
    ascending; fields[j] counts the support head_j + (v_last,), head_j being
    the j-th tuple of itertools.product over the sorted, deduplicated first
    r-1 subsets. An empty subset gives an empty list.

    Support j owns the bits from 8*width*j up of one int; `width` bytes
    (a native unsigned int size up to 8) hold the bound, the largest
    last-part degree in the box times each part's largest leg count in the
    box's rows, so no field carries into the next. Part i's column at mate
    w packs the box's part-i leg rows at w at that part's stride. One pass
    over the edge columns eliminates part r-2: each edge through a box
    vertex v of the last part adds its part r-2 column to v's entry at one
    int key, its mates in parts 0 to r-3 in mixed radix. Per v, parts r-3
    down to 0 follow, each split off the key by divmod as its least
    significant digit and multiplied in by its column. check_bounds counts
    with its own kernel and shares no packing helper with this one.
    """
    h._check_box(box)
    last = h.r - 1
    subs = [tuple(sorted(set(sub))) for sub in box]
    if not all(subs):
        return []
    rows = []  # rows[i][k]: leg counts from subs[i][k] to its whole part, 0 at itself
    for i in range(last):
        adj = h.flatten(i).adj
        rows.append([
            [0 if w == v else (adj[v] & a).bit_count() for w, a in enumerate(adj)]
            for v in subs[i]
        ])
    bound = max(h.degree(last, v) for v in subs[last])
    for part in rows:
        bound *= max(map(max, part))
    width = max(1, -(-bound.bit_length() // 8))
    if width <= 8:  # a native unsigned int size, so one array conversion unpacks
        width = 1 << (width - 1).bit_length()
    cols = []  # built from part r-2, whose stride is one field, down to 0
    shift = 8 * width
    for i in range(last - 1, -1, -1):
        cols.insert(0, _pack_columns(rows[i], shift))
        shift *= len(subs[i])
    sizes, edges = h.part_sizes, h.edges
    keys = repeat(0)
    for p in range(last - 1):
        keys = map(add, map(mul, keys, repeat(sizes[p])), map(itemgetter(p), edges))
    # vecs[v][key]: packed counts over subs[r-2] of v's closing edges whose mates read as key
    vecs: dict[int, dict[int, int]] = {v: {} for v in subs[last]}
    col = cols[last - 1]
    for v, key, w in zip(map(itemgetter(last), edges), keys, map(itemgetter(last - 1), edges)):
        sums = vecs.get(v)
        if sums is not None:
            sums[key] = sums.get(key, 0) + col[w]
    heads = math.prod(map(len, subs[:last]))
    out = []
    for v, sums in vecs.items():
        for p in range(last - 2, -1, -1):
            col = cols[p]
            terms: dict[int, int] = {}
            for key, vec in sums.items():
                rest, w = divmod(key, sizes[p])
                c = col[w]
                if c:
                    terms[rest] = terms.get(rest, 0) + c * vec
            sums = terms
        out.append((v, _unpack_fields(sums.get(0, 0), heads, width)))
    return out


def _pack_columns(box_rows: list[list[int]], shift: int) -> list[int]:
    """For each mate w, one int holding box_rows[k][w] at bit k * shift."""
    cols = [0] * len(box_rows[0])
    for at, row in zip(range(0, len(box_rows) * shift, shift), box_rows):
        cols = [x | c << at for x, c in zip(cols, row)]
    return cols


def _unpack_fields(packed: int, n: int, width: int) -> Sequence[int]:
    """The n fields of `width` bytes in packed, least significant first."""
    buf = packed.to_bytes(n * width, sys.byteorder)
    code = _NATIVE_UINTS.get(width)
    if code is not None:
        return array(code, buf)
    return [int.from_bytes(buf[j : j + width], sys.byteorder) for j in range(0, len(buf), width)]


# struct codes of the native unsigned ints by size: 1, 2, 4 and 8 bytes
_NATIVE_UINTS = {struct.calcsize(code): code for code in "BHILQ"}


@dataclass(frozen=True)
class OctopusWitness:
    """One enumerated octopus: anchors, mates, and per-leg interior tuples.

    ``fills[i]`` lists the interior vertices of the leg at part i, ordered by
    ascending part index over the parts other than i.
    """

    support: tuple[int, ...]
    mates: tuple[int, ...]
    fills: tuple[tuple[int, ...], ...]

    def leg_edges(self, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The two edges of the leg at part i (through v_i and through w_i)."""
        fill = self.fills[i]
        r = len(self.support)
        parts = [j for j in range(r) if j != i]
        base = dict(zip(parts, fill))
        edge_v = tuple(base[j] if j != i else self.support[i] for j in range(r))
        edge_w = tuple(base[j] if j != i else self.mates[i] for j in range(r))
        return edge_v, edge_w

    def closing_edge(self) -> tuple[int, ...]:
        return self.mates + (self.support[-1],)

    def representation_sums(self, inst: Instance):
        """Edge sums (xs, ys, z) with sum(support elems) = sum(xs) - sum(ys) + z."""
        spec, parts = inst.spec, inst.parts
        xs = []
        ys = []
        for i in range(len(self.mates)):
            ev, ew = self.leg_edges(i)
            xs.append(index_sum(spec, parts, ev))
            ys.append(index_sum(spec, parts, ew))
        z = index_sum(spec, parts, self.closing_edge())
        return tuple(xs), tuple(ys), z


_MODES = ("named-only", "full")


def _fill_candidates(
    h: PartiteHypergraph, part: int, v: int, w: int
) -> list[tuple[int, ...]]:
    """Interior tuples completing a leg at `part` on (v, w), as labels over
    the other parts in ascending part order."""
    flat = h.flatten(part)
    mask = flat.adj[v] & flat.adj[w]
    fills = []
    while mask:
        low = mask & -mask
        fills.append(flat.right_label(low.bit_length() - 1))
        mask ^= low
    return fills


def enumerate_octopus_witnesses(
    h: PartiteHypergraph,
    support: Sequence[int],
    mode: str = "named-only",
) -> Iterator[OctopusWitness]:
    """Yield every octopus witness at the support under the given mode.

    named-only: anchors and mates are distinct and legs are pairwise
    vertex-disjoint; a leg interior vertex in the last part may coincide
    with the last anchor. full: additionally forbids that coincidence.
    Raises BudgetExceededError before enumerating if the candidate estimate
    exceeds DEFAULT_ENUM_BUDGET.
    """
    if mode not in _MODES:
        raise ConfigInvalidError(f"mode must be one of {_MODES}, got {mode!r}")
    sup = tuple(support)
    # The relaxed count bounds the witnesses before disjointness is enforced;
    # it is also the one check of the support.
    estimate = octopus_count_relaxed(h, sup)
    if estimate > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(estimate, DEFAULT_ENUM_BUDGET)
    r = h.r
    last = r - 1

    mate_edges = [
        e[:last] for e in h.edges
        if e[last] == sup[last] and all(w != v for w, v in zip(e, sup[:last]))
    ]

    other_parts = {i: [j for j in range(r) if j != i] for i in range(last)}

    for mates in mate_edges:
        fill_sets = []
        empty = False
        for i in range(last):
            fills = _fill_candidates(h, i, sup[i], mates[i])
            if not fills:
                empty = True
                break
            fill_sets.append(fills)
        if empty:
            continue
        used: list[set[int]] = [set() for _ in range(r)]
        for j in range(last):
            used[j].update((sup[j], mates[j]))
        if mode == "full":
            used[last].add(sup[last])
        order = sorted(range(last), key=lambda i: len(fill_sets[i]))
        chosen: list[tuple[int, ...] | None] = [None] * last

        def dfs(k: int) -> Iterator[OctopusWitness]:
            if k == last:
                yield OctopusWitness(sup, mates, tuple(chosen[i] for i in range(last)))
                return
            leg = order[k]
            parts = other_parts[leg]
            for fill in fill_sets[leg]:
                if any(fill[t] in used[parts[t]] for t in range(len(parts))):
                    continue
                for t, p in enumerate(parts):
                    used[p].add(fill[t])
                chosen[leg] = fill
                yield from dfs(k + 1)
                for t, p in enumerate(parts):
                    used[p].discard(fill[t])
            chosen[leg] = None

        yield from dfs(0)


def octopus_count_exact(
    h: PartiteHypergraph,
    support: Sequence[int],
    mode: str = "named-only",
) -> int:
    """Exact number of octopus witnesses at the support under the given mode."""
    return sum(1 for _ in enumerate_octopus_witnesses(h, support, mode))

