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
supports (one index subset per part). It holds count vectors as ints with
a fixed-width field per support, wide enough for an exact bound the kernel
computes, so adding two count vectors is one int addition and no field
carries. After the first part is eliminated, the last part's vertices are
folded into one vector per key of remaining mates, and each later part is
contracted a row at a time: a box row's sum over the mates multiplies each
vector by one small int, so no product multiplies zero padding.
Everything stays exact. It reads the hypergraph's edge columns directly,
returns each last-part vertex's fields, which the pipelines' sweep
reduces, and builds no per-support tuple or dict.
octopus_count_relaxed, used by ``bsgkit count`` and the witness-budget
estimate, is that kernel on the support's singleton box.
The verifier (check_bounds in instances.py) counts by elimination in the
other part order over its own leg rows, which it cuts from a 0/1 byte
image of the edge set rather than from a flattening, with its own packing
code, and uses none of this module's counters or helpers, so one packing
bug cannot corrupt both routes.
The exact counter enumerates witnesses and enforces vertex-disjointness
between legs; the "full" mode additionally forbids leg interior vertices
from coinciding with any anchor vertex. It finds the closing edges by one
scan of the edge columns, keeping the rows whose last-part index is the
last anchor.

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
from itertools import compress, repeat
from operator import add, eq, mul, ne
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
    r-1 subsets. An empty subset gives an empty list, and a zero bound
    (below) all-zero fields.

    Every count vector is one int of `width`-byte fields, least significant
    first; `width` (a native unsigned int size up to 8) holds the bound, the
    largest last-part degree in the box times each part's largest leg count
    in the box's rows. Every partial sum below is at most a count's bound,
    so no field carries into the next. A zero bound makes every count 0;
    the kernel then packs nothing, since a leg count in the box's rows can
    still exceed the 1-byte field. Part r-2's column at mate w packs the
    box's part r-2 leg rows at w, one field each. One pass over the edge
    columns eliminates part r-2: each edge through a box vertex v of the
    last part adds its part r-2 column to v's entry at one int key, its
    mates in parts 0 to r-3 in mixed radix. At r = 2 that is all. Otherwise
    the last part is folded in: each key's vectors, one per box vertex of
    the last part, are joined into one, and parts r-3 down to 0 follow,
    each split off the key by divmod as its least significant digit. A part
    is contracted a row at a time: for box row k, the sum over mates w of
    row_k[w] times the vector at w, and the new vector is those sums joined
    in k order. The final vector holds, for each head over parts 0 to r-3,
    the last part's vertices' part r-2 fields in turn; each vertex's fields
    are cut from it. check_bounds counts with its own kernel and shares no
    packing helper with this one.
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
    if not bound:  # no box vertex of the last part has an edge, or some part no leg
        zeros = bytes(width * math.prod(map(len, subs[:last])))
        return [(v, _unpack_fields(zeros, width)) for v in subs[last]]
    col = _pack_columns(rows[last - 1], width)
    sizes, columns = h.part_sizes, h.columns
    keys = repeat(0)
    for p in range(last - 1):
        keys = map(add, map(mul, keys, repeat(sizes[p])), columns[p])
    # vecs[v][key]: packed counts over subs[r-2] of v's closing edges whose mates read as key
    vecs: dict[int, dict[int, int]] = {v: {} for v in subs[last]}
    for v, key, w in zip(columns[last], keys, columns[last - 1]):
        sums = vecs.get(v)
        if sums is not None:
            sums[key] = sums.get(key, 0) + col[w]
    block = width * len(subs[last - 1])  # one vertex's vector, in bytes
    if last == 1:
        return [
            (v, _unpack_fields(sums.get(0, 0).to_bytes(block, "little"), width))
            for v, sums in vecs.items()
        ]
    stride = span = block * len(subs[last])  # the folded vector, in bytes
    terms: dict[int, int] = {}
    for key in set().union(*vecs.values()):
        parts = (sums.pop(key, 0).to_bytes(block, "little") for sums in vecs.values())
        terms[key] = int.from_bytes(b"".join(parts), "little")
    for p in range(last - 2, -1, -1):
        # groups[rest][w]: the vector at the key with part p's digit w and the rest
        groups: dict[int, list[int]] = {}
        for key, vec in terms.items():
            rest, w = divmod(key, sizes[p])
            group = groups.get(rest)
            if group is None:
                group = groups[rest] = [0] * sizes[p]
            group[w] = vec
        terms = {
            rest: int.from_bytes(
                b"".join(sum(map(mul, row, group)).to_bytes(span, "little") for row in rows[p]),
                "little",
            )
            for rest, group in groups.items()
        }
        span *= len(subs[p])
    data = terms.get(0, 0).to_bytes(span, "little")
    return [
        (v, _unpack_fields(
            b"".join(data[at : at + block] for at in range(x * block, span, stride)), width
        ))
        for x, v in enumerate(subs[last])
    ]


def _pack_columns(box_rows: list[list[int]], width: int) -> list[int]:
    """For each mate w, one int holding box_rows[k][w] in its k-th field of
    `width` bytes, least significant first: each row is written into a
    table of fields, mate-major, by one strided slice, and each mate's
    fields are read as one int."""
    code = _NATIVE_UINTS.get(width)
    if code is None:  # fields wider than 8 bytes
        return [
            int.from_bytes(b"".join(c.to_bytes(width, "little") for c in counts), "little")
            for counts in zip(*box_rows)
        ]
    m = len(box_rows)
    table = array(code, bytes(width * m * len(box_rows[0])))
    for k, row in enumerate(box_rows):
        table[k::m] = array(code, row)
    if sys.byteorder == "big":
        table.byteswap()
    data = memoryview(table).cast("B")
    span = width * m
    return [int.from_bytes(data[at : at + span], "little") for at in range(0, len(data), span)]


def _unpack_fields(data: bytes, width: int) -> Sequence[int]:
    """The fields of `width` bytes in data, little-endian, in order."""
    code = _NATIVE_UINTS.get(width)
    if code is None:
        return [int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)]
    fields = array(code, data)
    if sys.byteorder == "big":
        fields.byteswap()
    return fields


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

    # the mates of the closing edges: edges through the last anchor, read
    # from the columns, that avoid every other anchor in its part
    through = map(eq, h.columns[last], repeat(sup[last]))
    mate_edges = [
        mates for mates in compress(zip(*h.columns[:last]), through)
        if all(map(ne, mates, sup[:last]))
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

