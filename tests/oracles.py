"""Independent brute-force oracles shared by the test modules.

Nothing here reuses production counting code: legs are recounted by scanning
full index grids against a set of the edges, built once per call, octopuses by enumerating every
candidate (mates, interiors) combination with explicit (part, vertex) set
checks, codegrees by scanning all right tuples, best subsets by summing
plain coordinate tuples for every combination, and sums of group elements by
folding GroupSpec.add over every term. Generated edges are picked from one
stream of index tuples and loaded through PartiteHypergraph.build. Element
lists are decoded one element at a time with elem_from_json.
"""

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice, product

from bsgkit.groups import elem_from_json
from bsgkit.hypergraph import PartiteHypergraph
from bsgkit.rng import SplitMix64


def oracle_leg_count(h, part, v, w):
    return _leg_count(h, frozenset(h.edges), part, v, w)


def _leg_count(h, edges, part, v, w):
    ranges = [range(s) for i, s in enumerate(h.part_sizes) if i != part]
    count = 0
    for rest in product(*ranges):
        edge_v, edge_w = [], []
        it = iter(rest)
        for i in range(h.r):
            if i == part:
                edge_v.append(v)
                edge_w.append(w)
            else:
                u = next(it)
                edge_v.append(u)
                edge_w.append(u)
        if tuple(edge_v) in edges and tuple(edge_w) in edges:
            count += 1
    return count


def oracle_relaxed(h, support):
    r = h.r
    edges = frozenset(h.edges)
    total = 0
    ranges = [range(s) for s in h.part_sizes[: r - 1]]
    for mates in product(*ranges):
        if tuple(mates) + (support[-1],) not in edges:
            continue
        if any(mates[i] == support[i] for i in range(r - 1)):
            continue
        prod_val = 1
        for i in range(r - 1):
            prod_val *= _leg_count(h, edges, i, support[i], mates[i])
        total += prod_val
    return total


def _leg_fills(h, edges, part, v, w):
    grids = [range(h.part_sizes[j]) for j in range(h.r) if j != part]
    valid = []
    for fill in product(*grids):
        it = iter(fill)
        ev = tuple(v if j == part else next(it) for j in range(h.r))
        it = iter(fill)
        ew = tuple(w if j == part else next(it) for j in range(h.r))
        if ev in edges and ew in edges:
            valid.append(fill)
    return valid


def oracle_exact(h, support, mode):
    """Recursive enumerator over every candidate witness."""
    r = h.r
    edges = frozenset(h.edges)
    count = 0
    mate_ranges = [range(s) for s in h.part_sizes[: r - 1]]
    for mates in product(*mate_ranges):
        if tuple(mates) + (support[-1],) not in edges:
            continue
        if any(mates[i] == support[i] for i in range(r - 1)):
            continue
        named = {(i, support[i]) for i in range(r)} | {
            (i, mates[i]) for i in range(r - 1)
        }
        fill_lists = [
            _leg_fills(h, edges, i, support[i], mates[i]) for i in range(r - 1)
        ]

        def leg_set(i, fill):
            vs = {(i, support[i]), (i, mates[i])}
            it = iter(fill)
            for j in range(r):
                if j != i:
                    vs.add((j, next(it)))
            return vs

        for choices in product(*fill_lists):
            sets = [leg_set(i, choices[i]) for i in range(r - 1)]
            ok = True
            for a in range(len(sets)):
                for b in range(a + 1, len(sets)):
                    if sets[a] & sets[b]:
                        ok = False
                        break
                if not ok:
                    break
            if ok and mode == "full":
                for i, fill in enumerate(choices):
                    it = iter(fill)
                    for j in range(r):
                        if j != i and (j, next(it)) in named:
                            ok = False
            if ok:
                count += 1
    return count


def brute_codegree(h, part, v, w):
    edges = frozenset(h.edges)
    count = 0
    ranges = [range(s) for i, s in enumerate(h.part_sizes) if i != part]
    for rest in product(*ranges):
        def with_vertex(x):
            it = iter(rest)
            return tuple(x if i == part else next(it) for i in range(h.r))
        if with_vertex(v) in edges and with_vertex(w) in edges:
            count += 1
    return count


def oracle_best_subsets(moduli, parts, floors):
    """First lexicographic minimizer of |A_0 + ... + A_{r-1}| over subsets of
    exactly the floor sizes; parts are lists of coordinate tuples.

    Sums are per-coordinate integer additions, reduced mod m on cyclic
    coordinates (m > 0), over the full product of chosen elements.
    """
    best = None
    choices = [list(combinations(range(len(p)), f)) for p, f in zip(parts, floors)]
    for chosen in product(*choices):
        sums = set()
        for picks in product(*(
            [parts[i][v] for v in combo] for i, combo in enumerate(chosen)
        )):
            sums.add(tuple(
                sum(coords) % m if m else sum(coords)
                for coords, m in zip(zip(*picks), moduli)
            ))
        if best is None or len(sums) < best[1]:
            best = (chosen, len(sums))
    return best


def oracle_sum_fold(spec, terms):
    """Sum of group elements by a naive GroupSpec.add fold from the identity."""
    total = spec.identity()
    for t in terms:
        total = spec.add(total, t)
    return total


def oracle_elems_from_json(spec, data):
    """The elements of a JSON element list, decoded one element at a time
    with elem_from_json."""
    return tuple(elem_from_json(spec, e) for e in data)


def oracle_sumset(spec, sets):
    """Sorted distinct sums of one element from each set."""
    return tuple(sorted({oracle_sum_fold(spec, picks) for picks in product(*sets)}))


def oracle_restricted_sumset(inst):
    """Sorted distinct sums over the instance's edges."""
    parts = [part.elems for part in inst.parts]
    return tuple(sorted({
        oracle_sum_fold(inst.spec, [parts[i][v] for i, v in enumerate(edge)])
        for edge in inst.hypergraph.edges
    }))


def oracle_signed_histogram(spec, elems, signs):
    """Counts of sum(sign_i * c_i) over all tuples (c_1, ..., c_k) from elems."""
    return Counter(
        oracle_sum_fold(spec, [c if sign > 0 else spec.neg(c) for c, sign in zip(tup, signs)])
        for tup in product(elems, repeat=len(signs))
    )


def _with_vertex(rest, part, v):
    """The index tuple with v inserted at position part of rest."""
    return tuple(rest[:part]) + (v,) + tuple(rest[part:])


def oracle_flatten_masks(h, part):
    """Neighbourhood bitmask of each vertex of part: bit z stands for the
    z-th tuple, in itertools.product order, over the other parts, and is set
    when that tuple with the vertex inserted is an edge."""
    edges = frozenset(h.edges)
    ranges = [range(s) for i, s in enumerate(h.part_sizes) if i != part]
    masks = []
    for v in range(h.part_sizes[part]):
        mask = 0
        for z, rest in enumerate(product(*ranges)):
            if _with_vertex(rest, part, v) in edges:
                mask |= 1 << z
        masks.append(mask)
    return masks


def oracle_right_degrees(h, part):
    """For each tuple over the other parts, in itertools.product order, the
    number of vertices of part that complete it to an edge."""
    edges = frozenset(h.edges)
    ranges = [range(s) for i, s in enumerate(h.part_sizes) if i != part]
    return [
        sum(_with_vertex(rest, part, v) in edges for v in range(h.part_sizes[part]))
        for rest in product(*ranges)
    ]


def oracle_degree(h, part, v):
    """Number of index tuples through vertex v of part that are edges."""
    edges = frozenset(h.edges)
    ranges = [range(s) for i, s in enumerate(h.part_sizes) if i != part]
    return sum(_with_vertex(rest, part, v) in edges for rest in product(*ranges))


def oracle_induce(h, subsets):
    """Part sizes and edges of the hypergraph induced on the subsets, each
    vertex renamed by its rank in its sorted, deduplicated subset: every
    tuple over the subsets is looked up in a set of the edges."""
    edges = frozenset(h.edges)
    ordered = [sorted(set(s)) for s in subsets]
    kept = [
        tuple(ordered[i].index(v) for i, v in enumerate(old))
        for old in product(*ordered)
        if old in edges
    ]
    return tuple(len(s) for s in ordered), tuple(kept)


def oracle_gen_hypergraph(cfg, parts):
    """The hypergraph gen_instance generates for cfg over its parts, by the
    tuple-stream selection: every index tuple in lexicographic order is
    tested and the kept ones listed, the lexicographically first missing
    tuples pad the list up to the family's floor, and build validates the
    sorted list, which it stores as it is, without _index_columns. Only
    random-density and dense draw edges from the seed's stream; planted
    draws its parts from it, and its edges from those."""
    spec = parts[0].spec
    sizes = tuple(map(len, parts))
    ranges = tuple(map(range, sizes))
    total = math.prod(sizes)
    rng = SplitMix64(cfg.seed)
    count = 0
    if cfg.family == "complete":
        edges = list(product(*ranges))
    elif cfg.family == "random-density":
        count = math.ceil(Fraction(total) / cfg.k)
        keep_den, keep_num = cfg.k.as_integer_ratio()
        edges = [
            e for e in product(*ranges) if rng.next_u64() * keep_den < (1 << 64) * keep_num
        ]
        del edges[count:]
    elif cfg.family == "planted":
        window = math.ceil(cfg.target_c * max(cfg.sizes))
        target_set = {spec.canon((j,) + (0,) * (spec.width - 1)) for j in range(window)}
        elems = [part.elems for part in parts]
        edges = [
            e
            for e in product(*ranges)
            if oracle_sum_fold(spec, [elems[i][v] for i, v in enumerate(e)]) in target_set
        ]
        count = math.ceil(total * cfg.ap_fraction**cfg.r)
    else:  # dense
        removed = set()
        while len(removed) < math.floor(cfg.delta * total):
            removed.add(rng.next_below(total))
        edges = [e for idx, e in enumerate(product(*ranges)) if idx not in removed]
    if len(edges) < count:
        present = set(edges)
        missing = (e for e in product(*ranges) if e not in present)
        edges.extend(islice(missing, count - len(edges)))
    return PartiteHypergraph.build(cfg.r, sizes, sorted(edges))
