"""Instance generation, measurement, independent bound verification, and
brute-force oracles.

Generators are fully determined by their seed via SplitMix64; the algorithm
identifier, family and parameters are recorded inside the instance JSON so
files can be regenerated bit-identically. Verification here recomputes every
quantity from scratch (the least relaxed count over the chosen box by a packed
elimination over leg rows cut from a 0/1 byte image of the edges, fresh
sumsets) rather than trusting anything a pipeline recorded, so it is the
second, independent route for every reported inequality.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, filterfalse, islice, product, repeat
from operator import add, mod, mul
from typing import Sequence

from .errors import (
    ConfigInvalidError,
    ModeMismatchError,
    NoEdgesError,
    TooLargeError,
)
from .extraction import (
    ExtractionResult,
    _check_cap,
    _check_delta,
    _check_general_run,
    ledger,
)
from .groups import GroupElem, GroupSpec, make_group
from .hypergraph import Instance, PartiteHypergraph, _index_columns, tuple_total
from .jsonio import exact_param, frac_str, is_int
from .report import BoundReport, Inequality, check_eq, check_ge, check_le
from .rng import ALGORITHM_ID, SplitMix64
from .sumsets import (
    ElemSet,
    index_sum,
    iterated_sumset,
    representation_table,
    restricted_sumset,
)

FAMILIES = ("complete", "random-density", "planted", "dense")

BRUTE_FORCE_SIZE_GUARD = 24


@dataclass(frozen=True)
class GenConfig:
    """Seeded description of one generated instance.

    sizes: one size per part, or a single size repeated r times.
    family parameters: k for random-density, ap_fraction and target_c for
    planted, delta for dense. Unused parameters must stay None. r, sizes,
    moduli and seed are ints and the family parameters ints or Fractions;
    building a config rejects anything else (bool and float included), or a
    parameter out of its family's range, with ConfigInvalidError.
    """

    r: int
    sizes: tuple[int, ...]
    moduli: tuple[int, ...]
    seed: int
    family: str
    k: Fraction | None = None
    ap_fraction: Fraction | None = None
    target_c: Fraction | None = None
    delta: Fraction | None = None

    @classmethod
    def make(
        cls,
        r: int,
        n: int | Sequence[int],
        family: str,
        seed: int,
        moduli: Sequence[int] = (0,),
        k: Fraction | None = None,
        ap_fraction: Fraction | None = None,
        target_c: Fraction | None = None,
        delta: Fraction | None = None,
    ) -> "GenConfig":
        # a non-int r is left for __post_init__ to reject by name
        sizes = tuple(n) if isinstance(n, Sequence) else (n,) * (r if is_int(r) else 1)
        return cls(
            r=r, sizes=sizes, moduli=tuple(moduli), seed=seed, family=family,
            k=k, ap_fraction=ap_fraction, target_c=target_c, delta=delta,
        )

    def __post_init__(self):
        for name in ("r", "sizes", "moduli", "seed"):
            value = getattr(self, name)
            values = value if name in ("sizes", "moduli") else (value,)
            if not isinstance(values, tuple) or not all(map(is_int, values)):
                raise ConfigInvalidError(f"{name} must be int, got {value!r}")
        for name in ("k", "ap_fraction", "target_c", "delta"):
            value = getattr(self, name)
            if value is not None:
                exact_param(name, value, None)
        if self.r < 2:
            raise ConfigInvalidError(f"r must be >= 2, got {self.r}")
        if len(self.sizes) != self.r:
            raise ConfigInvalidError(f"{len(self.sizes)} sizes for r={self.r}")
        if any(s < 1 for s in self.sizes):
            raise ConfigInvalidError("every part size must be >= 1")
        if self.family not in FAMILIES:
            raise ConfigInvalidError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 0 <= self.seed < (1 << 64):
            raise ConfigInvalidError("seed must be a 64-bit unsigned integer")
        if self.family == "random-density":
            if self.k is None:
                raise ConfigInvalidError("random-density requires k")
            _check_general_run(self.k)
        if self.family == "planted":
            if self.ap_fraction is None or not 0 < self.ap_fraction <= 1:
                raise ConfigInvalidError("planted requires ap_fraction in (0, 1]")
            if self.target_c is None:
                raise ConfigInvalidError("planted requires target_c")
            _check_cap(self.target_c)
        if self.family == "dense":
            if self.delta is None:
                raise ConfigInvalidError("dense requires delta")
            _check_delta(self.delta)

    def meta(self) -> dict:
        params: dict = {}
        if self.k is not None:
            params["k"] = frac_str(self.k)
        if self.ap_fraction is not None:
            params["ap_fraction"] = frac_str(self.ap_fraction)
        if self.target_c is not None:
            params["target_c"] = frac_str(self.target_c)
        if self.delta is not None:
            params["delta"] = frac_str(self.delta)
        return {
            "algorithm": ALGORITHM_ID,
            "family": self.family,
            "seed": self.seed,
            "sizes": list(self.sizes),
            "params": params,
        }


def _ap_element(spec: GroupSpec, j: int) -> GroupElem:
    return spec.canon((j,) + (0,) * (spec.width - 1))


def _ap_part(spec: GroupSpec, size: int) -> list[GroupElem]:
    if spec.moduli[0] != 0 and size > spec.moduli[0]:
        raise ConfigInvalidError(
            f"part size {size} exceeds first modulus {spec.moduli[0]}"
        )
    return [_ap_element(spec, j) for j in range(size)]


def _random_element(spec: GroupSpec, rng: SplitMix64, free_span: int) -> GroupElem:
    coords = []
    for m in spec.moduli:
        coords.append(rng.next_below(m) if m else rng.next_below(free_span))
    return tuple(coords)


def _pad_lex(picked: list[int], total: int, count: int) -> None:
    """Append to picked the least lexicographic indices below total it
    lacks until it holds count of them."""
    if len(picked) < count:
        missing = filterfalse(set(picked).__contains__, range(total))
        picked.extend(islice(missing, count - len(picked)))


def gen_instance(cfg: GenConfig) -> Instance:
    """Deterministically generate the configured instance. Every family but
    complete picks its edges by lexicographic index: random-density draws
    once per index, dense removes randomly drawn indices, and the sorted
    picks become the columns in one step."""
    total = tuple_total(cfg.sizes)
    spec = make_group(cfg.moduli)
    rng = SplitMix64(cfg.seed)

    if cfg.family in ("complete", "random-density", "dense"):
        parts = [
            ElemSet(spec, tuple(sorted(_ap_part(spec, s)))) for s in cfg.sizes
        ]
    else:  # planted
        group_order = None
        if all(m > 0 for m in cfg.moduli):
            group_order = math.prod(cfg.moduli)
        parts = []
        for s in cfg.sizes:
            if group_order is not None and s > group_order:
                raise ConfigInvalidError(
                    f"part size {s} exceeds group order {group_order}"
                )
            ap_len = max(1, min(s, math.ceil(cfg.ap_fraction * s)))
            elems = set(_ap_part(spec, ap_len))
            free_span = 64 * max(cfg.sizes)
            while len(elems) < s:
                elems.add(_random_element(spec, rng, free_span))
            parts.append(ElemSet(spec, tuple(sorted(elems))))

    sizes = tuple(len(p) for p in parts)
    if cfg.family == "complete":
        hg = PartiteHypergraph.complete(sizes)
    else:
        if cfg.family == "random-density":
            target = math.ceil(Fraction(total) / cfg.k)
            keep_den, keep_num = cfg.k.as_integer_ratio()
            cut = (1 << 64) * keep_num
            # keep with probability 1/k, exactly: u/2^64 < 1/k
            picked = [i for i in range(total) if rng.next_u64() * keep_den < cut]
            del picked[target:]  # drop the lex-largest kept indices
        elif cfg.family == "planted":
            window = math.ceil(cfg.target_c * max(cfg.sizes))
            target_set = {_ap_element(spec, j) for j in range(window)}
            sums = (index_sum(spec, parts, e) for e in product(*map(range, sizes)))
            picked = [i for i, x in enumerate(sums) if x in target_set]
            target = math.ceil(total * cfg.ap_fraction**cfg.r)
        else:  # dense
            remove_count = math.floor(cfg.delta * total)
            removed: set[int] = set()
            while len(removed) < remove_count:
                removed.add(rng.next_below(total))
            picked = [i for i in range(total) if i not in removed]
            target = 0
        _pad_lex(picked, total, target)
        hg = PartiteHypergraph(cfg.r, sizes, _index_columns(sizes, sorted(picked)))

    return Instance(spec, tuple(parts), hg, meta=cfg.meta())


def _nth_root_floor(x: int, n: int) -> int:
    """Floor of the n-th root of a non-negative integer."""
    if x < 0:
        raise ValueError("negative radicand")
    if x == 0:
        return 0
    guess = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        nxt = ((n - 1) * guess + x // guess ** (n - 1)) // n
        if nxt >= guess:
            break
        guess = nxt
    while guess**n > x:
        guess -= 1
    return guess


def root_decimal(value: Fraction, n: int) -> str:
    """The n-th root of a rational, rounded down to 6 decimal places."""
    scaled = value.numerator * 10 ** (6 * n) // value.denominator
    root = _nth_root_floor(scaled, n)
    whole, frac = divmod(root, 10**6)
    return f"{whole}.{frac:06d}"


@dataclass(frozen=True)
class Measurement:
    """Exact instance-level quantities."""

    edge_count: int
    density: Fraction
    k: Fraction
    c_pow_r: Fraction
    c_decimal: str
    restricted_sumset_size: int
    full_sumset_size: int

    def to_json(self) -> dict:
        return {
            "C_decimal_approx": self.c_decimal,
            "C_pow_r": frac_str(self.c_pow_r),
            "K": frac_str(self.k),
            "density": frac_str(self.density),
            "edge_count": self.edge_count,
            "full_sumset_size": self.full_sumset_size,
            "restricted_sumset_size": self.restricted_sumset_size,
        }


def measure_instance(inst: Instance) -> Measurement:
    """Exact density parameter, sumset cap, and sumset sizes of an instance."""
    h = inst.hypergraph
    if h.edge_count == 0:
        raise NoEdgesError("instance has no edges")
    total = h.total_tuples
    osize = len(restricted_sumset(inst))
    c_pow_r = Fraction(osize**inst.r, total)
    return Measurement(
        edge_count=h.edge_count,
        density=h.density(),
        k=h.measured_k(),
        c_pow_r=c_pow_r,
        c_decimal=root_decimal(c_pow_r, inst.r),
        restricted_sumset_size=osize,
        full_sumset_size=len(iterated_sumset(inst.parts)),
    )


def check_bounds(
    result: ExtractionResult,
    inst: Instance,
    mode: str,
) -> BoundReport:
    """Recompute every inequality of the relevant mode from scratch.

    Uses the run parameters recorded in the result (k, or eps and delta,
    and the claimed sumset cap C when the run was given one). The relaxed
    count of every support of the chosen subsets is recomputed by one
    _elimination_counts call over their whole box, which reads the edges
    through a 0/1 byte image of at most TUPLE_CAP bytes and never through
    a flattening; sumsets come from the chosen elements. Nothing else the
    pipeline recorded is trusted. The rows come from the same ledger as
    the pipeline's.
    """
    if result.mode != mode:
        raise ModeMismatchError(f"result mode {result.mode!r} != requested {mode!r}")
    h = inst.hypergraph
    if len(result.subsets) != inst.r:
        raise ModeMismatchError("result arity does not match the instance")
    if mode != "general" and len(set(h.part_sizes)) != 1:
        raise ModeMismatchError("dense verification requires equal part sizes")

    min_count = min(min(fields) for _, fields in _elimination_counts(h, result.subsets))
    restricted_size = None if mode == "dense" else len(restricted_sumset(inst))
    return ledger(inst, result, restricted_size, min_count)


def _elimination_counts(
    h: PartiteHypergraph, box: Sequence[Sequence[int]]
) -> list[tuple[int, Sequence[int]]]:
    """Relaxed counts of every support in the box (one index subset per part).

    The verifier's own counter, built from h's edge columns alone. Returns one
    (v_last, fields) pair per entry of the box's last subset, in the given
    order; with the subsets as given, repeats included, the support with
    indices (k_0, ..., k_{r-2}) into the first r-1 subsets has field index
    k_0 + m_0 k_1 + m_0 m_1 k_2 + ..., m_i being the subset sizes, and the
    fields come highest index first. An empty subset gives an empty list,
    and a zero bound (below) all-zero fields.

    Everything is read from the edge image (_edge_image): one 0/1 byte per
    index tuple in lexicographic order, at most TUPLE_CAP bytes, plus one
    ASCII copy of it. The tuples through vertex v of part i, i < r-1, are
    contiguous blocks of the image, one per prefix over parts 0..i-1; the
    join of v's blocks in the ASCII copy, read by int(..., 2), is v's leg
    mask, and the leg count at (v, w) is the popcount of mask[v] & mask[w],
    and 0 when w == v. A last-part vertex's degree is the count of 1 bytes
    in the image's slice strided by the last part's size. Each support owns
    a field of `size` bytes (an array item size up to 8) at its field index
    in one int; `size` holds the bound, the largest last-part degree times
    each part's largest leg count in the box, and no partial sum below
    exceeds it. A zero bound makes every count 0, and nothing is packed,
    since a leg count in the box may still exceed the 1-byte field. Part
    0's column at mate w packs the box's part-0 leg rows at w, one field
    each. Part 0 is eliminated first: per last-part vertex v and tuple of
    mates in parts 1 up to r-2, the image strided by the
    part-0 step selects, with compress, the part-0 columns of the closing
    edges, whose sum is listed at the mates read as one int index, parts
    r-2 down to 1 in mixed radix. At r = 2 that is all. Otherwise the
    distinct last-part vertices are folded in, the first one most
    significant: each index's vectors are joined into one. Parts 1 up to
    r-2 follow (the reverse of relaxed_count_table's order), each the least
    significant digit, so one run of consecutive indices per rest; a part
    is contracted a row at a time, the sum over mates w of row_k[w] times
    the vector at w for each box row k, joined highest k first. Each last
    subset entry's fields are cut from the final vector. No code is shared
    with octopus.py or flatten, so one packing bug cannot corrupt both
    routes.
    """
    h._check_box(box)
    last = h.r - 1
    if not all(box):
        return []
    sizes = h.part_sizes
    total = h.total_tuples
    image = _edge_image(h)
    bits = image.translate(_ASCII_BITS)
    rows: list[dict[int, list[int]]] = []  # rows[i][v][w]: legs at part i on (v, w)
    # span: the tuples under one prefix over parts < i; block: those through one part-i vertex
    block = total
    for i in range(last):
        span, block = block, block // sizes[i]
        masks = [
            int(b"".join(bits[s : s + block] for s in range(v * block, total, span)), 2)
            for v in range(sizes[i])
        ]
        rows.append({
            v: [0 if w == v else (masks[v] & m).bit_count() for w, m in enumerate(masks)]
            for v in set(box[i])
        })
    n_last = sizes[last]
    bound = max(image[v::n_last].count(1) for v in box[last])  # last-part degree
    for part in rows:
        bound *= max(map(max, part.values()))
    size = (bound.bit_length() + 7) // 8 or 1
    size = min((item for item in _ITEM_CODES if item >= size), default=size)
    if not bound:  # no box vertex of the last part has an edge, or some part no leg
        zeros = bytes(size * math.prod(map(len, box[:last])))
        return [(v, _split_big_first(zeros, size)) for v in box[last]]
    col = _packed_columns([rows[0][v] for v in box[0]], size)
    step = total // sizes[0]  # image distance between part-0 neighbours
    chunk = size * len(box[0])  # one vertex's vector, in bytes
    if last == 1:
        counts = {v: sum(compress(col, image[v::step])) for v in set(box[last])}
        return [
            (v, _split_big_first(counts[v].to_bytes(chunk, "big"), size)) for v in box[last]
        ]
    verts = list(dict.fromkeys(box[last]))
    # offsets[key]: the image index of the tuple (0, mates..., 0) whose mates
    # in parts r-2 down to 1 read as key, part 1 least significant
    offsets = [0]
    weight = n_last  # image distance between part-j neighbours
    for j in range(last - 1, 0, -1):
        offsets = [t + w * weight for t in offsets for w in range(sizes[j])]
        weight *= sizes[j]
    # vecs[key]: the packed counts over box[0] of the closing edges through
    # each of verts whose mates read as key
    firsts = ([sum(compress(col, image[v + t :: step])) for v in verts] for t in offsets)
    vecs = [
        int.from_bytes(b"".join(s.to_bytes(chunk, "big") for s in sums), "big")
        if any(sums) else 0
        for sums in firsts
    ]
    stride = span = chunk * len(verts)  # the folded vector, in bytes
    for p in range(1, last):
        high_first = [rows[p][v] for v in reversed(box[p])]
        runs = (vecs[at : at + sizes[p]] for at in range(0, len(vecs), sizes[p]))
        vecs = [
            int.from_bytes(
                b"".join(sum(map(mul, row, run)).to_bytes(span, "big") for row in high_first),
                "big",
            )
            if any(run) else 0
            for run in runs
        ]
        span *= len(box[p])
    data = (vecs[0] if vecs else 0).to_bytes(span, "big")
    at = {v: x * chunk for x, v in enumerate(verts)}
    return [
        (v, _split_big_first(
            b"".join(data[s : s + chunk] for s in range(at[v], span, stride)), size
        ))
        for v in box[last]
    ]


def _edge_image(h: PartiteHypergraph) -> bytearray:
    """One byte per index tuple of h in lexicographic order: 1 at an edge,
    else 0. The shape check caps its length at TUPLE_CAP.

    Every edge's index is found at once: each edge column, widened to
    4-byte items by strided byte copies, is read as one int of 4-byte
    fields, and Horner's rule over the columns, part 0 first, leaves edge
    e's index in field e. No field carries, since each holds an index below
    TUPLE_CAP < 2^32.
    """
    image = bytearray(h.total_tuples)
    if not h.edge_count:
        return image
    index = 0
    for size, col in zip(h.part_sizes, h.columns):
        index = index * size + int.from_bytes(_widened(col), sys.byteorder)
    for x in array(_ITEM_CODES[4], index.to_bytes(4 * h.edge_count, sys.byteorder)):
        image[x] = 1
    return image


def _widened(col: array) -> bytes:
    """The bytes of col's items as native 4-byte unsigned ints; each item's
    bytes are copied by a strided slice to the low-order end of its field."""
    item = col.itemsize
    data = col.tobytes()
    if item == 4:
        return data
    low = 0 if sys.byteorder == "little" else 4 - item
    out = bytearray(4 * len(col))
    for t in range(item):
        out[low + t :: 4] = data[t::item]
    return out


# the image's 0/1 bytes as the ASCII digits int(..., 2) reads
_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def _packed_columns(box_rows: list[list[int]], size: int) -> list[int]:
    """Per mate w: box_rows[0][w] + box_rows[1][w] << 8*size + ....

    Each row fills every m-th item of one array of size-byte items, m the
    row count, highest row first, so each mate's fields are m consecutive
    items, read big-endian as one int."""
    m = len(box_rows)
    code = _ITEM_CODES.get(size)
    if code is None:  # fields wider than 8 bytes
        return [
            int.from_bytes(b"".join(c.to_bytes(size, "big") for c in reversed(counts)), "big")
            for counts in zip(*box_rows)
        ]
    items = array(code, bytes(size * m * len(box_rows[0])))
    for k, row in enumerate(box_rows):
        items[m - 1 - k :: m] = array(code, row)
    if sys.byteorder == "little":
        items.byteswap()
    data = memoryview(items).cast("B")
    return [int.from_bytes(data[s : s + size * m], "big") for s in range(0, len(data), size * m)]


def _split_big_first(data: bytes, size: int) -> Sequence[int]:
    """The fields of `size` bytes in data, big-endian, in order."""
    code = _ITEM_CODES.get(size)
    if code is None:
        return [int.from_bytes(data[t : t + size], "big") for t in range(0, len(data), size)]
    fields = array(code, data)
    if sys.byteorder == "little":
        fields.byteswap()
    return fields


# array type codes of the unsigned item sizes 1, 2, 4 and 8 bytes
_ITEM_CODES = {array(code).itemsize: code for code in "BHILQ"}


def check_representations(
    result: ExtractionResult,
    inst: Instance,
    l_param: Fraction,
) -> BoundReport:
    """Check the signed representation route through the restricted sumset.

    For each sum s of the chosen subsets, the lexicographically least
    support tuple realizing s is the designated representative. The count of
    signed (2r-1)-term representations of s by restricted-sumset elements
    must reach l_param times the part product to the (2r-2)/r power, and in
    aggregate |S| times that floor cannot exceed the restricted sumset size
    to the (2r-1)-th power. Both are compared after raising to the r-th
    power.
    """
    h = inst.hypergraph
    r = inst.r
    total = h.total_tuples
    l_param = Fraction(l_param)
    spec = inst.spec
    osize_set = restricted_sumset(inst)
    table = representation_table(spec, osize_set, r)

    # Part elements are stored sorted, so lexicographic order on index tuples
    # equals lexicographic order on element tuples; the first support seen
    # for a sum is its lexicographically least representative. That needs
    # every support, so the product is streamed with no cap.
    reps: dict[GroupElem, tuple[int, ...]] = {}
    for sup in product(*result.subsets):
        s = index_sum(spec, inst.parts, sup)
        if s not in reps:
            reps[s] = sup

    # per-s floor: count >= l_param * total^((2r-2)/r), via r-th powers
    per_s_rhs_pow = l_param**r * Fraction(total) ** (2 * r - 2)
    rows: list[Inequality] = []
    worst: tuple[int, GroupElem] | None = None
    all_reach = True
    for s in sorted(reps):
        count = table.get(s, 0)
        if worst is None or count < worst[0]:
            worst = (count, s)
        if Fraction(count) ** r < per_s_rhs_pow:
            all_reach = False
    assert worst is not None
    rows.append(
        check_ge(
            "representation-count-floor",
            Fraction(worst[0]) ** r,
            per_s_rhs_pow,
            "minimum per-sum signed representation count, r-th powers",
        )
    )
    rows.append(
        check_eq(
            "representation-count-all-pass",
            1 if all_reach else 0,
            1,
            "every per-sum count reached the floor",
        )
    )
    s_size = len(reps)
    rows.append(
        check_le(
            "representation-aggregate",
            Fraction(s_size) ** r * l_param**r * Fraction(total) ** (2 * r - 2),
            Fraction(len(osize_set)) ** (r * (2 * r - 1)),
            "aggregate representation inequality, r-th powers",
        )
    )
    return BoundReport(tuple(rows))


def brute_force_best_subsets(
    inst: Instance, min_sizes: Sequence[int]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Exact minimizer of the chosen-subset sumset at given size floors.

    Since sumsets are monotone under inclusion, the optimum over subsets of
    size at least the floor is attained at exactly the floor. Combinations
    are searched depth first in lexicographic order and the first minimizer
    is kept. Floors must be a sequence of ints (bool is rejected). Guarded
    to instances whose total part size is at most 24.

    No group addition happens per combination. The level-i sums are the
    distinct values of a level-(i-1) sum plus a part-i element, where level
    -1 is the identity alone. Each is computed once, a coordinate column at
    a time: column j of the |level i-1| * |part i| sums, in row-major
    order, is one C-level ``map(add, ...)`` over the repeated level column
    and the tiled part column, reduced by ``map(mod, ...)`` when
    coordinate j is cyclic, and zipping the columns gives the sums in the
    order of a nested loop. No ``sumsets`` kernel is used, so the oracle
    stays independent of the pipeline's sumset code. Each sum is given an
    id in order of first appearance, so that a set of level-i sums is an
    int bitmask of ids. The search keeps the mask of level-(i-1) sums
    that the chosen prefix reaches. Column v of part i is the OR, over that
    mask's sums, of the bit of the sum plus element v. Vertices are picked
    one at a time and the mask is the OR of the picked columns; at the last
    part its popcount is |A_0 + ... + A_{r-1}|.

    Branch and bound: a union only grows and a later part adds a translate
    of the sums, so no completion of a prefix is smaller than its popcount.
    When every modulus is 0 the group is torsion-free and its elements,
    compared as tuples, are ordered compatibly with addition, so the bound
    also counts sums every completion must add. Each of the need - 1 picks
    still to come in part i is a larger element than those picked (parts
    are strictly increasing, which ElemSet enforces), so its sum with the
    largest level-(i-1) sum is new; and each later part j adds at least
    m_j - 1 sums, as |X + B| >= |X| + |B| - 1 in such a group. In a group
    with torsion both terms are 0. A prefix whose bound already reaches the
    best size is skipped; its completions lose to, or tie, a best found
    earlier in lexicographic order.
    """
    sizes = inst.part_sizes
    if sum(sizes) > BRUTE_FORCE_SIZE_GUARD:
        raise TooLargeError(
            f"total part size {sum(sizes)} exceeds guard {BRUTE_FORCE_SIZE_GUARD}"
        )
    if not isinstance(min_sizes, Sequence):
        raise ConfigInvalidError(f"floors {min_sizes!r} are not a sequence of ints")
    if len(min_sizes) != inst.r:
        raise ConfigInvalidError(f"{len(min_sizes)} floors for {inst.r} parts")
    for i, m in enumerate(min_sizes):
        if not is_int(m):
            raise ConfigInvalidError(f"floor {m!r} for part {i} is not an integer")
        if not 1 <= m <= sizes[i]:
            raise ConfigInvalidError(
                f"floor {m} for part {i} is out of range [1, {sizes[i]}]"
            )

    spec = inst.spec
    # bits[i][u][v] = 1 << id of (level-(i-1) sum u) + (element v of part i)
    bits: list[list[list[int]]] = []
    level: list[GroupElem] = [spec.identity()]
    for part, n in zip(inst.parts, sizes):
        # coordinate j of every sum, in row-major (u, v) order
        cols = []
        for level_j, part_j, m in zip(zip(*level), zip(*part.elems), spec.moduli):
            col = map(
                add,
                chain.from_iterable(map(repeat, level_j, repeat(n))),
                chain.from_iterable(repeat(part_j, len(level))),
            )
            cols.append(map(mod, col, repeat(m)) if m else col)
        ids: dict[GroupElem, int] = {}
        row = [1 << ids.setdefault(t, len(ids)) for t in zip(*cols)]
        bits.append([row[u : u + n] for u in range(0, len(row), n)])
        level = list(ids)
    last = inst.r - 1
    # tail[i]: sums the parts after part i add to any completion (0 with torsion)
    free = not any(spec.moduli)
    tail = [free * sum(m - 1 for m in min_sizes[i + 1 :]) for i in range(inst.r)]
    picks: list[list[int]] = [[] for _ in sizes]
    best: tuple[tuple[tuple[int, ...], ...], int] = ((), len(level) + 1)  # above any size

    def walk(i: int, state: int) -> None:
        cols = [0] * sizes[i]
        rows = bits[i]
        while state:
            low = state & -state
            cols = [c | b for c, b in zip(cols, rows[low.bit_length() - 1])]
            state ^= low
        pick(i, cols, 0, min_sizes[i], 0)

    def pick(i: int, cols: list[int], start: int, need: int, mask: int) -> None:
        nonlocal best
        later = tail[i] + free * (need - 1)
        for v in range(start, len(cols) - need + 1):
            grown = mask | cols[v]
            size = grown.bit_count()
            if size + later >= best[1]:
                continue  # no completion is smaller than this bound
            picks[i].append(v)
            if need > 1:
                pick(i, cols, v + 1, need - 1, grown)
            elif i < last:
                walk(i + 1, grown)
            elif size < best[1]:  # strict, so a tie keeps the earlier minimizer
                best = (tuple(map(tuple, picks)), size)
            picks[i].pop()

    walk(0, 1)  # level -1 is the identity alone, id 0
    return best
