"""Sumsets, doubling, additive energy, and signed representation counting.

Expected values are either asserted directly for trivial cases or first
computed here by independent brute-force enumeration and then compared.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from bsgkit import sumsets
from bsgkit.errors import (
    EmptySetError,
    ShapeMismatchError,
    SpecMismatchError,
    TooLargeError,
    UnsupportedGroupError,
)
from bsgkit.groups import GroupSpec, make_group
from bsgkit.hypergraph import Instance, PartiteHypergraph
from bsgkit.sumsets import (
    ElemSet,
    iterated_sumset,
    representation_count,
    representation_table,
    index_sum,
    restricted_sumset,
    sum_stats,
    sumset,
)
from oracles import (
    oracle_restricted_sumset,
    oracle_signed_histogram,
    oracle_sum_fold,
    oracle_sumset,
)

Z = make_group([0])
Z5 = make_group([5])


def zset(*values):
    return ElemSet.from_iterable(Z, [(v,) for v in values])


def z5set(*values):
    return ElemSet.from_iterable(Z5, [(v,) for v in values])


def brute_energy(a: ElemSet) -> int:
    spec = a.spec
    count = 0
    for x, y, xp, yp in product(a.elems, repeat=4):
        if spec.add(x, y) == spec.add(xp, yp):
            count += 1
    return count


def brute_representations(spec, elems, s, r) -> int:
    count = 0
    for tup in product(elems, repeat=2 * r - 1):
        acc = spec.identity()
        for i in range(r - 1):
            acc = spec.add(acc, tup[i])
        for i in range(r - 1, 2 * r - 2):
            acc = spec.add(acc, spec.neg(tup[i]))
        acc = spec.add(acc, tup[2 * r - 2])
        if acc == spec.canon(s):
            count += 1
    return count


def test_sumset_examples():
    assert sumset(zset(0, 1), zset(0, 1)).elems == ((0,), (1,), (2,))
    n = 9
    ap = zset(*range(n))
    assert len(sumset(ap, ap)) == 2 * n - 1
    full = z5set(0, 1, 2, 3, 4)
    assert len(sumset(full, z5set(0))) == 5
    with pytest.raises(SpecMismatchError):
        sumset(zset(0), z5set(0))


def test_iterated_sumset_examples():
    s01 = zset(0, 1)
    assert iterated_sumset([s01, s01, s01]).elems == ((0,), (1,), (2,), (3,))
    single = zset(0, 1, 2, 3, 4)
    assert iterated_sumset([single]) == single
    z4 = make_group([4])
    sub = ElemSet.from_iterable(z4, [(0,), (2,)])
    assert iterated_sumset([sub, sub]).elems == ((0,), (2,))
    with pytest.raises(EmptySetError):
        iterated_sumset([])


def test_energy_examples():
    assert sum_stats(zset(0)).energy == 1
    assert sum_stats(zset(0, 1, 2)).energy == 19
    assert brute_energy(zset(0, 1, 2)) == 19


def test_energy_closed_form_small():
    # enumeration oracle confirms the closed form for n <= 8
    for n in range(1, 9):
        ap = zset(*range(n))
        expected = (2 * n**3 + n) // 3
        assert brute_energy(ap) == expected
        assert sum_stats(ap).energy == expected


def test_energy_matches_enumeration_random():
    rnd = random.Random(99)
    for _ in range(10):
        vals = rnd.sample(range(-20, 40), rnd.randint(1, 7))
        a = zset(*vals)
        assert sum_stats(a).energy == brute_energy(a)
    for _ in range(5):
        vals = [rnd.randrange(5) for _ in range(rnd.randint(1, 5))]
        a = z5set(*vals)
        assert sum_stats(a).energy == brute_energy(a)


def test_energy_bounds_random_sets():
    rnd = random.Random(5)
    for _ in range(20):
        vals = rnd.sample(range(100), rnd.randint(1, 10))
        a = zset(*vals)
        e = sum_stats(a).energy
        assert len(a) ** 2 <= e <= len(a) ** 3


def test_sidon_set_energy_is_minimal():
    # all pairwise sums distinct: only (x,y,x,y) and (x,y,y,x) quadruples
    sidon = zset(1, 2, 5, 11)
    n = len(sidon)
    assert sum_stats(sidon).energy == 2 * n**2 - n
    assert brute_energy(sidon) == 2 * n**2 - n


def test_doubling_examples():
    assert sum_stats(zset(*range(10))).doubling == Fraction(19, 10)
    assert sum_stats(z5set(0, 1, 2, 3, 4)).doubling == 1
    assert sum_stats(zset(1, 2, 5, 11)).doubling == Fraction(10, 4)
    with pytest.raises(EmptySetError):
        sum_stats(ElemSet.from_iterable(Z, []))


def test_sum_stats_size_matches_set_sumset():
    # the histogram kernel and the set-based sumset are two routes to |A+A|
    rnd = random.Random(23)
    for spec_moduli, span in (((0,), 40), ((6,), 6), ((3, 0), 9)):
        spec = make_group(spec_moduli)
        for _ in range(5):
            size = rnd.randint(1, 8)
            elems = [tuple(rnd.randrange(span) for _ in spec_moduli) for _ in range(size)]
            a = ElemSet.from_iterable(spec, elems)
            stats = sum_stats(a)
            assert stats.sumset_size == len(sumset(a, a))
            assert stats.doubling == Fraction(len(sumset(a, a)), len(a))


def test_index_sum_matches_group_sum():
    rnd = random.Random(29)
    for spec_moduli in ((0,), (7,), (4, 0)):
        spec = make_group(spec_moduli)
        for r in (1, 2, 3):
            parts = [
                ElemSet.from_iterable(
                    spec, [tuple(rnd.randrange(-9, 9) for _ in spec_moduli) for _ in range(4)]
                )
                for _ in range(r)
            ]
            for _ in range(5):
                index = tuple(rnd.randrange(len(p)) for p in parts)
                expected = oracle_sum_fold(spec, [p.elems[v] for p, v in zip(parts, index)])
                assert index_sum(spec, parts, index) == expected


def _instance(parts_vals, edges):
    parts = tuple(zset(*vals) for vals in parts_vals)
    hg = PartiteHypergraph.build(len(parts), [len(p) for p in parts], edges)
    return Instance(Z, parts, hg)


def test_restricted_sumset_examples():
    # complete hypergraph: equals the iterated sumset of the parts
    parts_vals = [[0, 1, 5], [0, 2]]
    all_edges = [(i, j) for i in range(3) for j in range(2)]
    inst = _instance(parts_vals, all_edges)
    assert restricted_sumset(inst) == iterated_sumset(inst.parts)

    single = _instance(parts_vals, [(2, 1)])
    assert restricted_sumset(single).elems == ((7,),)

    diag = _instance([[0, 1, 2], [0, 1, 2]], [(i, i) for i in range(3)])
    assert restricted_sumset(diag).elems == ((0,), (2,), (4,))


def test_restricted_sumset_monotone_under_edges():
    parts_vals = [[0, 1, 2, 3], [0, 2, 5, 6]]
    edges = [(0, 1), (2, 3), (1, 0)]
    small = _instance(parts_vals, edges)
    bigger = _instance(parts_vals, edges + [(3, 2)])
    assert set(restricted_sumset(small).elems) <= set(restricted_sumset(bigger).elems)


def test_representation_count_examples():
    s01 = z5set(0, 1)
    assert representation_count(Z5, s01, (0,), 2) == 3
    assert brute_representations(Z5, s01.elems, (0,), 2) == 3

    ident = z5set(0)
    assert representation_count(Z5, ident, (0,), 3) == 1
    assert representation_count(Z5, ident, (1,), 3) == 0

    full = z5set(0, 1, 2, 3, 4)
    for s in range(5):
        assert representation_count(Z5, full, (s,), 2) == 25

    with pytest.raises(SpecMismatchError):
        representation_count(Z, s01, (0,), 2)


def test_representation_total_is_power():
    rnd = random.Random(3)
    for r in (2, 3):
        for _ in range(4):
            vals = rnd.sample(range(11), rnd.randint(1, 4))
            spec = make_group([11])
            s_set = ElemSet.from_iterable(spec, [(v,) for v in vals])
            table = representation_table(spec, s_set, r)
            assert sum(table.values()) == len(s_set) ** (2 * r - 1)


def test_representation_matches_enumeration():
    rnd = random.Random(17)
    for spec_moduli, span in (((0,), 9), ((7,), 7), ((2, 0), 5)):
        spec = make_group(spec_moduli)
        for r in (2, 3):
            for _ in range(3):
                k = rnd.randint(1, 3)
                elems = set()
                while len(elems) < k:
                    elems.add(
                        spec.canon(
                            tuple(rnd.randrange(span) for _ in spec_moduli)
                        )
                    )
                s_set = ElemSet.from_iterable(spec, elems)
                table = representation_table(spec, s_set, r)
                # totals agree, and every attained sum agrees with brute force
                assert sum(table.values()) == len(s_set) ** (2 * r - 1)
                for s, count in table.items():
                    assert brute_representations(spec, s_set.elems, s, r) == count


def test_representation_cell_cap(monkeypatch):
    wide = zset(0, 10**6)
    monkeypatch.setattr(sumsets, "DEFAULT_CONV_CELL_CAP", 1000)
    with pytest.raises(UnsupportedGroupError):
        representation_count(Z, wide, (0,), 2)
    # modular groups never hit the cap
    monkeypatch.setattr(sumsets, "DEFAULT_CONV_CELL_CAP", 1)
    assert representation_count(Z5, z5set(0, 1), (0,), 2) == 3


def test_pair_cap_refuses_before_any_addition(monkeypatch):
    monkeypatch.setattr(sumsets, "TUPLE_CAP", 6)
    monkeypatch.setattr(sumsets, "PAIR_CAP", 4)
    a, b = zset(0, 1, 5), zset(0, 2)
    assert sumset(a, b).elems == ((0,), (1,), (2,), (3,), (5,), (7,))  # 6 pairs, at the cap
    assert iterated_sumset([b, b]).elems == ((0,), (2,), (4,))
    assert sum_stats(b).energy == 6  # 4 pairs, at the cap

    def refuse(*args):
        raise AssertionError("addition before the cap check")

    monkeypatch.setattr(GroupSpec, "add", refuse)
    monkeypatch.setattr(sumsets, "_pack", refuse)
    with pytest.raises(
        TooLargeError, match="sets of sizes 3 and 3: 9, above the cap of 6"
    ):
        sumset(a, a)
    with pytest.raises(TooLargeError, match="set of size 3: 9, above the cap of 4"):
        sum_stats(a)


SPEC = make_group([0, 7])
SKEW = ElemSet(SPEC, ((1, 2), (3,)))  # built directly, so nothing checked the width
BIG = 1 << 64


@pytest.mark.parametrize("kernel", [
    lambda: sumset(ElemSet.from_iterable(SPEC, [(0, 0)]), SKEW),
    lambda: sumset(SKEW, SKEW),
    lambda: sum_stats(SKEW),
    lambda: sum_stats(ElemSet(Z, ((1,), (2, 3)))),
    lambda: representation_table(SPEC, SKEW, 2),
])
def test_wrong_width_element_raises(kernel):
    with pytest.raises(ShapeMismatchError, match="coordinates, spec has"):
        kernel()


def test_kernels_run_without_group_add(monkeypatch):
    a = ElemSet.from_iterable(SPEC, [(-BIG, 6), (0, 3), (5, 0)])
    b = ElemSet.from_iterable(SPEC, [(2, 4), (BIG, 1)])
    free = ElemSet.from_iterable(Z, [(-BIG,), (0,), (1,), (2,), (BIG,)])
    hg = PartiteHypergraph.build(2, [3, 2], [(0, 1), (2, 0), (2, 1)])
    inst = Instance(SPEC, (a, b), hg)
    expected = {
        "restricted": oracle_restricted_sumset(inst),
        "sumset": oracle_sumset(SPEC, [a.elems, b.elems, a.elems]),
        "energy": sum(c * c for c in oracle_signed_histogram(SPEC, a.elems, (1, 1)).values()),
        "free": sum(c * c for c in oracle_signed_histogram(Z, free.elems, (1, 1)).values()),
        "table": dict(oracle_signed_histogram(SPEC, b.elems, (1, -1, 1))),
    }

    def refuse(*args):
        raise AssertionError("GroupSpec.add called")

    monkeypatch.setattr(GroupSpec, "add", refuse)
    monkeypatch.setattr(sumsets, "DEFAULT_CONV_CELL_CAP", math.inf)
    assert restricted_sumset(inst).elems == expected["restricted"]
    assert iterated_sumset([a, b, a]).elems == expected["sumset"]
    assert sum_stats(a).energy == expected["energy"]
    assert sum_stats(free).energy == expected["free"]
    assert representation_table(SPEC, b, 2) == expected["table"]
    with pytest.raises(AssertionError, match="GroupSpec.add called"):
        SPEC.add((0, 0), (0, 0))


def test_elemset_dedup_and_order():
    s = ElemSet.from_iterable(Z5, [(7,), (2,), (2,), (0,)])
    assert s.elems == ((0,), (2,))
    assert (2,) in s and (1,) not in s
