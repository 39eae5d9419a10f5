"""The packed sum kernels against a naive GroupSpec.add fold.

restricted_sumset, sumset, iterated_sumset, sum_stats and
representation_table add int codes, not tuples. Each is compared here with
tests/oracles.py, which folds GroupSpec.add over every term. Groups have
widths 1 to 3 and mix free coordinates (small, negative, and beyond
+-2^64) with Z_2, Z_7 and a large cyclic modulus. Sets are canonicalized
from raw values, so cyclic coordinates outside [0, m) are covered too. A
set built directly must be accepted exactly when its elements are already
in that canonical form, and refused with a typed error otherwise.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bsgkit import sumsets  # noqa: E402
from bsgkit.errors import ArityMismatchError, ConfigInvalidError, ShapeMismatchError  # noqa: E402
from bsgkit.groups import make_group  # noqa: E402
from bsgkit.hypergraph import Instance, PartiteHypergraph  # noqa: E402
from bsgkit.sumsets import (  # noqa: E402
    ElemSet,
    iterated_sumset,
    representation_table,
    restricted_sumset,
    sum_stats,
    sumset,
)
from oracles import (  # noqa: E402
    oracle_restricted_sumset,
    oracle_signed_histogram,
    oracle_sumset,
)

SETTINGS = settings(
    max_examples=80,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BIG = 1 << 64
LARGE_MODULUS = (1 << 89) - 1
MODULI = st.lists(st.sampled_from([0, 2, 7, LARGE_MODULUS]), min_size=1, max_size=3)


def _coords(m):
    if m == 0:
        return st.integers(-4, 4) | st.integers(BIG - 2, BIG + 2) | st.integers(-BIG - 2, -BIG + 2)
    return st.integers(-m, 2 * m - 1)


def _raw_set(moduli, min_size, max_size):
    """Elements of the group's width, cyclic coordinates in [-m, 2m)."""
    elem = st.tuples(*[_coords(m) for m in moduli])
    return st.lists(elem, min_size=min_size, max_size=max_size)


@st.composite
def set_families(draw, min_sets=1, max_sets=3, min_size=0, max_size=4):
    moduli = tuple(draw(MODULI))
    count = draw(st.integers(min_sets, max_sets))
    return moduli, [draw(_raw_set(moduli, min_size, max_size)) for _ in range(count)]


@st.composite
def instance_data(draw):
    moduli = tuple(draw(MODULI))
    r = draw(st.integers(2, 4))
    parts = [draw(_raw_set(moduli, 1, 3)) for _ in range(r)]
    spec = make_group(moduli)
    sizes = [len(ElemSet.from_iterable(spec, p)) for p in parts]
    edges = draw(st.lists(st.tuples(*[st.integers(0, s - 1) for s in sizes]), max_size=12))
    return moduli, parts, edges


def _instance(moduli, raw_parts, edges):
    spec = make_group(moduli)
    parts = tuple(ElemSet.from_iterable(spec, p) for p in raw_parts)
    hg = PartiteHypergraph.build(len(parts), [len(p) for p in parts], edges)
    return Instance(spec, parts, hg)


@SETTINGS
@given(data=instance_data())
@example(data=((0, 7), [[(1, 2)], [(-BIG, 9)]], []))
@example(data=((0, 7), [[(1, 9)], [(-BIG, -1)]], [(0, 0)]))
def test_restricted_sumset_matches_fold(data):
    inst = _instance(*data)
    assert restricted_sumset(inst).elems == oracle_restricted_sumset(inst)


@SETTINGS
@given(family=set_families(min_sets=2))
@example(family=((2,), [[(1,)], [(3,)]]))
@example(family=((0, 2), [[(BIG, 3)], []]))
def test_sumset_and_iterated_sumset_match_fold(family):
    moduli, raw_sets = family
    spec = make_group(moduli)
    sets = [ElemSet.from_iterable(spec, raw) for raw in raw_sets]
    expected = oracle_sumset(spec, [s.elems for s in sets])
    assert iterated_sumset(sets).elems == expected
    if len(sets) == 2:
        assert sumset(*sets).elems == expected


@SETTINGS
@given(family=set_families(min_sets=1, max_sets=1, min_size=1, max_size=6))
@example(family=((LARGE_MODULUS,), [[(-1,)]]))
def test_sum_stats_matches_fold(family):
    moduli, (raw,) = family
    spec = make_group(moduli)
    a = ElemSet.from_iterable(spec, raw)
    hist = oracle_signed_histogram(spec, a.elems, (1, 1))
    stats = sum_stats(a)
    assert stats.sumset_size == len(hist)
    assert stats.doubling == Fraction(len(hist), len(a))
    assert stats.energy == sum(c * c for c in hist.values())


@SETTINGS
@given(
    family=set_families(min_sets=1, max_sets=1, min_size=1, max_size=4),
    r=st.integers(2, 4),
)
@example(family=((7, 0), [[(-3, -BIG)]]), r=2)
def test_representation_table_matches_fold(family, r):
    moduli, (raw,) = family
    spec = make_group(moduli)
    # Canonical elements only: the minus histogram keys on negated elements,
    # which are canonical. At most 4^3, 3^5 or 2^7 tuples.
    s_set = ElemSet.from_iterable(spec, raw[: 6 - r])
    elems = s_set.elems
    # Coordinates beyond 2^64 are far outside the free-coordinate box cap;
    # the cap has its own test in test_sumsets.py.
    with mock.patch.object(sumsets, "DEFAULT_CONV_CELL_CAP", math.inf):
        table = representation_table(spec, s_set, r)
    expected = oracle_signed_histogram(spec, elems, (1,) * (r - 1) + (-1,) * (r - 1) + (1,))
    assert table == dict(expected)


@SETTINGS
@given(
    family=set_families(min_sets=1, max_sets=1, min_size=1, max_size=4),
    r=st.integers(2, 4),
)
@example(family=((2, 2), [[(0, 0), (0, 2)]]), r=2)
def test_representation_table_of_a_raw_set_is_canonical(family, r):
    # raw elements may hold one element under two representatives, unsorted;
    # built directly they are refused, so the table is that of the canonical
    # set: every key is canonical and the counts sum to |S|^(2r-1)
    moduli, (raw,) = family
    spec = make_group(moduli)
    raw = tuple(raw[: 6 - r])
    s_set = ElemSet.from_iterable(spec, raw)
    if raw != s_set.elems:
        with pytest.raises(ConfigInvalidError):
            ElemSet(spec, raw)
    with mock.patch.object(sumsets, "DEFAULT_CONV_CELL_CAP", math.inf):
        table = representation_table(spec, s_set, r)
    for key in table:
        assert ElemSet(spec, (key,)).elems == (key,)
    assert sum(table.values()) == len(s_set) ** (2 * r - 1)


@st.composite
def element_tuples(draw):
    """A group and a tuple of elements drawn near its canonical form: some
    of another width, a few coordinates floats or bools, cyclic coordinates
    in [-m, 2m), in drawn or sorted order."""
    moduli = tuple(draw(MODULI))
    width = len(moduli)
    elems = []
    for _ in range(draw(st.integers(0, 4))):
        w = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        elems.append(tuple(
            draw(
                st.floats(-3, 3) | st.booleans()
                if draw(st.integers(0, 7)) == 0
                else _coords(moduli[j % width])
            )
            for j in range(w)
        ))
    return moduli, tuple(sorted(elems) if draw(st.booleans()) else elems)


@SETTINGS
@given(data=element_tuples())
@example(data=((2, 2), ((0, 0), (0, 2))))
@example(data=((7,), ((1,), (3,))))
@example(data=((0,), ((2,), (1,))))
@example(data=((0,), ((1,), (1.5,))))
@example(data=((5,), ((True,), (2,))))
@example(data=((0,), ((False,), (2,))))
@example(data=((0, 7), ((1,),)))
def test_elemset_accepts_exactly_its_canonical_form(data):
    moduli, elems = data
    spec = make_group(moduli)
    try:
        canonical = ElemSet.from_iterable(spec, elems).elems
    except (ConfigInvalidError, ShapeMismatchError):
        canonical = None
    if elems == canonical:
        assert ElemSet(spec, elems).elems == elems
    else:
        with pytest.raises((ConfigInvalidError, ShapeMismatchError)):
            ElemSet(spec, elems)


def test_representation_table_rejects_low_arity():
    spec = make_group((0,))
    with pytest.raises(ArityMismatchError):
        representation_table(spec, ElemSet.from_iterable(spec, [(1,)]), 1)
