"""The column-wise hypergraph kernels against brute-force references.

build, flatten, Bipartite.right_degrees, degree, induce and
restricted_sumset work on per-part coordinate columns. Each is compared
here with tests/oracles.py, which scans every index tuple against a set of
the edges. Hypergraphs have arity 2 to 4 and parts of 0 to 3 vertices,
and are built from edge lists that may be empty, unsorted or repeat edges;
build is also run at part sizes on both sides of each column item limit.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bsgkit.groups import make_group  # noqa: E402
from bsgkit.hypergraph import Instance, PartiteHypergraph  # noqa: E402
from bsgkit.sumsets import ElemSet, restricted_sumset  # noqa: E402
from oracles import (  # noqa: E402
    oracle_degree,
    oracle_flatten_masks,
    oracle_induce,
    oracle_restricted_sumset,
    oracle_right_degrees,
)

SETTINGS = settings(
    max_examples=80,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def edge_lists(draw, min_size=0):
    """(r, part sizes, raw edge list); the list may repeat and reorder edges."""
    r = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(min_size, 3), min_size=r, max_size=r)))
    if 0 in sizes:
        return r, sizes, []
    edge = st.tuples(*[st.integers(0, s - 1) for s in sizes])
    distinct = draw(st.lists(edge, max_size=20, unique=True))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=5)) if distinct else []
    return r, sizes, draw(st.permutations(distinct + repeats))


def _build(data):
    r, sizes, edges = data
    return PartiteHypergraph.build(r, sizes, edges)


EMPTY = (3, (1, 2, 1), [])
SINGLETONS = (4, (1, 1, 1, 1), [(0, 0, 0, 0), (0, 0, 0, 0)])
UNSORTED = (2, (3, 2), [(2, 1), (0, 1), (2, 1), (1, 0), (0, 0)])


@SETTINGS
@given(data=edge_lists())
@example(data=EMPTY)
@example(data=SINGLETONS)
@example(data=UNSORTED)
def test_build_deduplicates_and_sorts(data):
    h = _build(data)
    assert h.edges == tuple(sorted(set(data[2])))
    assert h.part_sizes == data[1]


# part sizes on both sides of the 1- and 2-byte item limits
ITEM_EDGES = (255, 256, 257, 65535, 65536, 65537)


@st.composite
def wide_edge_lists(draw):
    """(r, part sizes, raw edge list) with one part of a size in ITEM_EDGES
    and the others small; coordinates cluster at both ends of each part,
    and edges may repeat, come in any order and be lists or tuples."""
    small = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    sizes = tuple(draw(st.permutations([draw(st.sampled_from(ITEM_EDGES))] + small)))
    edge = st.tuples(*(
        st.integers(0, min(2, s - 1)) | st.integers(max(0, s - 3), s - 1) | st.integers(0, s - 1)
        for s in sizes
    ))
    distinct = draw(st.lists(edge, max_size=30))
    repeats = draw(st.lists(st.sampled_from(distinct), max_size=8)) if distinct else []
    raw = [draw(st.sampled_from([tuple, list]))(e) for e in distinct + repeats]
    return len(sizes), sizes, draw(st.permutations(raw))


@SETTINGS
@given(data=wide_edge_lists())
@example(data=(2, (65537, 2), [(65536, 1), (65536, 1), (0, 0)]))
@example(data=(2, (2, 256), [(0, 255), (1, 0), (1, 0)]))
@example(data=(3, (1, 257, 1), [(0, 256, 0), (0, 0, 0), (0, 256, 0)]))
def test_build_stores_sorted_unique_edges_in_the_smallest_columns(data):
    r, sizes, raw = data
    h = PartiteHypergraph.build(r, sizes, raw)
    assert h.edges == tuple(sorted(set(map(tuple, raw))))
    assert [col.itemsize for col in h.columns] == [
        1 if size <= 256 else 2 if size <= 65536 else 4 for size in sizes
    ]


@SETTINGS
@given(data=edge_lists())
@example(data=EMPTY)
@example(data=SINGLETONS)
@example(data=UNSORTED)
@example(data=(3, (2, 0, 3), []))
def test_flatten_and_right_degrees_match_scans(data):
    h = _build(data)
    for part in range(h.r):
        flat = h.flatten(part)
        assert list(flat.adj) == oracle_flatten_masks(h, part)
        assert list(flat.right_degrees) == oracle_right_degrees(h, part)


@SETTINGS
@given(data=edge_lists())
@example(data=EMPTY)
@example(data=SINGLETONS)
@example(data=UNSORTED)
def test_degree_matches_scan(data):
    h = _build(data)
    for part, size in enumerate(h.part_sizes):
        for v in range(size):
            assert h.degree(part, v) == oracle_degree(h, part, v)


@st.composite
def induce_cases(draw):
    """A hypergraph and per-part subsets, which may be unsorted, repeat
    vertices or be empty."""
    r, sizes, edges = draw(edge_lists())
    subsets = [draw(st.lists(st.integers(0, s - 1), max_size=4)) if s else [] for s in sizes]
    return (r, sizes, edges), subsets


@SETTINGS
@given(case=induce_cases())
@example(case=(EMPTY, [[0], [1, 1], []]))
@example(case=(SINGLETONS, [[0], [0], [0], [0, 0]]))
@example(case=(UNSORTED, [[2, 0, 2], [1, 0]]))
def test_induce_matches_scan(case):
    data, subsets = case
    h = _build(data)
    sizes, edges = oracle_induce(h, subsets)
    smaller = h.induce(subsets)
    assert (smaller.part_sizes, smaller.edges) == (sizes, edges)


@SETTINGS
@given(data=edge_lists(min_size=1), moduli=st.sampled_from([(0,), (5,), (0, 3)]))
@example(data=EMPTY, moduli=(0,))
@example(data=SINGLETONS, moduli=(5,))
@example(data=UNSORTED, moduli=(0, 3))
def test_restricted_sumset_matches_fold(data, moduli):
    spec = make_group(moduli)
    h = _build(data)
    # part i holds v * (i + 1) at every coordinate; the scale is prime to 5,
    # so the elements of a part stay distinct in every group drawn
    parts = tuple(
        ElemSet.from_iterable(spec, [(v * (i + 1),) * spec.width for v in range(size)])
        for i, size in enumerate(h.part_sizes)
    )
    inst = Instance(spec, parts, h)
    assert restricted_sumset(inst).elems == oracle_restricted_sumset(inst)
