"""The verifier kernel's edge image on shapes random draws rarely reach.

instances._elimination_counts reads everything from a 0/1 byte image of
the edge set: leg masks from contiguous blocks, last-part degrees and the
part-0 pass from strided slices. Each case is compared support by support
with tests/oracles.py's oracle_relaxed through tests/kernel_tables.py, for
both kernels: a last-part vertex with no edge, a part of size 1, r = 6
with parts of size 2, and a box that repeats a last-part vertex.
"""

from itertools import product

import pytest

from bsgkit.hypergraph import PartiteHypergraph
from bsgkit.instances import _elimination_counts
from kernel_tables import pipeline_table, verifier_table
from oracles import oracle_relaxed


def _scattered(sizes, keep=lambda e: True):
    """A hypergraph on these part sizes whose edges are the tuples that
    keep accepts, thinned by a fixed pattern so no row is complete."""
    edges = [
        e for e in product(*map(range, sizes))
        if keep(e) and sum((i + 2) * x for i, x in enumerate(e)) % 3
    ]
    return PartiteHypergraph.build(len(sizes), sizes, edges)


def _check(h, box):
    """Both kernels' tables against the oracle on every support of box."""
    expected = {sup: oracle_relaxed(h, sup) for sup in product(*box)}
    assert verifier_table(h, box) == expected
    assert pipeline_table(h, box) == expected
    return expected


@pytest.mark.parametrize("sizes", [(3, 4), (3, 2, 4), (2, 3, 2, 3)], ids=["r2", "r3", "r4"])
def test_last_part_vertex_with_no_edge(sizes):
    # every slice strided through last-part vertex 2 is all zeros
    h = _scattered(sizes, keep=lambda e: e[-1] != 2)
    box = [list(range(s)) for s in sizes]
    expected = _check(h, box)
    assert all(count == 0 for sup, count in expected.items() if sup[-1] == 2)
    assert any(count > 0 for sup, count in expected.items() if sup[-1] != 2)


@pytest.mark.parametrize(
    "sizes",
    [(1, 4), (4, 1), (1, 3, 4), (3, 1, 4), (3, 4, 1), (2, 1, 3, 2)],
    ids=["r2-first", "r2-last", "r3-first", "r3-middle", "r3-last", "r4-second"],
)
def test_part_of_size_one(sizes):
    # a part of one vertex has one leg mask and no mate other than itself,
    # so every support that needs a distinct mate there counts 0
    h = _scattered(sizes)
    box = [list(range(s)) for s in sizes]
    expected = _check(h, box)
    if 1 in sizes[:-1]:
        assert set(expected.values()) == {0}


def test_six_parts_of_size_two():
    # the deepest product of mid tuples: parts 1 to 4, 16 per last-part vertex
    h = _scattered((2,) * 6)
    box = [[0, 1]] * 6
    expected = _check(h, box)
    assert len(expected) == 64 and any(expected.values())


def test_box_repeating_a_last_part_vertex():
    # one (v_last, fields) pair per entry of the last subset, repeats
    # included, in the given order
    h = _scattered((3, 3, 4))
    box = [[0, 2], [1, 0, 2], [3, 1, 3, 0]]
    expected = _check(h, box)
    pairs = _elimination_counts(h, box)
    assert [v for v, _ in pairs] == box[-1]
    assert list(pairs[0][1]) == list(pairs[2][1])
    assert any(expected.values())
