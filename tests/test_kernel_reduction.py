"""How the relaxed-count kernels' fields are reduced, against the oracle.

verify_relaxed_counts reduces relaxed_count_table's fields one last-part
vertex at a time, and check_bounds takes the minimum of
instances._elimination_counts' fields. Each case here is checked support by
support against tests/oracles.py's oracle_relaxed: ties at the minimum at
several last-part vertices and heads, failing supports that interleave
last-part vertices, a last-part vertex with no closing edge, and a
verifier box that repeats a vertex and is out of order.
"""

from fractions import Fraction
from itertools import product

import pytest

from bsgkit.extraction import verify_relaxed_counts
from bsgkit.hypergraph import PartiteHypergraph
from bsgkit.instances import _elimination_counts
from kernel_tables import pipeline_table, verifier_table
from oracles import oracle_relaxed

# (sizes, edges, limit): the minimum is tied at several last-part vertices,
# and the lexicographically first tied support does not have the smallest
# last-part vertex among them; the supports below the limit, in order, do
# not come grouped by last-part vertex
CASES = {
    "r2": ((4, 3), [(0, 0), (0, 2), (1, 0), (2, 0), (2, 1), (2, 2), (3, 0), (3, 1)], 4),
    "r3": (
        (3, 3, 3),
        [
            (0, 0, 2), (0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 1), (0, 2, 2), (1, 0, 0),
            (1, 0, 1), (1, 0, 2), (1, 1, 0), (1, 1, 1), (1, 1, 2), (1, 2, 0), (1, 2, 1),
            (1, 2, 2), (2, 0, 0), (2, 0, 1), (2, 0, 2), (2, 1, 2), (2, 2, 0),
        ],
        55,
    ),
}


def _oracle(h, box):
    return {sup: oracle_relaxed(h, sup) for sup in product(*box)}


def _check_sweep(h, box, threshold):
    """verify_relaxed_counts and both kernels against the oracle; returns
    the oracle's minimum support and failing supports."""
    expected = _oracle(h, box)
    low = min(expected.values())
    limit = -(-threshold.numerator // threshold.denominator)
    first = min(sup for sup, count in expected.items() if count == low)
    failing = tuple(sorted(sup for sup, count in expected.items() if count < limit))
    outcome = verify_relaxed_counts(h, box, threshold)
    assert outcome.min_count == low
    assert outcome.min_support == first
    assert outcome.failing_supports == failing
    assert outcome.checked == len(expected)
    assert pipeline_table(h, box) == expected
    assert verifier_table(h, box) == expected
    assert min(min(fields) for _, fields in _elimination_counts(h, box)) == low
    return expected, first, failing


@pytest.mark.parametrize("name", sorted(CASES))
def test_ties_and_failures_across_last_part_vertices(name):
    sizes, edges, limit = CASES[name]
    h = PartiteHypergraph.build(len(sizes), sizes, edges)
    box = [list(range(s)) for s in sizes]
    # a fractional threshold fails exactly the counts below its ceiling
    for threshold in (Fraction(limit), Fraction(2 * limit - 1, 2)):
        expected, first, failing = _check_sweep(h, box, threshold)
    tied = [sup for sup, count in expected.items() if count == expected[first]]
    assert any(sup[-1] < first[-1] for sup in tied)
    lasts = [sup[-1] for sup in failing]
    assert len(set(lasts)) > 1 and lasts != sorted(lasts)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_last_part_vertex_without_closing_edges(r):
    # last-part vertex 1 has no edge at all, so each of its supports counts 0;
    # the minimum is 0 there and every one of them fails
    sizes = (3,) * r
    edges = [e for e in product(*map(range, sizes)) if e[-1] != 1]
    h = PartiteHypergraph.build(r, sizes, edges)
    box = [[0, 2]] * (r - 1) + [[0, 1, 2]]
    expected, first, failing = _check_sweep(h, box, Fraction(1))
    assert first == (0,) * (r - 1) + (1,)
    assert failing == tuple(sup for sup in expected if sup[-1] == 1)
    assert all(count > 0 for sup, count in expected.items() if sup[-1] != 1)
    for kernel in (pipeline_table, verifier_table):
        zeros = {sup: count for sup, count in kernel(h, box).items() if sup[-1] == 1}
        assert len(zeros) == 2 ** (r - 1) and set(zeros.values()) == {0}


def test_verifier_box_with_repeated_and_unordered_vertices():
    # the verifier takes a box as given; a repeated vertex repeats its
    # fields, and the order of a subset only moves them
    sizes, edges, limit = CASES["r3"]
    h = PartiteHypergraph.build(3, sizes, edges)
    box = [[2, 0, 2], [1, 0], [2, 1, 2]]
    expected = _oracle(h, box)
    fields = [count for _, row in _elimination_counts(h, box) for count in row]
    assert len(fields) == 3 * 2 * 3
    assert verifier_table(h, box) == expected
    assert sorted(fields) == sorted(expected[sup] for sup in product(*box))
    assert min(fields) == min(expected.values())
    # the pipeline's kernel and sweep see the same supports once each
    assert pipeline_table(h, box) == expected
    outcome = verify_relaxed_counts(h, box, Fraction(limit))
    assert outcome == verify_relaxed_counts(h, [sorted(set(sub)) for sub in box], Fraction(limit))
    assert outcome.checked == len(expected) == 2 * 2 * 2
