"""Relaxed counts up to past 64 bits, in both kernels, against their closed form.

On the complete r-partite hypergraph with parts of size n, every leg count
is n^(r-1) and every support has (n-1)^(r-1) closing edges, so every
relaxed count is (n-1)^(r-1) * n^((r-1)^2). At n = 5 the kernels' field
bound n^(r-1) * (n^(r-1))^(r-1) needs 1, 2, 4, 6 and 9 bytes for r = 2 to
6, so every packed field width is used, 8 bytes included; at r = 6 every
count is 305175781250000000000, a 69-bit number.

Each kernel sizes its fields from a bound it computes. Two more families,
at r = 2 and at r = 3, put the largest count exactly on that bound, at the
top of a field width and one past it, so a kernel that underestimates the
bound overflows a field. At r = 3 each kernel also contracts a part and
folds two last-part vertices into one vector. A box whose bound is 0
gets 1-byte fields while its leg rows hold counts past 255; both kernels
must give 0 there, not pack those rows. Needs no pytest: run it as a
script with src on PYTHONPATH.
"""

from itertools import product

from bsgkit.hypergraph import PartiteHypergraph
from bsgkit.octopus import octopus_count_relaxed
from kernel_tables import pipeline_table, verifier_table
from oracles import oracle_relaxed

N = 5

# (m, z) with m * z = 255, 256, 65535 and 65536: the last count that fits
# 1 and 2 byte fields, and the first that does not
BOUNDARY_SHAPES = [(15, 17), (16, 16), (255, 257), (256, 256)]


def test_complete_n5_counts_match_the_closed_form():
    assert (N - 1) ** 5 * N**25 == 305175781250000000000
    assert (305175781250000000000).bit_length() == 69
    for r in range(2, 7):
        count = (N - 1) ** (r - 1) * N ** ((r - 1) ** 2)
        h = PartiteHypergraph.complete((N,) * r)
        # a box of 2^(r-1) supports, several fields per int, and a singleton
        box = [[0, 4], [1, 3], [2, 0], [0, 1], [1, 4], [3, 0]][: r - 1] + [[2]]
        for kernel in (pipeline_table, verifier_table):
            for sub_box, size in ((box, 2 ** (r - 1)), ([[2]] * r, 1)):
                table = kernel(h, sub_box)
                assert len(table) == size, (r, kernel.__name__)
                assert set(table.values()) == {count}, (r, kernel.__name__)


def boundary_graph(m: int, z: int) -> PartiteHypergraph:
    """r = 2: part 0 is {0, 1} plus W = 2..m+1, part 1 is {0} plus
    Z = 1..z, and the edges are {0, 1} x Z and W x ({0} + Z). On the box
    [[0, 1], [0]] both supports have the m closing mates W, each with leg
    count z, so both count m * z; each kernel's field bound, the degree of
    part 1's vertex 0 times the largest leg count in the box's rows, is
    m * z as well."""
    mates = range(2, m + 2)
    edges = list(product((0, 1), range(1, z + 1))) + list(product(mates, range(z + 1)))
    return PartiteHypergraph.build(2, (m + 2, z + 1), edges)


def test_counts_on_a_field_width_boundary_match_the_oracle():
    box = [[0, 1], [0]]
    for m, z in BOUNDARY_SHAPES:
        h = boundary_graph(m, z)
        expected = {support: oracle_relaxed(h, support) for support in product(*box)}
        assert set(expected.values()) == {m * z}
        for kernel in (pipeline_table, verifier_table):
            assert kernel(h, box) == expected, (m, z, kernel.__name__)


# (|W0|, |W1|, |X|) with products 15, 16, 255 and 256, so the counts
# (|W0| |W1| |X|)^2 are 225 and 65025, the last that fit 1 and 2 byte
# fields, and 256 and 65536, the first that do not
R3_BOUNDARY_SHAPES = [(1, 3, 5), (2, 2, 4), (3, 5, 17), (4, 8, 8)]


def boundary_graph_r3(a: int, b: int, x: int) -> PartiteHypergraph:
    """r = 3: part 0 is A = 0 plus W0 = 1..a, part 1 is B = 0 plus
    W1 = 1..b, part 2 is C = 0, C' = 1 plus X = 2..x+1, and the edges are
    W0 x W1 x {C, C'}, {A} x W1 x X, W0 x W1 x X and W0 x {B} x X. On the
    box [[A], [B], [C, C']] each support has the closing mates W0 x W1, with
    leg counts |W1| |X| at part 0 and |W0| |X| at part 1, so it counts
    (|W0| |W1| |X|)^2; each kernel's field bound, the degree |W0| |W1| of C
    and C' times the largest leg count in each part's box row, is that
    count as well."""
    w0, w1, xs = range(1, a + 1), range(1, b + 1), range(2, x + 2)
    edges = [
        *product(w0, w1, (0, 1)),
        *product((0,), w1, xs),
        *product(w0, w1, xs),
        *product(w0, (0,), xs),
    ]
    return PartiteHypergraph.build(3, (a + 1, b + 1, x + 2), edges)


def test_r3_counts_on_a_field_width_boundary_match_the_oracle():
    box = [[0], [0], [0, 1]]
    for a, b, x in R3_BOUNDARY_SHAPES:
        h = boundary_graph_r3(a, b, x)
        expected = {support: oracle_relaxed(h, support) for support in product(*box)}
        assert set(expected.values()) == {(a * b * x) ** 2}
        for kernel in (pipeline_table, verifier_table):
            assert kernel(h, box) == expected, (a, b, x, kernel.__name__)


def zero_bound_cases():
    """(h, box) pairs whose kernel bound is 0 while some box leg row holds a
    count of 300, past a 1-byte field. At r = 2 part 0 is {0, 1}, part 1
    is 0..300 and the edges are {0, 1} x 0..299: codegree(0, 1) is 300 and
    the box's last vertex 300 has no edge. At r = 3 the core edges are
    {0, 1} x {0, 1} x 0..149, so each of parts 0 and 1 has a leg count of
    300 between its vertices 0 and 1, and 150 is the last part's extra
    vertex: with no edge of its own, or with one edge through a box vertex
    that has no leg, in part 0 or in part 1."""
    yield PartiteHypergraph.build(2, (2, 301), list(product((0, 1), range(300)))), [[0], [300]]
    core = list(product((0, 1), (0, 1), range(150)))
    yield PartiteHypergraph.build(3, (2, 2, 151), core), [[0, 1], [0, 1], [150]]
    yield PartiteHypergraph.build(3, (3, 2, 151), core + [(2, 0, 150)]), [[2], [0], [150]]
    yield PartiteHypergraph.build(3, (2, 3, 151), core + [(0, 2, 150)]), [[0], [2], [150]]


def test_zero_bound_boxes_count_zero_in_both_kernels():
    for h, box in zero_bound_cases():
        expected = {support: oracle_relaxed(h, support) for support in product(*box)}
        assert set(expected.values()) == {0}
        for kernel in (pipeline_table, verifier_table):
            assert kernel(h, box) == expected, (h.r, box, kernel.__name__)
        for support in expected:
            assert octopus_count_relaxed(h, support) == 0


if __name__ == "__main__":
    test_complete_n5_counts_match_the_closed_form()
    test_counts_on_a_field_width_boundary_match_the_oracle()
    test_r3_counts_on_a_field_width_boundary_match_the_oracle()
    test_zero_bound_boxes_count_zero_in_both_kernels()
    print("ok: both kernels match the closed form for r = 2 to 6 and the oracle"
          " on counts at field-width boundaries for r = 2 and 3 and on zero-bound boxes")
