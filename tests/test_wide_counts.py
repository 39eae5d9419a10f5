"""Relaxed counts up to past 64 bits, in both kernels, against their closed form.

On the complete r-partite hypergraph with parts of size n, every leg count
is n^(r-1) and every support has (n-1)^(r-1) closing edges, so every
relaxed count is (n-1)^(r-1) * n^((r-1)^2). At n = 5 the kernels' field
bound n^(r-1) * (n^(r-1))^(r-1) needs 1, 2, 4, 6 and 9 bytes for r = 2 to
6, so every packed field width is used, 8 bytes included; at r = 6 every
count is 305175781250000000000, a 69-bit number.

Each kernel sizes its fields from a bound it computes. A second family
puts the largest count exactly on that bound, at the top of a field width
and one past it, so a kernel that underestimates the bound overflows a
field. Needs no pytest: run it as a script with src on PYTHONPATH.
"""

from itertools import product

from bsgkit.hypergraph import PartiteHypergraph
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


if __name__ == "__main__":
    test_complete_n5_counts_match_the_closed_form()
    test_counts_on_a_field_width_boundary_match_the_oracle()
    print("ok: both kernels match the closed form for r = 2 to 6 and the oracle"
          " on counts at field-width boundaries")
