"""Relaxed counts up to past 64 bits, in both kernels, against their closed form.

On the complete r-partite hypergraph with parts of size n, every leg count
is n^(r-1) and every support has (n-1)^(r-1) closing edges, so every
relaxed count is (n-1)^(r-1) * n^((r-1)^2). At n = 5 the kernels' field
bound n^(r-1) * (n^(r-1))^(r-1) needs 1, 2, 4, 6 and 9 bytes for r = 2 to
6, so every packed field width is used, 8 bytes included; at r = 6 every
count is 305175781250000000000, a 69-bit number. Needs no pytest: run it
as a script with src on PYTHONPATH.
"""

from bsgkit.hypergraph import PartiteHypergraph
from kernel_tables import pipeline_table, verifier_table

N = 5


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


if __name__ == "__main__":
    test_complete_n5_counts_match_the_closed_form()
    print("ok: both kernels match the closed form for r = 2 to 6")
