"""The two relaxed-count kernels' results as {support: count} tables.

relaxed_count_table and instances._elimination_counts return one
(v_last, fields) pair per vertex of a box's last subset, each in its own
field order (see their docstrings). These helpers expand every field, so a
test compares every support of the box.
"""

from itertools import product

from bsgkit.instances import _elimination_counts
from bsgkit.octopus import relaxed_count_table


def pipeline_table(h, box):
    """relaxed_count_table(h, box) as a dict: heads in product order over
    the sorted, deduplicated first r-1 subsets."""
    subs = [sorted(set(sub)) for sub in box]
    heads = list(product(*subs[:-1]))
    return {
        head + (v,): count
        for v, fields in relaxed_count_table(h, box)
        for head, count in zip(heads, fields, strict=True)
    }


def verifier_table(h, box):
    """_elimination_counts(h, box) as a dict: the subsets as given, part 0
    varying fastest, highest field index first."""
    heads = [head[::-1] for head in product(*box[-2::-1])][::-1]
    return {
        head + (v,): count
        for v, fields in _elimination_counts(h, box)
        for head, count in zip(heads, fields, strict=True)
    }
