"""Both relaxed-count kernels against the per-support brute-force oracle.

relaxed_count_table (the pipeline's) and _elimination_counts (check_bounds')
pack a box's counts into one int with fixed-width fields. Here both are
expanded to a table of every support (tests/kernel_tables.py) and
compared with tests/oracles.py's oracle_relaxed on every support of every
box, for r from 2 to 5: hypergraphs with no edges or isolated vertices (the
field bound is 0), singleton boxes, subsets that repeat a vertex, and
several boxes sharing vertices, each counted in its own call.
"""

from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bsgkit.hypergraph import PartiteHypergraph  # noqa: E402
from kernel_tables import pipeline_table, verifier_table  # noqa: E402
from oracles import oracle_relaxed  # noqa: E402

SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def counting_cases(draw):
    """(hypergraph, boxes): at most 3^4 tuples, or 2^5 at r = 5."""
    r = draw(st.integers(2, 5))
    top = 2 if r == 5 else 3
    sizes = tuple(draw(st.lists(st.integers(1, top), min_size=r, max_size=r)))
    tuples = list(product(*map(range, sizes)))
    keep = draw(st.lists(st.booleans(), min_size=len(tuples), max_size=len(tuples)))
    h = PartiteHypergraph.build(r, sizes, [e for e, k in zip(tuples, keep) if k])
    subset = [st.lists(st.integers(0, s - 1), min_size=1, max_size=s + 1) for s in sizes]
    boxes = draw(st.lists(st.tuples(*subset), min_size=1, max_size=3))
    return h, [list(box) for box in boxes]


def _expected(h, boxes):
    supports = {sup for box in boxes for sup in product(*box)}
    return {sup: oracle_relaxed(h, sup) for sup in supports}


def _merged(kernel, h, boxes):
    """The tables of one kernel call per box, merged."""
    table = {}
    for box in boxes:
        table.update(kernel(h, box))
    return table


@SETTINGS
@given(case=counting_cases())
@example(case=(PartiteHypergraph.build(3, (2, 2, 2), []), [[[0, 1], [1], [0, 1]]]))
@example(case=(PartiteHypergraph.build(2, (3, 3), [(0, 0)]), [[[1, 2], [0, 1, 2]], [[0], [0]]]))
@example(case=(
    PartiteHypergraph.build(4, (2, 2, 2, 2), list(product(range(2), repeat=4))),
    [[[0, 1], [0, 0, 1], [1], [0, 1]], [[0], [0], [1], [1]], [[1], [0], [1], [1]]],
))
def test_both_kernels_match_the_oracle(case):
    h, boxes = case
    expected = _expected(h, boxes)
    # the pipeline kernel takes the subsets as index sets; the verifier
    # kernel takes them as given, repeats and order included
    assert _merged(pipeline_table, h, boxes) == expected
    assert _merged(verifier_table, h, boxes) == expected


def test_an_empty_subset_adds_no_support():
    h = PartiteHypergraph.complete((2, 2, 2))
    boxes = [[[0, 1], [], [0]], [[1], [0], [1]]]
    for kernel in (pipeline_table, verifier_table):
        assert _merged(kernel, h, boxes) == _expected(h, boxes)
