"""The general pipeline's stages read cuts of the ambient flattenings.

Stage s of octopus_extract restricts parts 0..s-1 and reads only the
flattening against part s, whose leading right digits are those parts. So
``h.flatten(s).restrict_leading(kept)`` must equal the flattening of the
induced hypergraph. tests/test_invariants.py pins a digest of the
pipeline's results.
"""

import pytest

from bsgkit.errors import ArityMismatchError, ConfigInvalidError, IndexOutOfRangeError
from bsgkit.hypergraph import PartiteHypergraph

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SETTINGS = settings(
    max_examples=120,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def cut_cases(draw):
    """(hypergraph, part s, kept lists for parts 0..c-1 with c <= s); a kept
    list may be whole, a singleton, any subset or empty."""
    r = draw(st.integers(2, 4))
    sizes = tuple(draw(st.lists(st.integers(1, 4), min_size=r, max_size=r)))
    edge = st.tuples(*[st.integers(0, n - 1) for n in sizes])
    h = PartiteHypergraph.build(r, sizes, draw(st.lists(edge, max_size=40)))
    s = draw(st.integers(0, r - 1))
    kept = []
    for n in sizes[: draw(st.integers(0, s))]:
        kind = draw(st.sampled_from(["full", "single", "subset", "empty"]))
        if kind == "empty":
            kept.append([])
        elif kind == "full":
            kept.append(list(range(n)))
        elif kind == "single":
            kept.append([draw(st.integers(0, n - 1))])
        else:
            kept.append(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return h, s, kept


@SETTINGS
@given(case=cut_cases())
def test_restrict_leading_equals_induced_flattening(case):
    h, s, kept = case
    cut = h.flatten(s).restrict_leading(kept)
    full = [range(n) for n in h.part_sizes[len(kept):]]
    induced = h.induce(kept + full).flatten(s)
    assert cut.left_size == induced.left_size
    assert cut.right_shape == induced.right_shape
    assert cut.adj == induced.adj


def test_restrict_leading_without_lists_is_the_flattening():
    flat = PartiteHypergraph.complete((2, 3, 2)).flatten(1)
    assert flat.restrict_leading([]) is flat


@pytest.mark.parametrize(
    "kept, error, match",
    [
        ([[True]], ConfigInvalidError, "True"),
        ([[0, 1.0]], ConfigInvalidError, "1.0"),
        ([["0"]], ConfigInvalidError, "'0'"),
        ([[0, 3]], IndexOutOfRangeError, "3"),
        ([[-1]], IndexOutOfRangeError, "-1"),
        ([[1, 1]], ConfigInvalidError, "strictly increasing"),
        ([[2, 0]], ConfigInvalidError, "strictly increasing"),
        ([[0], [0], [0]], ArityMismatchError, "3 kept lists"),
    ],
    ids=["bool", "float", "text", "above", "negative", "repeat", "descending", "too-many"],
)
def test_restrict_leading_rejects_bad_kept_lists(kept, error, match):
    flat = PartiteHypergraph.complete((3, 2, 3)).flatten(2)
    with pytest.raises(error, match=match):
        flat.restrict_leading(kept)
