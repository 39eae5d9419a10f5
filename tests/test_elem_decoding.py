"""The column-wise element-list decoder against a per-element reference.

``groups._elems_from_json`` decodes every element list the package reads
(each part of an instance file and each element-set file). It is compared
here with tests/oracles.py, which decodes one element at a time with
elem_from_json, over free and cyclic groups, unreduced cyclic coordinates
and coordinates written as decimal strings; and each malformed element list
is pinned to the error type and message the per-element path raises.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from bsgkit.errors import ConfigInvalidError, ShapeMismatchError  # noqa: E402
from bsgkit.groups import _elems_from_json, make_group  # noqa: E402
from bsgkit.hypergraph import Instance  # noqa: E402
from bsgkit.sumsets import ElemSet  # noqa: E402
from oracles import oracle_elems_from_json  # noqa: E402

MODULI = [(0,), (5,), (0, 3), (7, 0)]

# small values reach past every modulus in both directions; big ones pass 2^53
COORDS = st.integers(-12, 12) | st.integers(-(2**70), 2**70)


@st.composite
def element_lists(draw):
    """(moduli, JSON element list); coordinates are ints, some unreduced, and
    in some lists a few are decimal strings."""
    moduli = draw(st.sampled_from(MODULI))
    elems = draw(st.lists(st.lists(COORDS, min_size=len(moduli), max_size=len(moduli)),
                          max_size=6))
    if elems and draw(st.booleans()):
        flat = [(i, j) for i in range(len(elems)) for j in range(len(moduli))]
        for i, j in draw(st.lists(st.sampled_from(flat), min_size=1, max_size=3)):
            elems[i][j] = str(elems[i][j])
    return moduli, elems


@settings(max_examples=150, derandomize=True, deadline=None)
@given(element_lists())
@example(((5,), [[7], [-3], [5], [0]]))
@example(((7, 0), [[-1, str(2**53)], [13, -(2**60)]]))
@example(((0, 3), [[str(-(2**64)), 4], [2, -4]]))
@example(((0,), []))
def test_decoder_matches_the_per_element_oracle(case):
    moduli, elems = case
    spec = make_group(moduli)
    decoded = _elems_from_json(spec, elems)
    assert decoded == oracle_elems_from_json(spec, elems)
    assert all(type(c) is int for e in decoded for c in e)
    assert ElemSet.from_json(spec, elems) == ElemSet.from_iterable(spec, decoded)


_ERROR_ROWS = [
    ([0], [[0], [True]], ConfigInvalidError, "boolean is not a valid coordinate"),
    ([5], [[0], [True]], ConfigInvalidError, "boolean is not a valid coordinate"),
    ([0], [[0], [1.0]], ConfigInvalidError,
     "coordinate must be an integer or decimal string, got float"),
    ([0], [[0], None], TypeError, "'NoneType' object is not iterable"),
    ([0], [[0], [None]], ConfigInvalidError,
     "coordinate must be an integer or decimal string, got NoneType"),
    ([0], [[0], [[1]]], ConfigInvalidError,
     "coordinate must be an integer or decimal string, got list"),
    ([0], [[0], [1, 2]], ShapeMismatchError, "element has 2 coordinates, spec has 1"),
    ([0, 3], [[0, 1], [2]], ShapeMismatchError, "element has 1 coordinates, spec has 2"),
]
_ERROR_IDS = ["bool", "bool-cyclic", "float", "none-element", "none-coordinate",
              "nested-list", "too-wide", "too-narrow"]


@pytest.mark.parametrize("moduli, elems, error, message", _ERROR_ROWS, ids=_ERROR_IDS)
def test_malformed_element_lists_fail_with_pinned_errors(moduli, elems, error, message):
    spec = make_group(moduli)
    data = {"group": spec.to_json(), "parts": [elems, [[0] * len(moduli)]], "edges": "complete"}
    for load in (lambda: Instance.from_json(data), lambda: ElemSet.from_json(spec, elems)):
        with pytest.raises(error) as info:
            load()
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize(
    "moduli, elems, normalized",
    [
        ([0], [[1], [0]], ((0,), (1,))),
        ([0], [[0], [0]], ((0,),)),
        ([5], [[4], [6]], ((1,), (4,))),  # sorted once reduced, not before
    ],
    ids=["unsorted", "repeated", "unsorted-after-reduction"],
)
def test_an_instance_part_must_be_sorted_and_distinct(moduli, elems, normalized):
    # an instance part is strict; an element-set file is normalized
    spec = make_group(moduli)
    data = {"group": spec.to_json(), "parts": [elems, [[0]]], "edges": "complete"}
    with pytest.raises(ConfigInvalidError) as info:
        Instance.from_json(data)
    assert type(info.value) is ConfigInvalidError
    assert str(info.value) == "part elements must be distinct and in canonical sorted order"
    assert ElemSet.from_json(spec, elems).elems == normalized
