"""Group arithmetic: construction, canonical form, laws, JSON round-trips."""

import json
import random

import pytest

from bsgkit.errors import ConfigInvalidError, InvalidModulusError, ShapeMismatchError
from bsgkit.groups import GroupSpec, elem_from_json, elem_to_json, make_group

SPEC_FAMILIES = [
    (5,),
    (0,),
    (2, 0),
    (2, 3, 5),
    (0, 0),
    (7, 0, 4),
]


def test_make_group_examples():
    assert make_group([5]).moduli == (5,)
    assert make_group([0]).moduli == (0,)
    with pytest.raises(InvalidModulusError) as err:
        make_group([2, 2, 1])
    assert err.value.index == 2
    with pytest.raises(InvalidModulusError):
        make_group([-3])
    with pytest.raises(InvalidModulusError):
        make_group([])


def test_add_examples():
    z5 = make_group([5])
    assert z5.add((3,), (4,)) == (2,)
    z = make_group([0])
    assert z.add((7,), (-7,)) == (0,)
    z2z = make_group([2, 0])
    assert z2z.add((1, 3), (1, 4)) == (0, 7)
    with pytest.raises(ShapeMismatchError):
        z5.add((1, 2), (0,))


def test_neg_examples():
    z5 = make_group([5])
    assert z5.neg((2,)) == (3,)
    z = make_group([0])
    assert z.neg((0,)) == (0,)
    z2z = make_group([2, 0])
    assert z2z.neg((1, -4)) == (1, 4)
    with pytest.raises(ShapeMismatchError):
        z5.neg((1, 2))


def _random_elem(spec, rnd):
    return spec.canon(
        tuple(
            rnd.randrange(m) if m else rnd.randrange(-10**6, 10**6)
            for m in spec.moduli
        )
    )


@pytest.mark.parametrize("moduli", SPEC_FAMILIES)
def test_group_laws_randomized(moduli):
    spec = make_group(moduli)
    rnd = random.Random(0xC0FFEE ^ hash(moduli))
    checks = 10_000 // len(SPEC_FAMILIES) + 1
    for _ in range(checks):
        a = _random_elem(spec, rnd)
        b = _random_elem(spec, rnd)
        c = _random_elem(spec, rnd)
        assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
        assert spec.add(a, b) == spec.add(b, a)
        assert spec.add(a, spec.identity()) == a
        assert spec.add(a, spec.neg(a)) == spec.identity()
        # results already canonical: re-canonicalization is a no-op
        s = spec.add(a, b)
        assert spec.canon(s) == s


def test_canonical_form_maintained():
    spec = make_group([4, 0])
    assert spec.canon((-1, -1)) == (3, -1)
    assert spec.add((3, 5), (3, 5)) == (2, 10)


def test_elem_json_roundtrip_big_ints():
    spec = make_group([0, 3])
    big = 2**70 + 12345
    e = spec.canon((big, 2))
    encoded = elem_to_json(e)
    assert isinstance(encoded[0], str)  # beyond 2^53, survives as string
    assert isinstance(encoded[1], int)
    # a JSON round-trip through text preserves the value exactly
    decoded = elem_from_json(spec, json.loads(json.dumps(encoded)))
    assert decoded == e


def test_spec_json_roundtrip():
    spec = make_group([2, 3, 0])
    assert GroupSpec.from_json(spec.to_json()) == spec


@pytest.mark.parametrize("moduli", [[7.9], [True], ["7"], [0, 2.0]])
def test_spec_rejects_non_int_moduli(moduli):
    # a truncating int() would read [7.9] as Z_7
    with pytest.raises(ConfigInvalidError, match="not an int"):
        GroupSpec.from_json({"moduli": moduli})
    with pytest.raises(ConfigInvalidError, match="not an int"):
        make_group(moduli)
